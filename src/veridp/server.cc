#include "veridp/server.hpp"

#include "veridp/report_batch.hpp"

namespace veridp {

namespace {

/// §4.4's fragment, the rules IncrementalUpdater models: a dst-prefix
/// match at priority == prefix length, with no header rewrite.
bool in_fragment(const FlowRule& r) {
  return r.match.is_dst_prefix_only() && r.priority == r.match.dst.len &&
         r.action.rewrite.empty();
}

/// Every rule in the fragment, and no ACL but permit-all.
bool in_fragment(const std::vector<SwitchConfig>& configs) {
  for (const SwitchConfig& cfg : configs) {
    for (const FlowRule& r : cfg.table.rules())
      if (!in_fragment(r)) return false;
    for (const auto* acls : {&cfg.in_acls, &cfg.out_acls})
      for (const auto& [port, acl] : *acls)
        if (!acl.trivially_permits_all()) return false;
  }
  return true;
}

}  // namespace

Server::Server(Controller& controller, Mode mode, int tag_bits,
               std::optional<HeaderSpace> space)
    : controller_(&controller),
      mode_(mode),
      tag_bits_(tag_bits),
      space_(std::move(space)) {
  // Last, so no member initializer can throw after the subscription.
  listener_ = controller_->subscribe(
      [this](const RuleEvent& ev) { on_rule_event(ev); });
}

Server::~Server() { controller_->unsubscribe(listener_); }

void Server::enable_epoch_checking(std::size_t snapshot_ring,
                                   std::uint32_t grace_window) {
  epochs_ = {true, snapshot_ring, grace_window};
}

void Server::on_rule_event(const RuleEvent& ev) {
  epoch_ = controller_->epoch();  // events arrive post-bump
  if (!synced_) return;  // events before the first sync are folded into it
  if (!dirty_) {
    dirty_ = true;  // applied before the next lookup (ensure_fresh)
    dirty_from_ = epoch_;
  }
  if (mode_ != Mode::kIncremental) return;
  if (ev.kind == RuleEvent::Kind::kAcl) {
    // The updater models no ACL; a permit-all one changes no forwarding.
    const SwitchConfig& cfg = controller_->logical(ev.sw);
    if ((ev.outbound ? cfg.out_acl(ev.port) : cfg.in_acl(ev.port))
            .trivially_permits_all())
      return;
  } else if (in_fragment(ev.rule)) {
    deferred_.push_back(ev);  // kIncremental applies each rule event
    return;
  }
  // The updater cannot model this change: serve kFullRebuild for good.
  // The next refresh rebuilds from the configs, which hold every
  // queued event.
  mode_ = Mode::kFullRebuild;
  deferred_.clear();
}

void Server::publish(std::shared_ptr<const PathTable> table,
                     std::uint32_t retire_below) {
  snap_ = next_snapshot(snap_.get(), std::move(table), epoch_, retire_below,
                        epochs_);
  memo_.clear();
  // veridp-lint: allow(relaxed-atomic, commutative counter increment; no ordering carried)
  flips_.fetch_add(1, std::memory_order_relaxed);
}

void Server::publish_in_place() {
  // Non-owning alias: the updater owns the table and edits it in place,
  // so there is no old version to retire.
  publish(std::shared_ptr<const PathTable>(std::shared_ptr<const PathTable>(),
                                           &updater_->table()),
          0);
}

void Server::rebuild() {
  const Topology& topo = controller_->topology();
  if (mode_ == Mode::kIncremental &&
      !in_fragment(controller_->logical_configs()))
    mode_ = Mode::kFullRebuild;  // outside §4.4's fragment, for good
  if (mode_ == Mode::kIncremental) {
    deferred_.clear();  // the configs already hold every queued event
    if (!space_) space_.emplace();
    updater_ = std::make_unique<IncrementalUpdater>(*space_, topo, tag_bits_);
    updater_->initialize(controller_->logical_configs());
    publish_in_place();
  } else {
    // Fresh BDD arena per table: the build never creates nodes in an
    // arena a published snapshot reads from, and each HeaderSet keeps
    // its manager alive, so the arena lives exactly as long as its
    // table. The superseded table retires into the snapshot ring:
    // reports sampled under epochs [its valid-from, dirty_from_ - 1]
    // are still in flight and must be judged against it, and
    // Verdict::matched pointers handed out against it stay valid until
    // it ages out. The first table after a kIncremental fallback
    // retires nothing: the snapshot it replaces aliases the updater's
    // table, which may go only once no snapshot does.
    HeaderSpace space;
    ConfigTransferProvider provider(space, topo,
                                    controller_->logical_configs());
    PathTableBuilder builder(space, topo, provider, tag_bits_);
    publish(std::make_shared<const PathTable>(builder.build()),
            !updater_ && dirty_ ? dirty_from_ : 0);
    updater_.reset();  // after a fallback: the updater and its arena go
    space_.reset();
  }
  dirty_ = false;
}

void Server::sync() {
  epoch_ = controller_->epoch();
  rebuild();
  synced_ = true;
}

void Server::ensure_fresh() {
  if (!synced_) sync();
  if (!dirty_) return;
  if (publisher_wedged()) {
    // Failsafe: keep serving the last-good table. epoch_tables() caps
    // table_valid_to at the last pre-event epoch, so the ahead-of-table
    // rule turns would-be false positives into kStaleEpoch. Only this
    // thread writes the flag and the counter; readers poll them.
    // veridp-lint: allow(relaxed-atomic, independent status flag; readers poll it)
    if (!in_failsafe_.exchange(true, std::memory_order_relaxed))
      // veridp-lint: allow(relaxed-atomic, commutative counter increment; no ordering carried)
      failsafe_events_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (mode_ == Mode::kIncremental) {
    updater_->apply_batch(deferred_);
    deferred_.clear();
    publish_in_place();
  } else {
    rebuild();
  }
  dirty_ = false;
  // veridp-lint: allow(relaxed-atomic, independent status flag; readers poll it)
  in_failsafe_.store(false, std::memory_order_relaxed);
}

const PathTable& Server::table() {
  ensure_fresh();
  return *snap_->current;
}

PathTableStats Server::stats() { return table().stats(); }

EpochTables Server::epoch_tables() const {
  EpochTables t = snap_->view();
  t.epoch = epoch_;
  // Dirty (only possible here when the publisher is wedged — verify()
  // runs ensure_fresh first): the current table definitively covers only
  // epochs before the first pending event.
  if (dirty_) t.table_valid_to = dirty_from_ - 1;
  return t;
}

Verdict Server::verify(const TagReport& report) {
  ensure_fresh();
  const Verdict v = verify_epoch_aware(report, epoch_tables(), &memo_);
  verdicts_.tally(v);
  return v;
}

void Server::verify_batch(const ReportBatch& batch, std::size_t first,
                          std::size_t count, Verdict* out) {
  if (count == 0) return;
  ensure_fresh();
  verify_epoch_aware_batch(batch, first, count, epoch_tables(), &memo_, out);
  for (std::size_t k = 0; k < count; ++k) verdicts_.tally(out[k]);
}

LocalizeResult Server::localize(const TagReport& report) const {
  Localizer localizer(controller_->topology(), controller_->logical_configs());
  return localizer.infer(report);
}

}  // namespace veridp
