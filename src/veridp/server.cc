#include "veridp/server.hpp"

#include "veridp/report_batch.hpp"

namespace veridp {

Server::Server(Controller& controller, Mode mode, int tag_bits,
               HeaderSpace space)
    : controller_(&controller),
      mode_(mode),
      tag_bits_(tag_bits),
      space_(std::move(space)) {
  controller_->subscribe(
      [this](const RuleEvent& ev) { on_rule_event(ev); });
}

void Server::enable_epoch_checking(std::size_t snapshot_ring,
                                   std::uint32_t grace_window) {
  epochs_ = {true, snapshot_ring, grace_window};
}

void Server::on_rule_event(const RuleEvent& ev) {
  epoch_ = controller_->epoch();  // events arrive post-bump
  if (!synced_) return;  // events before the first sync are folded into it
  if (mode_ == Mode::kIncremental) {
    if (publisher_wedged() || !deferred_.empty()) {
      // Publisher wedged (or still holding a backlog): defer the event
      // instead of mutating the table — the last-good table keeps
      // serving, and ensure_fresh replays the backlog in order once the
      // wedge clears.
      if (deferred_.empty()) dirty_from_ = epoch_;
      deferred_.push_back(ev);
      dirty_ = true;
      return;
    }
    updater_->apply(ev);
    publish_in_place();
  } else {
    if (!dirty_) {
      dirty_ = true;  // lazy rebuild before the next lookup
      dirty_from_ = epoch_;
    }
  }
}

void Server::publish(std::shared_ptr<const PathTable> table,
                     std::uint32_t retire_below) {
  snap_ = next_snapshot(snap_.get(), std::move(table), epoch_, retire_below,
                        epochs_);
  memo_.clear();
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
  if (mode_ == Mode::kIncremental) {
    updater_ = std::make_unique<IncrementalUpdater>(space_, topo, tag_bits_);
    updater_->initialize(controller_->logical_configs());
    publish_in_place();
  } else {
    // The superseded table retires into the snapshot ring: reports
    // sampled under epochs [its valid-from, dirty_from_ - 1] are still
    // in flight and must be judged against it, and Verdict::matched
    // pointers handed out against it stay valid until it ages out.
    ConfigTransferProvider provider(space_, topo,
                                    controller_->logical_configs());
    PathTableBuilder builder(space_, topo, provider, tag_bits_);
    publish(std::make_shared<const PathTable>(builder.build()),
            dirty_ ? dirty_from_ : 0);
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
    // rule turns would-be false positives into kStaleEpoch.
    if (!in_failsafe_) {
      in_failsafe_ = true;
      ++failsafe_events_;
    }
    return;
  }
  if (mode_ == Mode::kIncremental) {
    // Recovery: replay the backlog deferred while wedged, in order.
    updater_->apply_batch(deferred_);
    deferred_.clear();
    publish_in_place();
    dirty_ = false;
  } else {
    rebuild();
  }
  in_failsafe_ = false;
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
  ++verified_;
  const Verdict v = verify_epoch_aware(report, epoch_tables(), &memo_);
  if (v.ok())
    ++passed_;
  else if (v.status == VerifyStatus::kStaleEpoch)
    ++stale_;
  else
    ++failed_;
  return v;
}

void Server::verify_batch(const ReportBatch& batch, std::size_t first,
                          std::size_t count, Verdict* out) {
  if (count == 0) return;
  ensure_fresh();
  verify_epoch_aware_batch(batch, first, count, epoch_tables(), &memo_, out);
  verified_ += count;
  for (std::size_t k = 0; k < count; ++k) {
    if (out[k].ok())
      ++passed_;
    else if (out[k].status == VerifyStatus::kStaleEpoch)
      ++stale_;
    else
      ++failed_;
  }
}

LocalizeResult Server::localize(const TagReport& report) const {
  Localizer localizer(controller_->topology(), controller_->logical_configs());
  return localizer.infer(report);
}

}  // namespace veridp
