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
  epoch_checking_ = true;
  ring_capacity_ = snapshot_ring;
  grace_window_ = grace_window;
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
    table_valid_from_ = epoch_;
    memo_.clear();  // table mutated in place: cached verdicts are void
  } else {
    if (!dirty_) {
      dirty_ = true;  // lazy rebuild before the next lookup
      dirty_from_ = epoch_;
    }
  }
}

void Server::rebuild() {
  const Topology& topo = controller_->topology();
  if (mode_ == Mode::kIncremental) {
    updater_ = std::make_unique<IncrementalUpdater>(space_, topo, tag_bits_);
    updater_->initialize(controller_->logical_configs());
  } else {
    // Retire the superseded table into the snapshot ring: reports sampled
    // under epochs [table_valid_from_, dirty_from_ - 1] are still in
    // flight and must be judged against it, and Verdict::matched pointers
    // handed out against it stay valid until the snapshot ages out.
    if (epoch_checking_ && synced_ && dirty_ &&
        dirty_from_ > table_valid_from_) {
      ring_.push_front(
          {table_valid_from_, dirty_from_ - 1, std::move(full_table_)});
      while (ring_.size() > ring_capacity_) ring_.pop_back();
      ring_view_.clear();
      for (const Snapshot& s : ring_)
        ring_view_.push_back({s.first_epoch, s.last_epoch, &s.table});
    }
    ConfigTransferProvider provider(space_, topo,
                                    controller_->logical_configs());
    PathTableBuilder builder(space_, topo, provider, tag_bits_);
    full_table_ = builder.build();
  }
  table_valid_from_ = epoch_;
  dirty_ = false;
  memo_.clear();
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
    table_valid_from_ = epoch_;
    memo_.clear();
    dirty_ = false;
  } else {
    rebuild();
  }
  in_failsafe_ = false;
}

const PathTable& Server::current_table() const {
  return mode_ == Mode::kIncremental ? updater_->table() : full_table_;
}

const PathTable& Server::table() {
  ensure_fresh();
  return current_table();
}

PathTableStats Server::stats() { return table().stats(); }

EpochTables Server::epoch_tables() const {
  EpochTables t;
  t.epoch_checking = epoch_checking_;
  t.epoch = epoch_;
  t.table_valid_from = table_valid_from_;
  // Dirty (only possible here when the publisher is wedged — verify()
  // runs ensure_fresh first): the current table definitively covers only
  // epochs before the first pending event.
  t.table_valid_to = dirty_ ? dirty_from_ - 1 : epoch_;
  t.grace_window = grace_window_;
  t.current = &current_table();
  t.ring = ring_view_.data();
  t.ring_size = ring_view_.size();
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
