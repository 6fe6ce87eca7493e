// The VeriDP server (§3.2, §3.4): sits beside the controller, intercepts
// the southbound rule stream to keep its path table current, receives tag
// reports from switches, verifies them (Algorithm 3) and localizes faulty
// switches on failure (Algorithm 4).
//
// Rule and ACL events are applied lazily: an event only records the new
// epoch and marks the server dirty (kIncremental also queues a rule
// event), and the next verify / verify_batch / table / stats call brings
// the table up to date first (ensure_fresh, the one place events are
// applied).
// Two maintenance modes:
//  * kIncremental — for §4.4's fragment: dst-prefix-only rules with
//    priority equal to prefix length, no rewrites and no ACL but
//    permit-all. The queued events are applied in order via
//    IncrementalUpdater, O(affected branches) each, editing the table in
//    place in one arena (the constructor's `space`). The server checks
//    the fragment at sync() and on every rule or ACL event; on a miss it
//    serves kFullRebuild from then on, and mode() says so.
//  * kFullRebuild — arbitrary rules/ACLs; the table is rebuilt from the
//    controller's logical configs, every build in a fresh HeaderSpace
//    (BDD arena). Node creation needs exclusive use of an arena
//    (bdd.hpp) while readers may be evaluating the served tables, and an
//    arena dies with the last table built in it, so memory stays bounded
//    under churn. ParallelServer owns one of these and republishes its
//    snapshots to its workers.
//
// Epoch-aware verification (opt-in via enable_epoch_checking): every rule
// event advances the config epoch; reports carry the epoch they were
// sampled under. A report stamped with a past epoch is checked against
// the path table that was current *then* — kFullRebuild keeps a small
// ring of superseded table snapshots; kIncremental (whose table mutates
// in place) applies a grace-window rule instead: a recent-epoch report
// that fails against the current table is classified kStaleEpoch, not
// failed. Either way, in-flight reports straddling a rule update can
// never produce false positives. The ring also keeps Verdict::matched
// pointers valid across lazy rebuilds until a snapshot ages out.
//
// The tables live in an EpochSnapshot (verifier.hpp) published by the
// next_snapshot rule. The server itself is driven from one thread; only
// the failsafe state and the publication count (relaxed atomics) may be
// read from any thread.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "controller/controller.hpp"
#include "veridp/admission.hpp"
#include "veridp/incremental.hpp"
#include "veridp/localizer.hpp"
#include "veridp/verifier.hpp"

namespace veridp {

class Server {
 public:
  enum class Mode { kFullRebuild, kIncremental };

  /// Creates a server monitoring `controller`'s network. Subscribes to
  /// the controller's rule events until destroyed. The controller (and
  /// its topology) must outlive the server. `space` is the BDD arena a
  /// kIncremental table is built and edited in (HeaderSpace copies share
  /// their manager; one is made at sync if none is given), so pass one
  /// to compare that table with another via `equivalent`. kFullRebuild
  /// builds every table in a fresh arena and never uses it.
  Server(Controller& controller, Mode mode,
         int tag_bits = BloomTag::kDefaultBits,
         std::optional<HeaderSpace> space = std::nullopt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Builds the path table from the current logical state. Call once
  /// after the initial policy installation.
  void sync();

  /// Verifies one tag report against the path table. With epoch
  /// checking enabled the report's epoch stamp selects the table (see
  /// the header comment); otherwise the current table is always used.
  Verdict verify(const TagReport& report);

  /// Batched verify over lanes [first, first + count) of a ReportBatch:
  /// one ensure_fresh/epoch_tables per call instead of per report, then
  /// the batched kernel (verify_epoch_aware_batch). Verdicts land in
  /// out[0..count) and the health counters advance exactly as count
  /// scalar verify() calls would — verdicts are bit-identical by the
  /// kernel's contract.
  void verify_batch(const ReportBatch& batch, std::size_t first,
                    std::size_t count, Verdict* out);

  /// Runs fault localization for a (failed) report. Localization uses
  /// the controller's *current* logical config, so it is only
  /// meaningful for current-epoch failures — kStaleEpoch verdicts
  /// should not be localized.
  [[nodiscard]] LocalizeResult localize(const TagReport& report) const;

  [[nodiscard]] const PathTable& table();
  [[nodiscard]] PathTableStats stats();
  /// The serving mode: a kIncremental server reports kFullRebuild once
  /// its configuration left §4.4's fragment.
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] int tag_bits() const { return tag_bits_; }

  /// Turns on epoch-aware verification. `snapshot_ring` bounds how many
  /// superseded tables kFullRebuild mode retains; `grace_window` is the
  /// number of recent epochs whose reports may still be judged against
  /// the current table when no snapshot covers them (kIncremental mode,
  /// or epochs that fell between two lazy rebuilds).
  void enable_epoch_checking(std::size_t snapshot_ring = 8,
                             std::uint32_t grace_window = 64);
  [[nodiscard]] bool epoch_checking() const { return epochs_.checking; }

  /// The config epoch the server has observed (mirrors the controller).
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  /// The published tables (null before sync): table_valid_from is the
  /// epoch the current table was built at, `ranges` the retained ring
  /// (kFullRebuild + epoch checking only). Holding the pointer keeps
  /// kFullRebuild tables and their arenas alive; a kIncremental
  /// snapshot's current table is the updater's: it changes at the next
  /// refresh after a rule event, and dies with the updater when the
  /// server falls back to kFullRebuild.
  [[nodiscard]] std::shared_ptr<const EpochSnapshot> snapshot() const {
    return snap_;
  }
  /// Snapshots published so far (sync included). Any thread.
  [[nodiscard]] std::uint64_t snapshot_flips() const {
    // veridp-lint: allow(relaxed-atomic, monitoring counter; exactness not ordering)
    return flips_.load(std::memory_order_relaxed);
  }

  // Health counters. Every verified report lands in exactly one of
  // passed / failed / stale (IngestHealth::tally).
  [[nodiscard]] std::uint64_t reports_verified() const {
    return verdicts_.verified;
  }
  [[nodiscard]] std::uint64_t reports_passed() const {
    return verdicts_.passed;
  }
  [[nodiscard]] std::uint64_t reports_failed() const {
    return verdicts_.failed;
  }
  [[nodiscard]] std::uint64_t reports_stale() const { return verdicts_.stale; }

  /// Duplicate-report memo effectiveness (see VerifyMemo).
  [[nodiscard]] std::uint64_t memo_hits() const { return memo_.hits(); }

  /// Fault-injection hook for the table publisher: while it returns
  /// true, rebuilds (kFullRebuild) / event application (kIncremental)
  /// are wedged. The server then serves the last-good table in failsafe
  /// mode — verification degrades to the ahead-of-table rule (a pass is
  /// conclusive, a mismatch is kStaleEpoch, never a false positive) —
  /// and recovers automatically once the hook clears: kFullRebuild
  /// rebuilds, kIncremental applies the queued events in order.
  void set_publish_fault(std::function<bool()> fault) {
    publish_fault_ = std::move(fault);
  }
  /// True while serving the last-good table because the publisher is
  /// wedged behind pending rule events. Any thread.
  [[nodiscard]] bool in_failsafe() const {
    // veridp-lint: allow(relaxed-atomic, advisory status poll; no data guarded by it)
    return in_failsafe_.load(std::memory_order_relaxed);
  }
  /// Edge-triggered count of failsafe engagements (loud by design). Any
  /// thread.
  [[nodiscard]] std::uint64_t failsafe_events() const {
    // veridp-lint: allow(relaxed-atomic, monitoring counter; exactness not ordering)
    return failsafe_events_.load(std::memory_order_relaxed);
  }

 private:
  void on_rule_event(const RuleEvent& ev);
  void rebuild();
  /// Publishes `table` as current from epoch_ on (next_snapshot) and
  /// voids the memo. `retire_below` as in next_snapshot.
  void publish(std::shared_ptr<const PathTable> table,
               std::uint32_t retire_below);
  /// publish() for the kIncremental updater's in-place table.
  void publish_in_place();
  void ensure_fresh();
  [[nodiscard]] bool publisher_wedged() const {
    return publish_fault_ && publish_fault_();
  }
  /// View of the epoch → table state consumed by verify_epoch_aware.
  /// Requires ensure_fresh() to have run.
  [[nodiscard]] EpochTables epoch_tables() const;

  Controller* controller_;
  std::uint64_t listener_ = 0;  ///< controller subscription handle
  Mode mode_;
  int tag_bits_;
  std::optional<HeaderSpace> space_;  ///< kIncremental's arena
  std::unique_ptr<IncrementalUpdater> updater_;  ///< kIncremental, after sync
  bool synced_ = false;
  bool dirty_ = false;
  std::vector<RuleEvent> deferred_;  ///< kIncremental events not yet applied

  // Failsafe state (see set_publish_fault). Written by the driving
  // thread; the flag and counters are atomic so any thread may poll.
  std::function<bool()> publish_fault_;
  std::atomic<bool> in_failsafe_{false};
  std::atomic<std::uint64_t> failsafe_events_{0};
  std::atomic<std::uint64_t> flips_{0};  ///< snapshot publications

  // Epoch state.
  EpochPolicy epochs_;
  std::uint32_t epoch_ = 0;
  std::uint32_t dirty_from_ = 0;  ///< epoch of the first event since clean
  std::shared_ptr<const EpochSnapshot> snap_;
  /// Duplicate-report fast path. Valid only for the current snapshot:
  /// cleared on every publish, including each in-place incremental
  /// refresh.
  VerifyMemo memo_;

  IngestHealth verdicts_;  ///< the verified buckets only
};

}  // namespace veridp
