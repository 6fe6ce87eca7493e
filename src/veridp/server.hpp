// The VeriDP server (§3.2, §3.4): sits beside the controller, intercepts
// the southbound rule stream to keep its path table current, receives tag
// reports from switches, verifies them (Algorithm 3) and localizes faulty
// switches on failure (Algorithm 4).
//
// Two maintenance modes:
//  * kIncremental — rules must be dst-prefix-only with priority equal to
//    prefix length and no ACLs (§4.4's fragment); updates are O(affected
//    branches) via IncrementalUpdater.
//  * kFullRebuild — arbitrary rules/ACLs; the table is rebuilt from the
//    controller's logical configs on demand (rebuilds are batched: the
//    table is marked dirty and rebuilt lazily before the next lookup).
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
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "veridp/incremental.hpp"
#include "veridp/localizer.hpp"
#include "veridp/verifier.hpp"

namespace veridp {

class Server {
 public:
  enum class Mode { kFullRebuild, kIncremental };

  /// Creates a server monitoring `controller`'s network. Subscribes to
  /// the controller's rule events. The controller (and its topology)
  /// must outlive the server. Pass a HeaderSpace to share one BDD arena
  /// with other components (HeaderSpace copies share their manager);
  /// required when this server's path table will be compared with
  /// another via `equivalent`.
  Server(Controller& controller, Mode mode,
         int tag_bits = BloomTag::kDefaultBits,
         HeaderSpace space = HeaderSpace{});

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
  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] int tag_bits() const { return tag_bits_; }

  /// Turns on epoch-aware verification. `snapshot_ring` bounds how many
  /// superseded tables kFullRebuild mode retains; `grace_window` is the
  /// number of recent epochs whose reports may still be judged against
  /// the current table when no snapshot covers them (kIncremental mode,
  /// or epochs that fell between two lazy rebuilds).
  void enable_epoch_checking(std::size_t snapshot_ring = 8,
                             std::uint32_t grace_window = 64);
  [[nodiscard]] bool epoch_checking() const { return epoch_checking_; }

  /// The config epoch the server has observed (mirrors the controller).
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  /// Epoch the current table was built at; reports stamped >= this are
  /// verified against the current table.
  [[nodiscard]] std::uint32_t table_epoch() const { return table_valid_from_; }
  /// Number of retained snapshots (kFullRebuild + epoch checking only).
  [[nodiscard]] std::size_t snapshots() const { return ring_.size(); }

  // Health counters. Every verify() lands in exactly one of passed /
  // failed / stale.
  [[nodiscard]] std::uint64_t reports_verified() const { return verified_; }
  [[nodiscard]] std::uint64_t reports_passed() const { return passed_; }
  [[nodiscard]] std::uint64_t reports_failed() const { return failed_; }
  [[nodiscard]] std::uint64_t reports_stale() const { return stale_; }

  /// Duplicate-report memo effectiveness (see VerifyMemo).
  [[nodiscard]] std::uint64_t memo_hits() const { return memo_.hits(); }

  /// Fault-injection hook for the table publisher: while it returns
  /// true, rebuilds (kFullRebuild) / event application (kIncremental)
  /// are wedged. The server then serves the last-good table in failsafe
  /// mode — verification degrades to the ahead-of-table rule (a pass is
  /// conclusive, a mismatch is kStaleEpoch, never a false positive) —
  /// and recovers automatically once the hook clears: kFullRebuild
  /// rebuilds, kIncremental replays the deferred events in order.
  void set_publish_fault(std::function<bool()> fault) {
    publish_fault_ = std::move(fault);
  }
  /// True while serving the last-good table because the publisher is
  /// wedged behind pending rule events.
  [[nodiscard]] bool in_failsafe() const { return in_failsafe_; }
  /// Edge-triggered count of failsafe engagements (loud by design).
  [[nodiscard]] std::uint64_t failsafe_events() const {
    return failsafe_events_;
  }

 private:
  struct Snapshot {
    std::uint32_t first_epoch = 0;  ///< valid range, inclusive
    std::uint32_t last_epoch = 0;
    PathTable table;
  };

  void on_rule_event(const RuleEvent& ev);
  void rebuild();
  void ensure_fresh();
  [[nodiscard]] bool publisher_wedged() const {
    return publish_fault_ && publish_fault_();
  }
  [[nodiscard]] const PathTable& current_table() const;
  /// View of the epoch → table state consumed by verify_epoch_aware
  /// (the classification shared with ParallelServer). Requires
  /// ensure_fresh() to have run.
  [[nodiscard]] EpochTables epoch_tables() const;

  Controller* controller_;
  Mode mode_;
  int tag_bits_;
  HeaderSpace space_;
  PathTable full_table_;  // kFullRebuild mode storage
  std::unique_ptr<IncrementalUpdater> updater_;
  bool synced_ = false;
  bool dirty_ = false;

  // Failsafe state (see set_publish_fault).
  std::function<bool()> publish_fault_;
  bool in_failsafe_ = false;
  std::uint64_t failsafe_events_ = 0;
  std::vector<RuleEvent> deferred_;  ///< kIncremental events queued while wedged

  // Epoch state.
  bool epoch_checking_ = false;
  std::size_t ring_capacity_ = 8;
  std::uint32_t grace_window_ = 64;
  std::uint32_t epoch_ = 0;
  std::uint32_t table_valid_from_ = 0;
  std::uint32_t dirty_from_ = 0;  ///< epoch of the first event since clean
  std::deque<Snapshot> ring_;     ///< newest first
  /// Cached non-owning view of `ring_` (refreshed on rebuild) so each
  /// verify() builds its EpochTables without allocating.
  std::vector<EpochTables::Range> ring_view_;
  /// Duplicate-report fast path. Valid only for the current epoch state:
  /// cleared on every rebuild AND on every in-place incremental update
  /// (kIncremental mutates the table without a rebuild).
  VerifyMemo memo_;

  // Health counters.
  std::uint64_t verified_ = 0;
  std::uint64_t passed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t stale_ = 0;
};

}  // namespace veridp
