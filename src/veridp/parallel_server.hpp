// Multi-threaded verification server — the paper closes §6.4 with "the
// verification is still single-threaded without optimization, we expect
// a higher throughput with multi-threading in the future"; this is that
// future. Architecture (DESIGN.md §6):
//
//   producers ──► shard-affine lanes: lane = (sw % shards) % workers
//   (any thread)  each lane: {dedup trackers + counters, bounded queue}
//                                                │ batch dequeue by the
//                                                │ OWNING worker; idle
//                                                │ workers steal batches
//                                                ▼
//                             N workers, each: load snapshot (atomic
//                             shared_ptr), verify_epoch_aware per report,
//                             per-worker counters + profiler slot
//                                                │ mismatches
//                                                ▼
//                             single-consumer localization stage
//
// Shard-affine dispatch (the fix for the flat PR-3 scaling curve): the
// old pipeline funneled every producer and every worker through ONE
// BoundedMpmcQueue — one mutex and one condvar bouncing between all
// cores, so adding workers added contention instead of throughput.
// Reports are now routed by switch shard to per-worker lanes: a lane's
// dedup trackers, health counters and bounded queue are touched only by
// the producers of that lane's switches and by its owning worker, so on
// the hot path no lock and no counter cacheline is shared across
// workers. Skewed switch distributions (one hot switch would starve
// N-1 workers) are handled by bounded work-stealing at dequeue: a
// worker whose own lane is dry raids the deepest sibling lane for one
// batch. Verification itself is stateless across lanes (immutable
// snapshot + per-worker memo), so a stolen report's verdict is
// bit-identical wherever it lands; dedup stays exact because it is
// decided at lane admission, before any steal can move the report.
//
// Snapshot publication (RCU-style): the path table plus the ring of
// retired tables live in one immutable EpochSnapshot published through
// an atomic shared_ptr swap. Readers take no lock — they load the
// pointer once per batch and verify against frozen state; a concurrent
// publish() builds the *next* snapshot in a **fresh BDD arena** (its own
// HeaderSpace), so table construction never mutates nodes a reader is
// evaluating, then swaps the pointer. Old snapshots stay alive until the
// last in-flight batch drops its reference. This subsumes the sequential
// Server's snapshot ring: epoch-stale reports verify against the table
// of the epoch they were stamped under, without locking the hot path.
//
// Equivalence guarantee: verification classification is the shared
// verify_epoch_aware (verifier.hpp) — the same function the sequential
// Server runs — so verify_stream()'s merged verdict totals are
// bit-identical to a sequential Server fed the same reports under the
// same epoch history. The stress tests assert this exactly.
//
// Observability: every worker owns a ScalProfiler slot (queue-wait,
// lock, snapshot-load, memo and steal counters — common/scal_profiler
// .hpp); the bench dumps the attribution into BENCH_parallel_verify
// .json so a future flat curve names the shared state responsible.
//
// Threading contract (machine-checked where expressible — DESIGN.md §8:
// lane state, failure and quarantine buffers carry GUARDED_BY
// annotations enforced by the clang-strict preset; the single-threaded
// control-plane fields and the lock-free snapshot pointer are the two
// documented-only exceptions, covered by the TSan suites):
//   * control-plane side (ctor, sync, publish, rule events via the
//     controller, localize, take_failures) — ONE thread;
//   * data-plane side (submit, submit_datagram) — any number of
//     producer threads, concurrently with workers and with publish();
//   * health() — any thread, merges per-lane/per-worker counters.
//
// Only Server::Mode::kFullRebuild semantics are supported: kIncremental
// mutates its table in place, which is incompatible with lock-free
// snapshot readers (the sequential Server keeps the grace-window rule
// for that mode).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/scal_profiler.hpp"
#include "common/thread_annotations.hpp"
#include "controller/controller.hpp"
#include "veridp/admission.hpp"
#include "veridp/localizer.hpp"
#include "veridp/mpmc_queue.hpp"
#include "veridp/seq_tracker.hpp"
#include "veridp/verifier.hpp"

namespace veridp {

struct ParallelConfig {
  unsigned workers = 0;              ///< 0 = hardware_concurrency
  std::size_t queue_capacity = 4096; ///< hard bound, split across lanes
  std::size_t high_watermark = 3072; ///< shedding starts above this (split)
  std::uint32_t shed_modulus = 4;    ///< keep seq % modulus == 0 when shedding
  /// Reports per worker dequeue — also the lane count handed to
  /// verify_epoch_aware_batch per snapshot load (one RCU read and one
  /// batched kernel call per dequeue). 0 = autotuned_batch_size(), as
  /// IngestConfig::batch_size.
  std::size_t batch_size = 32;
  std::size_t shards = 16;           ///< switch-affinity granularity
  std::size_t dedup_window = 4096;   ///< remembered seqs per switch
  std::size_t failure_keep = 256;    ///< mismatched reports retained
  std::size_t quarantine_keep = 16;  ///< malformed payloads retained
  std::size_t steal_threshold = 1;   ///< min victim depth worth stealing
  std::uint32_t idle_backoff_us = 200;  ///< idle sleep between steal scans
};

/// Merged health counters (the parallel analogue of IngestHealth).
/// Conservation law — every submitted report sits in exactly one
/// terminal bucket or is still queued:
///
///   received == passed + failed + stale + shed + quarantined + deduped
///               + in_queue
///
/// and within the verified portion:
///
///   verified  == passed + failed + stale
///   memo_hits <= verified
///
/// memo_hits is deliberately NOT a seventh bucket: a report answered
/// from the per-worker verify memo IS verified — the memo returns a
/// verdict bit-identical to recomputation, and that verdict is counted
/// in passed/failed/stale like any other. memo_hits records how many of
/// the verified reports took the memo fast path. accounted() is the
/// terminal-bucket sum of the first law; conserved() checks all three
/// relations (the invariant the stress tests assert).
struct ParallelHealth {
  std::uint64_t received = 0;
  std::uint64_t verified = 0;  ///< == passed + failed + stale
  std::uint64_t passed = 0;
  std::uint64_t failed = 0;
  std::uint64_t stale = 0;
  std::uint64_t shed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t deduped = 0;
  std::uint64_t lost_estimate = 0;
  std::uint64_t memo_hits = 0;  ///< verified via the memo fast path
  std::uint64_t in_queue = 0;   ///< admitted, not yet verified
  AdmissionRegime regime = AdmissionRegime::kNormal;  ///< commanded regime
  std::uint64_t regime_transitions = 0;  ///< edge-triggered changes applied
  std::uint64_t failsafe_events = 0;     ///< watchdog failovers (loud)
  std::uint64_t snapshot_flips = 0;      ///< A/B slot publications

  [[nodiscard]] std::uint64_t accounted() const {
    return passed + failed + stale + shed + quarantined + deduped;
  }
  /// Exact whenever no worker is mid-batch (before start(), after
  /// drain()/stop(), or with producers and workers quiescent): between a
  /// worker popping a batch and counting its verdicts the reports are in
  /// neither bucket, so a mid-flight snapshot may transiently violate
  /// the law — the sequential IngestHealth::conserved() is the
  /// any-time-exact variant.
  [[nodiscard]] bool conserved() const {
    return accounted() + in_queue == received &&
           verified == passed + failed + stale && memo_hits <= verified;
  }
};

/// One immutable published unit: the current table, the retired ring and
/// the epoch bookkeeping verify_epoch_aware needs. Never mutated after
/// publication; destroyed when the last reader drops its shared_ptr.
///
/// Lifecycle discipline (checked builds, DESIGN.md §12): the snapshot
/// registers a lockdep lifecycle generation at construction; the
/// failsafe watchdog retires the generation of the slot it abandons,
/// and view() aborts on a retired or destroyed generation — the
/// arena-generation trick of §8.3 applied to snapshots. The contract
/// it enforces: a snapshot handle is used within one batch under a
/// live shared_ptr pin and never across a failsafe flip.
struct EpochSnapshot {
  std::uint32_t epoch = 0;
  std::uint32_t table_valid_from = 0;
  /// Last epoch the snapshot's current table definitively covers —
  /// the epoch at publication. Reports stamped beyond it (rule events
  /// the publisher has not absorbed, e.g. while wedged in failsafe) fall
  /// under verify_epoch_aware's ahead-of-table rule: pass-conclusive,
  /// mismatch → kStaleEpoch, never a false positive.
  std::uint32_t table_valid_to = UINT32_MAX;
  std::uint32_t grace_window = 64;
  bool epoch_checking = false;
  std::shared_ptr<const PathTable> current;
  /// Retired tables kept alive for the ring (newest first, parallel to
  /// `ranges`).
  std::vector<std::shared_ptr<const PathTable>> retained;
  std::vector<EpochTables::Range> ranges;
  /// Lifecycle generation: 0 in release builds (check() passes), a
  /// fresh registry entry in checked builds. The field itself is
  /// unconditional so checked and plain TUs agree on the layout.
  std::uint64_t lifecycle_gen = lockdep::snapshot::register_gen();

  EpochSnapshot() = default;
  EpochSnapshot(const EpochSnapshot&) = delete;
  EpochSnapshot& operator=(const EpochSnapshot&) = delete;
  ~EpochSnapshot() { lockdep::snapshot::unregister(lifecycle_gen); }

  [[nodiscard]] EpochTables view() const;
};

class ParallelServer {
 public:
  /// Verdict totals of one verify_stream call. Bit-identical to the
  /// pass/fail/stale counters a sequential Server accumulates over the
  /// same reports.
  struct StreamTotals {
    std::uint64_t verified = 0;
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    std::uint64_t stale = 0;
  };

  /// Subscribes to `controller`'s rule events (controller must outlive
  /// the server and mutate only from the control thread).
  explicit ParallelServer(Controller& controller, ParallelConfig cfg = {},
                          int tag_bits = BloomTag::kDefaultBits);
  ~ParallelServer();
  ParallelServer(const ParallelServer&) = delete;
  ParallelServer& operator=(const ParallelServer&) = delete;

  /// Same opt-in as Server::enable_epoch_checking: retire up to
  /// `snapshot_ring` superseded tables and judge uncovered recent epochs
  /// with the grace-window rule. Call before sync().
  void enable_epoch_checking(std::size_t snapshot_ring = 8,
                             std::uint32_t grace_window = 64);

  /// Builds and publishes the first snapshot.
  void sync();

  /// Publishes a fresh snapshot if rule events arrived since the last
  /// one (lazy, like Server's dirty rebuild). Safe while workers run —
  /// that is the point. Declines (keeps serving the active slot) while
  /// the publisher fault hook is wedged — the heartbeat watchdog, not
  /// publish(), decides when that becomes a failsafe event.
  void publish();

  // -- Publisher heartbeat + A/B failsafe -----------------------------------
  /// Fault-injection hook: while it returns true the snapshot publisher
  /// is wedged — publish()/heartbeat() build nothing and the active A/B
  /// slot keeps serving. Control thread only.
  void set_publish_fault(std::function<bool()> fault) {
    publish_fault_ = std::move(fault);
  }
  /// One publisher heartbeat (control thread, once per control tick).
  /// Pending rule events are published (built into the inactive A/B
  /// slot, then flipped) unless the publisher is wedged; a publisher
  /// that stays wedged for `deadline_ticks` consecutive heartbeats
  /// trips the watchdog: the abandoned inactive slot is dropped, the
  /// last-good active slot is re-asserted as the served snapshot, and
  /// failsafe_events is bumped (edge-triggered, loud). Recovery is
  /// automatic — the first un-wedged heartbeat with pending events
  /// publishes and clears the failsafe. Returns in_failsafe().
  bool heartbeat(std::uint64_t deadline_ticks = 3);
  /// True while the watchdog is serving the last-good slot because the
  /// publisher missed its heartbeat deadline with events pending.
  [[nodiscard]] bool in_failsafe() const {
    // veridp-lint: allow(relaxed-atomic, advisory status poll; no data guarded by it)
    return in_failsafe_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failsafe_events() const {
    // veridp-lint: allow(relaxed-atomic, monitoring counter; exactness not ordering)
    return failsafe_events_.load(std::memory_order_relaxed);
  }

  /// Hands admission over to a control loop (IngestGovernor / the
  /// operator): the commanded regime's declared policy (admission.hpp)
  /// replaces the fixed per-lane watermark — kNormal admits up to the
  /// lane bound, kSoft keeps the deterministic seq % modulus sample,
  /// kHard admits nothing. Edge-triggered transition counting. Control
  /// thread writes; submit() reads the commands with relaxed atomics
  /// (a report raced with a regime flip lands under either policy,
  /// both of which conserve).
  void govern(AdmissionRegime regime, std::uint32_t shed_modulus);
  [[nodiscard]] bool governed() const {
    // veridp-lint: allow(relaxed-atomic, advisory admission knob; each read stands alone)
    return governed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] AdmissionRegime regime() const {
    // veridp-lint: allow(relaxed-atomic, advisory admission knob; each read stands alone)
    return static_cast<AdmissionRegime>(
        regime_.load(std::memory_order_relaxed));
  }

  /// Verifies `reports` across `workers` threads (0 = configured count)
  /// against the currently published snapshot and returns merged totals.
  /// Bypasses ingest (no dedup/shedding) — this is the pure verification
  /// fan-out; its totals match a sequential Server::verify loop exactly.
  StreamTotals verify_stream(const std::vector<TagReport>& reports,
                             unsigned workers = 0);

  // -- Streaming mode -------------------------------------------------------
  /// Launches the worker pool and the localization-stage consumer.
  void start();
  /// Offers one decoded report: lane-affine dedup → shed check → lane
  /// queue. Returns true iff enqueued for verification. Thread-safe.
  bool submit(const TagReport& report);
  /// Offers one encoded datagram (decode failures are quarantined).
  bool submit_datagram(const std::vector<std::uint8_t>& datagram)
      EXCLUDES(quarantine_mu_);
  /// Blocks until every submitted report has been verified and every
  /// mismatch has cleared the localization stage. Producers must be
  /// quiescent.
  void drain();
  /// drain() + joins the pool. Idempotent; start() may be called again.
  void stop();

  [[nodiscard]] ParallelHealth health() const;

  /// Drains the mismatches the localization stage retained (bounded by
  /// failure_keep). Control thread only.
  std::vector<TagReport> take_failures() EXCLUDES(failures_mu_);

  /// Runs Algorithm 4 for a failed report against the controller's
  /// *current* logical config. Control thread only, config quiescent.
  [[nodiscard]] LocalizeResult localize(const TagReport& report) const;

  [[nodiscard]] std::shared_ptr<const EpochSnapshot> snapshot() const {
    return snap_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] bool epoch_checking() const { return epoch_checking_; }
  [[nodiscard]] std::uint64_t snapshots_published() const {
    // veridp-lint: allow(relaxed-atomic, monitoring counter; exactness not ordering)
    return published_.load(std::memory_order_relaxed);
  }
  /// Total undispatched reports across all lanes.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] bool running() const { return !workers_.empty(); }
  [[nodiscard]] unsigned worker_count() const;
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  [[nodiscard]] int tag_bits() const { return tag_bits_; }

  /// Per-worker stall/steal/memo attribution (one slot per worker).
  /// Counters accumulate across start/stop cycles; reset via
  /// profiler().reset() while the pool is stopped.
  [[nodiscard]] const ScalProfiler& profiler() const { return prof_; }
  [[nodiscard]] ScalProfiler& profiler() { return prof_; }

  /// Cumulative task_done over-reports across every lane queue and the
  /// failure queue. Always 0 unless a consumer double-accounts; the
  /// lifecycle tests assert it stays 0.
  [[nodiscard]] std::uint64_t queue_over_reported() const;

 private:
  /// Per-worker verdict counters, cacheline-separated so workers never
  /// share a line; merged (relaxed loads) by health().
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> verified{0};
    std::atomic<std::uint64_t> passed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> stale{0};
    std::atomic<std::uint64_t> memo_hits{0};
  };

  /// One shard-affine dispatch lane: the per-switch dedup trackers and
  /// ingest counters for the switches routed here, plus the bounded
  /// queue its owning worker dequeues from. Producers for different
  /// lanes share nothing; producers for the same lane serialize on
  /// `mu` exactly like the old per-switch shards did — every mutable
  /// ingest member is GUARDED_BY(mu) and the clang-strict build rejects
  /// any access outside a MutexLock(lane.mu) scope. The queue carries
  /// its own internal synchronization (it must: thieves bypass `mu`).
  struct alignas(64) Lane {
    explicit Lane(std::size_t capacity) : q(capacity) {}
    // Lock class + declared order (DESIGN.md §12): lane admission is
    // the outermost ingest lock — it may be held while touching the
    // lane's queue or the quarantine buffer, never the reverse.
    // ACQUIRED_BEFORE("BoundedMpmcQueue::mu")
    // ACQUIRED_BEFORE("ParallelServer::quarantine_mu")
    mutable Mutex mu{"ParallelServer::Lane::mu"};
    std::unordered_map<SwitchId, SeqTracker> seq GUARDED_BY(mu);
    std::uint64_t received GUARDED_BY(mu) = 0;
    std::uint64_t deduped GUARDED_BY(mu) = 0;
    std::uint64_t shed GUARDED_BY(mu) = 0;
    std::uint64_t quarantined GUARDED_BY(mu) = 0;
    BoundedMpmcQueue<TagReport> q;
  };

  void on_rule_event(const RuleEvent& ev);
  void rebuild_snapshot();
  [[nodiscard]] bool publisher_wedged() const {
    return publish_fault_ && publish_fault_();
  }
  Lane& lane_for(SwitchId sw) {
    const std::size_t shard = static_cast<std::size_t>(sw) % shards_;
    return *lanes_[shard % lanes_.size()];
  }
  void count_shed(Lane& lane);
  /// Deepest sibling lane with at least steal_threshold queued reports,
  /// or nullptr. O(lanes) advisory size reads — only taken when the
  /// worker's own lane ran dry.
  Lane* pick_victim(std::size_t own);
  [[nodiscard]] bool all_lanes_drained() const;
  void worker_loop(unsigned idx);
  void failure_loop();

  Controller* controller_;
  ParallelConfig cfg_;
  int tag_bits_;
  std::size_t shards_ = 16;         ///< affinity modulus (>= 1)
  std::size_t lane_capacity_ = 0;   ///< per-lane hard bound
  std::size_t lane_watermark_ = 0;  ///< per-lane shedding threshold

  // Control-plane state (single control thread).
  bool synced_ = false;
  bool dirty_ = false;
  bool epoch_checking_ = false;
  std::size_t ring_capacity_ = 8;
  std::uint32_t grace_window_ = 64;
  std::uint32_t epoch_ = 0;
  std::uint32_t dirty_from_ = 0;  ///< epoch of the first event since clean

  // Published state (read lock-free by workers).
  std::atomic<std::shared_ptr<const EpochSnapshot>> snap_;
  std::atomic<std::uint64_t> published_{0};

  // A/B publication slots (control thread only; `snap_` is the reader-
  // visible pointer). The publisher builds into the inactive slot and
  // flips by storing it to snap_; the active slot pins the last
  // successfully published snapshot so the watchdog always has a
  // known-good unit to fail over to, whatever state a wedged build
  // left the other slot in.
  std::shared_ptr<const EpochSnapshot> slots_[2];
  unsigned active_slot_ = 0;
  std::function<bool()> publish_fault_;
  std::uint64_t missed_heartbeats_ = 0;
  std::atomic<bool> in_failsafe_{false};
  std::atomic<std::uint64_t> failsafe_events_{0};

  // Admission commands (control thread writes, submit() reads).
  std::atomic<bool> governed_{false};
  std::atomic<std::uint8_t> regime_{0};
  std::atomic<std::uint32_t> governed_modulus_{1};
  std::atomic<std::uint64_t> regime_transitions_{0};

  // Data-plane pipeline.
  std::vector<std::unique_ptr<Lane>> lanes_;
  BoundedMpmcQueue<TagReport> failure_queue_;
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  std::vector<std::thread> workers_;
  std::thread failure_consumer_;
  ScalProfiler prof_;

  // Localization-stage output + quarantine (cold paths, mutex-guarded).
  // Declared order: if both buffers are ever locked together, failures
  // first — the ACQUIRED_BEFORE attribute makes the hierarchy visible
  // to clang's beta analysis and to tools/lock_order_extract.py.
  mutable Mutex failures_mu_ ACQUIRED_BEFORE(quarantine_mu_){
      "ParallelServer::failures_mu"};
  std::deque<TagReport> failures_ GUARDED_BY(failures_mu_);
  mutable Mutex quarantine_mu_{"ParallelServer::quarantine_mu"};
  std::deque<std::vector<std::uint8_t>> quarantine_
      GUARDED_BY(quarantine_mu_);
};

}  // namespace veridp
