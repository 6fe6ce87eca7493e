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
// retired tables live in one immutable EpochSnapshot (verifier.hpp, the
// snapshot model the sequential Server shares) published through an
// atomic shared_ptr swap. Readers take no lock — they load the
// pointer once per batch and verify against frozen state; a concurrent
// publish() builds the *next* snapshot in a **fresh BDD arena** (its own
// HeaderSpace), so table construction never mutates nodes a reader is
// evaluating, then swaps the pointer. Old snapshots stay alive until the
// last in-flight batch drops its reference. Epoch-stale reports verify
// against the table of the epoch they were stamped under, without
// locking the hot path.
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
  /// Hard bound, split evenly across the lanes (one per worker); must be
  /// at least the worker count, or a lane could not hold one report
  /// without breaking the total.
  std::size_t queue_capacity = 4096;
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

/// perfbench/e2e.cc still names the parallel ledger by its old name.
using ParallelHealth = IngestHealth;

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
  /// the server and mutate only from the control thread). Throws
  /// std::invalid_argument if cfg.queue_capacity < worker_count().
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
  /// kHard admits nothing. A modulus of 0 keeps the last commanded one
  /// (else the configured one), as ReportIngest::govern does.
  /// Edge-triggered transition counting. Control
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

  [[nodiscard]] IngestHealth health() const;

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
  [[nodiscard]] bool epoch_checking() const { return epochs_.checking; }
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
  EpochPolicy epochs_;
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
  std::atomic<std::uint32_t> shed_modulus_;  ///< last commanded, or cfg's
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
