// Multi-threaded verification server — the paper closes §6.4 with "the
// verification is still single-threaded without optimization, we expect
// a higher throughput with multi-threading in the future"; this is that
// future. Architecture (DESIGN.md §6):
//
//   producers ──► shard-affine lanes: lane = sw % workers
//   (any thread)  each lane, under its one lock: {Intake, bounded queue}
//                                                │ batch dequeue by the
//                                                │ OWNING worker; idle
//                                                │ workers steal batches
//                                                ▼
//                             N workers, each: load snapshot (atomic
//                             shared_ptr), verify_epoch_aware_batch per
//                             batch, per-worker counters + profiler slot,
//                             the batch's mismatches appended to the
//                             retained failures (take_failures)
//
// Shard-affine dispatch (the fix for the flat PR-3 scaling curve): the
// old pipeline funneled every producer and every worker through ONE
// shared queue — one mutex and one condvar bouncing between all cores,
// so adding workers added contention instead of throughput. Reports are
// now routed by switch to per-worker lanes. A lane is one lock guarding
// its Intake (admission.hpp: the dedup trackers, admission decision and
// intake counters the sequential ReportIngest runs too) and its bounded
// queue, so a submit is one critical section — dedup, admission against
// the exact queue depth, push — and a lane is touched only by the
// producers of its switches and by its owning worker: on the hot path
// no lock and no counter cacheline is shared across workers. Skewed
// switch distributions (one hot switch would starve N-1 workers) are
// handled by bounded work-stealing at dequeue: a worker whose own lane
// is dry releases it, then raids the deepest sibling lane for one batch
// under that sibling's lock (a thread never holds two lane locks at
// once). Verification itself is stateless across lanes (immutable
// snapshot + per-worker memo), so a stolen report's verdict is
// bit-identical wherever it lands; dedup stays exact because it is
// decided at lane admission, before any steal can move the report.
//
// Snapshot publication (RCU-style): the control plane is an owned
// kFullRebuild Server — the one rule-event → snapshot state machine,
// shared with the sequential stack — and publish() republishes that
// server's immutable EpochSnapshot (verifier.hpp) through an atomic
// shared_ptr swap. Readers take no lock — they load the pointer once per
// batch and verify against frozen state; the owned server builds the
// *next* table in a **fresh BDD arena**, so table construction never
// mutates nodes a reader is evaluating, then the pointer is swapped. Old
// snapshots stay alive until the last in-flight batch drops its
// reference. Epoch-stale reports verify against the table of the epoch
// they were stamped under, without locking the hot path.
//
// Equivalence guarantee: verification classification is the shared
// verify_epoch_aware (verifier.hpp) — the same function the sequential
// Server runs — so the lanes' merged verdict totals (health()) are
// bit-identical to a sequential Server fed the same reports under the
// same epoch history. The stress tests and the fuzz campaign's oracle
// assert this exactly.
//
// Observability: every worker owns a ScalProfiler slot (queue-wait,
// lock, snapshot-load, memo and steal counters — common/scal_profiler
// .hpp); the bench dumps the attribution into BENCH_parallel_verify
// .json so a future flat curve names the shared state responsible.
//
// Threading contract (machine-checked where expressible — DESIGN.md §8:
// lane state and the failure buffer carry GUARDED_BY annotations
// enforced by the clang-strict preset; the owned control-plane Server
// and the lock-free snapshot pointer are the two documented-only
// exceptions, covered by the TSan suites):
//   * control-plane side (ctor, sync, publish, rule events via the
//     controller, take_failures) — ONE thread;
//   * data-plane side (submit, submit_datagram) — any number of
//     producer threads, concurrently with workers and with publish();
//   * health(), in_failsafe(), failsafe_events() — any thread; they
//     merge per-lane/per-worker counters and the owned server's relaxed
//     failsafe and publication counters.
//
// It owns a kFullRebuild Server: kIncremental mutates its table in
// place, which is incompatible with lock-free snapshot readers (the
// sequential Server keeps the grace-window rule for that mode).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/scal_profiler.hpp"
#include "common/thread_annotations.hpp"
#include "controller/controller.hpp"
#include "veridp/admission.hpp"
#include "veridp/server.hpp"
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
  /// batched kernel call per dequeue). 0 = autotuned_batch_size(), the
  /// chunk the sequential ReportIngest always verifies in.
  std::size_t batch_size = 32;
  std::size_t dedup_window = 4096;   ///< remembered seqs per switch
  std::size_t failure_keep = 256;    ///< mismatched reports retained
};

/// perfbench/e2e.cc still names the parallel ledger by its old name.
using ParallelHealth = IngestHealth;

class ParallelServer {
 public:
  /// Owns a kFullRebuild Server over `controller` (controller must
  /// outlive the server and mutate only from the control thread). Throws
  /// std::invalid_argument on the bounds validate_admission rejects
  /// (admission.hpp — the sequential ingest accepts the same configs)
  /// and if cfg.queue_capacity < worker_count().
  explicit ParallelServer(Controller& controller, ParallelConfig cfg = {},
                          int tag_bits = BloomTag::kDefaultBits);
  ~ParallelServer();
  ParallelServer(const ParallelServer&) = delete;
  ParallelServer& operator=(const ParallelServer&) = delete;

  /// Server::enable_epoch_checking on the owned server: retire up to
  /// `snapshot_ring` superseded tables and judge uncovered recent epochs
  /// with the grace-window rule. Call before sync().
  void enable_epoch_checking(std::size_t snapshot_ring = 8,
                             std::uint32_t grace_window = 64) {
    server_.enable_epoch_checking(snapshot_ring, grace_window);
  }

  /// Builds and publishes the first snapshot.
  void sync();

  /// Brings the owned server up to date (its lazy rebuild, a no-op
  /// without rule events since the last one) and publishes its snapshot.
  /// Safe while workers run — that is the point. The failsafe rule is
  /// Server::ensure_fresh's: a wedged publisher with events pending keeps
  /// the last published snapshot serving and engages the failsafe
  /// (failsafe_events bumps once per wedge); the next successful
  /// rebuild clears it.
  void publish();

  /// Fault-injection hook of the owned server (Server::set_publish_fault):
  /// while it returns true publish() builds nothing and the last
  /// published snapshot keeps serving. Control thread only.
  void set_publish_fault(std::function<bool()> fault) {
    server_.set_publish_fault(std::move(fault));
  }
  /// True while publish() is serving the last published snapshot
  /// because the publisher is wedged behind pending rule events.
  [[nodiscard]] bool in_failsafe() const { return server_.in_failsafe(); }
  [[nodiscard]] std::uint64_t failsafe_events() const {
    return server_.failsafe_events();
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

  /// Launches the worker pool: exactly worker_count() threads.
  void start();
  /// Offers one decoded report: dedup → admission → lane queue, all
  /// under the lane's lock. Returns true iff enqueued for verification;
  /// a submit after stop() is counted shed. Thread-safe.
  bool submit(const TagReport& report);
  /// Offers one encoded datagram (decode failures count as quarantined).
  bool submit_datagram(const std::vector<std::uint8_t>& datagram);
  /// Blocks until every submitted report has been verified and its
  /// mismatch, if any, retained for take_failures(). Producers must be
  /// quiescent.
  void drain();
  /// drain() + joins the pool. Idempotent; start() may be called again.
  void stop();

  [[nodiscard]] IngestHealth health() const;

  /// Drains the retained mismatches, oldest first: the most recent
  /// failure_keep across every worker. They are the inputs for
  /// Algorithm 4 (Server::localize). Control thread only.
  std::vector<TagReport> take_failures() EXCLUDES(failures_mu_);

  [[nodiscard]] std::shared_ptr<const EpochSnapshot> snapshot() const {
    return snap_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t epoch() const { return server_.epoch(); }
  [[nodiscard]] bool epoch_checking() const {
    return server_.epoch_checking();
  }
  /// Total undispatched reports across all lanes.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] bool running() const { return !workers_.empty(); }
  [[nodiscard]] unsigned worker_count() const;
  [[nodiscard]] int tag_bits() const { return server_.tag_bits(); }

  /// Per-worker stall/steal/memo attribution (one slot per worker).
  /// Counters accumulate across start/stop cycles; reset via
  /// profiler().reset() while the pool is stopped.
  [[nodiscard]] const ScalProfiler& profiler() const { return prof_; }
  [[nodiscard]] ScalProfiler& profiler() { return prof_; }

  /// Cumulative task_done over-reports across every lane. Always 0
  /// unless a worker double-accounts a batch (debug builds abort on it
  /// instead); the lifecycle tests assert it stays 0.
  [[nodiscard]] std::uint64_t queue_over_reported() const;

 private:
  friend struct ParallelServerTestPeer;  ///< drives a Lane directly

  /// Per-worker verdict counters, cacheline-separated so workers never
  /// share a line; merged (relaxed loads) by health().
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> verified{0};
    std::atomic<std::uint64_t> passed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> stale{0};
    std::atomic<std::uint64_t> memo_hits{0};
  };

  /// One shard-affine dispatch lane: the Intake of the switches routed
  /// here and the bounded queue of admitted reports its owning worker
  /// dequeues from, with the completion count drain() waits on. One
  /// lock guards all of it: producers, the owner and thieves serialize
  /// on `mu`, and the clang-strict build rejects any access outside a
  /// MutexLock(lane.mu) scope. A thread never holds two lane locks at
  /// once (DESIGN.md §8.1).
  struct alignas(64) Lane {
    Lane(std::size_t capacity, std::size_t dedup_window)
        : intake(capacity, dedup_window) {}

    /// Moves up to `max` queued reports into `out` (cleared first).
    std::size_t pop(std::vector<TagReport>& out, std::size_t max)
        REQUIRES(mu);
    /// pop() after waiting up to `timeout` for a push while the lane is
    /// open and empty; a lane with work, or a closed one, pops at once.
    std::size_t pop_for(std::vector<TagReport>& out, std::size_t max,
                        std::chrono::microseconds timeout) EXCLUDES(mu);
    /// Marks `n` popped reports as verified. Completions beyond the
    /// outstanding count are a worker accounting bug: debug builds
    /// abort, every build records the excess in `over_reported`
    /// instead of silently clamping (a drain() released by inflated
    /// completions would return with work still in flight).
    void task_done(std::size_t n) EXCLUDES(mu);
    /// stop(): later submits are shed, and parked pops return at once.
    void close() EXCLUDES(mu);
    /// start(): re-arms a closed lane.
    void open() EXCLUDES(mu);

    mutable Mutex mu;
    CondVar not_empty;  ///< a push, or close
    CondVar idle;       ///< unfinished reached 0
    Intake intake GUARDED_BY(mu);
    std::deque<TagReport> q GUARDED_BY(mu);
    std::size_t unfinished GUARDED_BY(mu) = 0;  ///< pushed, not task_done
    std::uint64_t over_reported GUARDED_BY(mu) = 0;
    bool closed GUARDED_BY(mu) = false;  ///< stop() to start()
  };

  Lane& lane_for(SwitchId sw) {
    return *lanes_[static_cast<std::size_t>(sw) % lanes_.size()];
  }
  /// Deepest non-empty sibling lane, or nullptr. Locks each sibling in
  /// turn for its depth; only taken when the worker's own lane ran dry
  /// and its lock is released.
  Lane* pick_victim(std::size_t own);
  [[nodiscard]] bool all_lanes_drained() const;
  void worker_loop(unsigned idx);

  ParallelConfig cfg_;
  std::size_t lane_watermark_ = 0;  ///< per-lane shedding threshold

  // Control plane (single control thread) and its last snapshot,
  // republished for the workers to read lock-free.
  Server server_;
  std::atomic<std::shared_ptr<const EpochSnapshot>> snap_;

  // Admission commands (control thread writes, submit() reads).
  std::atomic<bool> governed_{false};
  std::atomic<std::uint8_t> regime_{0};
  std::atomic<std::uint32_t> shed_modulus_;  ///< last commanded, or cfg's
  std::atomic<std::uint64_t> regime_transitions_{0};

  // Data-plane pipeline: one lane, one stats slot and one profiler slot
  // per worker, all sized in the constructor so health() never races
  // start().
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<WorkerStats> worker_stats_;
  std::vector<std::thread> workers_;
  ScalProfiler prof_;

  // Retained mismatches (cold path). Workers take the lock once per
  // batch that failed, holding no other lock.
  mutable Mutex failures_mu_;
  std::deque<TagReport> failures_ GUARDED_BY(failures_mu_);
};

}  // namespace veridp
