#include "veridp/parallel_server.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "dataplane/wire.hpp"
#include "veridp/report_batch.hpp"

namespace veridp {

namespace {

// The stat-counter fast paths below deliberately use relaxed atomics:
// every counter is either single-writer (per-worker slots) or a
// commutative increment, no reader infers cross-variable ordering from
// them, and health() documents its merged numbers as advisory while
// workers run. The helpers centralize the justification the
// relaxed-atomic lint rule demands (DESIGN.md §8.2).
template <typename T>
// veridp-lint: allow(relaxed-atomic, commutative counter increment; no ordering carried)
inline void bump_relaxed(std::atomic<T>& c, T n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

template <typename T>
// veridp-lint: allow(relaxed-atomic, advisory read of an independent counter/flag)
inline T read_relaxed(const std::atomic<T>& c) {
  return c.load(std::memory_order_relaxed);
}

/// A worker with nothing to do anywhere parks on its own lane this long
/// before rescanning its siblings for work to steal.
constexpr std::chrono::microseconds kIdleBackoff{200};

}  // namespace

ParallelServer::ParallelServer(Controller& controller, ParallelConfig cfg,
                               int tag_bits)
    : cfg_(cfg),
      server_(controller, Server::Mode::kFullRebuild, tag_bits),
      worker_stats_(worker_count()),
      prof_(worker_count()) {
  validate_admission(cfg_.queue_capacity, cfg_.high_watermark,
                     cfg_.shed_modulus);
  // One lane per worker; the global bounds split evenly so total queued
  // work stays capped at queue_capacity whatever the lane count.
  const std::size_t nlanes = worker_count();
  if (cfg_.queue_capacity < nlanes)
    throw std::invalid_argument(
        "ParallelConfig: queue_capacity must be at least the worker count "
        "(each lane needs room for one report)");
  shed_modulus_.store(cfg_.shed_modulus);
  cfg_.batch_size = resolve_batch_size(cfg_.batch_size);
  const std::size_t lane_capacity = cfg_.queue_capacity / nlanes;
  lane_watermark_ = cfg_.high_watermark / nlanes;  // <= lane_capacity
  lanes_.reserve(nlanes);
  for (std::size_t i = 0; i < nlanes; ++i)
    lanes_.push_back(
        std::make_unique<Lane>(lane_capacity, cfg_.dedup_window));
}

ParallelServer::~ParallelServer() { stop(); }

void ParallelServer::sync() {
  server_.sync();
  publish();
}

void ParallelServer::publish() {
  (void)server_.table();  // ensure_fresh: rebuild, or failsafe if wedged
  snap_.store(server_.snapshot(), std::memory_order_release);
}

void ParallelServer::govern(AdmissionRegime regime,
                            std::uint32_t shed_modulus) {
  // veridp-lint: allow(relaxed-atomic, advisory admission knobs; each read stands alone)
  governed_.store(true, std::memory_order_relaxed);
  if (shed_modulus != 0)
    // veridp-lint: allow(relaxed-atomic, advisory admission knobs; each read stands alone)
    shed_modulus_.store(shed_modulus, std::memory_order_relaxed);
  const auto next = static_cast<std::uint8_t>(regime);
  // veridp-lint: allow(relaxed-atomic, advisory admission knobs; each read stands alone)
  if (regime_.exchange(next, std::memory_order_relaxed) != next)
    bump_relaxed(regime_transitions_);
}

unsigned ParallelServer::worker_count() const {
  if (cfg_.workers) return cfg_.workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

void ParallelServer::start() {
  if (running()) return;
  if (!snapshot()) sync();
  for (const auto& lane : lanes_) lane->open();
  const unsigned n = worker_count();
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

bool ParallelServer::submit(const TagReport& report) {
  Lane& lane = lane_for(report.outport.sw);
  {
    MutexLock lk(lane.mu);
    const std::size_t depth = lane.q.size();
    const AdmissionRegime regime =
        read_relaxed(governed_)
            ? static_cast<AdmissionRegime>(read_relaxed(regime_))
            : watermark_regime(depth, lane_watermark_);
    // A stopped lane admits nothing: the report is still deduplicated,
    // then counted shed.
    const AdmissionPolicy policy = lane.closed
                                       ? AdmissionPolicy::kQuarantineOnly
                                       : policy_for(regime);
    if (!lane.intake.offer(report.outport.sw, report.seq, policy, depth,
                           read_relaxed(shed_modulus_)))
      return false;
    lane.q.push_back(report);
    ++lane.unfinished;
  }
  lane.not_empty.notify_one();
  return true;
}

bool ParallelServer::submit_datagram(
    const std::vector<std::uint8_t>& datagram) {
  const auto report = wire::decode_report(datagram);
  if (report) return submit(*report);
  Lane& lane = *lanes_.front();  // malformed payloads name no switch
  MutexLock lk(lane.mu);
  lane.intake.quarantine();
  return false;
}

std::size_t ParallelServer::Lane::pop(std::vector<TagReport>& out,
                                      std::size_t max) {
  out.clear();
  const std::size_t n = std::min(q.size(), max);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(q.front()));
    q.pop_front();
  }
  return n;
}

std::size_t ParallelServer::Lane::pop_for(std::vector<TagReport>& out,
                                          std::size_t max,
                                          std::chrono::microseconds timeout) {
  MutexLock lk(mu);
  if (!closed && q.empty()) not_empty.wait_for(lk, timeout);
  return pop(out, max);
}

void ParallelServer::Lane::task_done(std::size_t n) {
  MutexLock lk(mu);
  if (n > unfinished) {
    over_reported += n - unfinished;
    assert(false && "ParallelServer::Lane::task_done over-report");
    unfinished = 0;
  } else {
    unfinished -= n;
  }
  if (unfinished == 0) idle.notify_all();
}

void ParallelServer::Lane::close() {
  {
    MutexLock lk(mu);
    closed = true;
  }
  not_empty.notify_all();
}

void ParallelServer::Lane::open() {
  MutexLock lk(mu);
  closed = false;
}

ParallelServer::Lane* ParallelServer::pick_victim(std::size_t own) {
  Lane* best = nullptr;
  std::size_t best_depth = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (i == own) continue;
    Lane& lane = *lanes_[i];
    MutexLock lk(lane.mu);
    if (lane.q.size() > best_depth) {
      best_depth = lane.q.size();
      best = &lane;
    }
  }
  return best;
}

bool ParallelServer::all_lanes_drained() const {
  for (const auto& lane : lanes_) {
    MutexLock lk(lane->mu);
    if (!lane->closed || !lane->q.empty()) return false;
  }
  return true;
}

void ParallelServer::worker_loop(unsigned idx) {
  using clock = std::chrono::steady_clock;
  WorkerStats& ws = worker_stats_[idx];
  WorkerProfile& wp = prof_.slot(idx);
  Lane& own = *lanes_[idx];
  std::vector<TagReport> batch;
  batch.reserve(cfg_.batch_size);
  std::vector<TagReport> mismatches;  ///< this batch's failed reports
  // Worker-local scratch for the batched verify kernel: the dequeued
  // reports are transposed into SoA lanes once per batch.
  ReportBatch soa;
  soa.reserve(cfg_.batch_size);
  std::vector<Verdict> verdicts(cfg_.batch_size);
  // Per-worker duplicate-report memo (lock-free by construction). It is
  // valid for exactly one snapshot; `held` keeps that snapshot alive so
  // a newly published snapshot can never be allocated at the same
  // address while stale memo entries still reference the old one.
  VerifyMemo memo;
  std::shared_ptr<const EpochSnapshot> held;
  const std::uint64_t cpu0 = thread_cpu_now_ns();
  const auto pop_from = [&batch, this](Lane& lane) {
    MutexLock lk(lane.mu);
    return lane.pop(batch, cfg_.batch_size);
  };
  for (;;) {
    // Own lane first — the shard-affine fast path: one lane-local lock,
    // no sibling contention.
    Lane* src = &own;
    std::size_t n = pop_from(own);
    WorkerProfile::bump(wp.lock_acquisitions);
    if (n == 0) {
      // Dry lane: bounded rebalance — raid the deepest sibling once,
      // with the own lane's lock already released.
      WorkerProfile::bump(wp.steal_attempts);
      if (Lane* victim = pick_victim(idx)) {
        n = pop_from(*victim);
        WorkerProfile::bump(wp.lock_acquisitions);
        if (n != 0) {
          src = victim;
          WorkerProfile::bump(wp.stolen_batches);
          WorkerProfile::bump(wp.stolen_items, n);
        }
      }
    }
    if (n == 0) {
      if (all_lanes_drained()) break;  // closed everywhere: exit
      // Nothing to do anywhere right now: park on the own lane with a
      // bounded backoff, then rescan (a sibling may have filled while
      // we only get woken for our own lane's pushes).
      const clock::time_point w0 = clock::now();
      n = own.pop_for(batch, cfg_.batch_size, kIdleBackoff);
      WorkerProfile::bump(wp.lock_acquisitions);
      WorkerProfile::bump(
          wp.queue_wait_ns,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - w0)
                  .count()));
      if (n == 0) continue;
      src = &own;
    }
    const clock::time_point b0 = clock::now();
    // The whole RCU read side is this one acquire load per batch;
    // everything behind the pointer is immutable. Epoch-stale reports
    // in the batch still verify against their own epoch via the ring.
    const std::shared_ptr<const EpochSnapshot> snap = snapshot();
    WorkerProfile::bump(wp.snapshot_loads);
    if (snap != held) {
      memo.clear();
      held = snap;
    }
    const EpochTables tables = snap->view();
    const std::uint64_t hits_before = memo.hits();
    const std::uint64_t lookups_before = memo.lookups();
    soa.clear();
    for (const TagReport& r : batch) soa.push(r);
    if (verdicts.size() < n) verdicts.resize(n);
    verify_epoch_aware_batch(soa, 0, n, tables, &memo, verdicts.data());
    mismatches.clear();
    IngestHealth counts;  // this batch's verdicts, added to ws below
    for (std::size_t k = 0; k < n; ++k) {
      counts.tally(verdicts[k]);
      if (verdicts[k].failed()) mismatches.push_back(batch[k]);
    }
    if (!mismatches.empty()) {
      // Retained before task_done, so drain() waits on the lanes alone.
      // No other lock is held here.
      MutexLock lk(failures_mu_);
      failures_.insert(failures_.end(), mismatches.begin(), mismatches.end());
      while (failures_.size() > cfg_.failure_keep) failures_.pop_front();
    }
    bump_relaxed(ws.verified, counts.verified);
    bump_relaxed(ws.passed, counts.passed);
    bump_relaxed(ws.failed, counts.failed);
    bump_relaxed(ws.stale, counts.stale);
    bump_relaxed(ws.memo_hits, memo.hits() - hits_before);
    WorkerProfile::bump(wp.memo_hits, memo.hits() - hits_before);
    WorkerProfile::bump(wp.memo_lookups, memo.lookups() - lookups_before);
    WorkerProfile::bump(wp.batches);
    WorkerProfile::bump(wp.batch_items, n);
    src->task_done(n);
    WorkerProfile::bump(wp.lock_acquisitions);
    WorkerProfile::bump(
        wp.busy_ns,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - b0)
                .count()));
  }
  WorkerProfile::bump(wp.cpu_ns, thread_cpu_now_ns() - cpu0);
}

void ParallelServer::drain() {
  // Workers retain a batch's mismatches before task_done on its lane,
  // so idle lanes mean every mismatch is already in failures_.
  for (const auto& lane : lanes_) {
    MutexLock lk(lane->mu);
    while (lane->unfinished != 0) lane->idle.wait(lk);
  }
}

void ParallelServer::stop() {
  if (workers_.empty()) return;
  // Close every lane: workers drain the leftovers (stealing included),
  // then exit once all_lanes_drained().
  for (const auto& lane : lanes_) lane->close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

std::size_t ParallelServer::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& lane : lanes_) {
    MutexLock lk(lane->mu);
    depth += lane->q.size();
  }
  return depth;
}

std::uint64_t ParallelServer::queue_over_reported() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) {
    MutexLock lk(lane->mu);
    n += lane->over_reported;
  }
  return n;
}

IngestHealth ParallelServer::health() const {
  IngestHealth h;
  for (const auto& lane : lanes_) {
    MutexLock lk(lane->mu);
    lane->intake.fold_into(h);
    h.in_queue += lane->q.size();
  }
  for (const WorkerStats& ws : worker_stats_) {
    h.verified += read_relaxed(ws.verified);
    h.passed += read_relaxed(ws.passed);
    h.failed += read_relaxed(ws.failed);
    h.stale += read_relaxed(ws.stale);
    h.memo_hits += read_relaxed(ws.memo_hits);
  }
  h.regime = static_cast<AdmissionRegime>(read_relaxed(regime_));
  h.regime_transitions = read_relaxed(regime_transitions_);
  h.failsafe_events = server_.failsafe_events();
  h.snapshot_flips = server_.snapshot_flips();
  return h;
}

std::vector<TagReport> ParallelServer::take_failures() {
  MutexLock lk(failures_mu_);
  std::vector<TagReport> out(failures_.begin(), failures_.end());
  failures_.clear();
  return out;
}

}  // namespace veridp
