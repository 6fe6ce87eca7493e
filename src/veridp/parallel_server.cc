#include "veridp/parallel_server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "dataplane/wire.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/report_batch.hpp"

namespace veridp {

namespace {

// The stat-counter fast paths below deliberately use relaxed atomics:
// every counter is either single-writer (per-worker slots) or a
// commutative increment, no reader infers cross-variable ordering from
// them, and health() documents its merged numbers as advisory while
// workers run. The helpers centralize the justification the
// relaxed-atomic lint rule demands (DESIGN.md §12).
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

}  // namespace

ParallelServer::ParallelServer(Controller& controller, ParallelConfig cfg,
                               int tag_bits)
    : controller_(&controller),
      cfg_(cfg),
      tag_bits_(tag_bits),
      failure_queue_(cfg.failure_keep > 64 ? cfg.failure_keep : 64),
      prof_(cfg.workers ? cfg.workers
                        : (std::thread::hardware_concurrency()
                               ? std::thread::hardware_concurrency()
                               : 1)) {
  // One lane per worker; the global bounds split evenly so total queued
  // work stays capped at queue_capacity whatever the lane count.
  const std::size_t nlanes = worker_count();
  if (cfg_.queue_capacity < nlanes)
    throw std::invalid_argument(
        "ParallelConfig: queue_capacity must be at least the worker count "
        "(each lane needs room for one report)");
  if (cfg_.high_watermark > cfg_.queue_capacity)
    cfg_.high_watermark = cfg_.queue_capacity;
  if (cfg_.shed_modulus == 0) cfg_.shed_modulus = 1;
  shed_modulus_.store(cfg_.shed_modulus);
  cfg_.batch_size = resolve_batch_size(cfg_.batch_size);
  if (cfg_.steal_threshold == 0) cfg_.steal_threshold = 1;
  shards_ = cfg_.shards ? cfg_.shards : 1;
  lane_capacity_ = cfg_.queue_capacity / nlanes;
  lane_watermark_ = cfg_.high_watermark / nlanes;  // <= lane_capacity_
  lanes_.reserve(nlanes);
  for (std::size_t i = 0; i < nlanes; ++i)
    lanes_.push_back(std::make_unique<Lane>(lane_capacity_));
  controller_->subscribe(
      [this](const RuleEvent& ev) { on_rule_event(ev); });
}

ParallelServer::~ParallelServer() { stop(); }

void ParallelServer::enable_epoch_checking(std::size_t snapshot_ring,
                                           std::uint32_t grace_window) {
  epochs_ = {true, snapshot_ring, grace_window};
}

void ParallelServer::on_rule_event(const RuleEvent&) {
  epoch_ = controller_->epoch();  // events arrive post-bump
  if (!synced_) return;  // events before the first sync are folded into it
  if (!dirty_) {
    dirty_ = true;
    dirty_from_ = epoch_;
  }
}

void ParallelServer::rebuild_snapshot() {
  const Topology& topo = controller_->topology();
  // Fresh BDD arena per snapshot: every node the build creates lives in
  // this new manager, so in-flight readers of previous snapshots never
  // race with node-store growth. Each HeaderSet keeps its manager alive
  // via shared_ptr, so the arena lives exactly as long as its table.
  HeaderSpace space;
  ConfigTransferProvider provider(space, topo,
                                  controller_->logical_configs());
  PathTableBuilder builder(space, topo, provider, tag_bits_);
  auto table = std::make_shared<const PathTable>(builder.build());

  // The superseded table retires into the ring for the epochs up to the
  // first pending event (next_snapshot).
  // veridp-lint: allow(relaxed-atomic, control-thread self-read; it performed every store)
  const std::shared_ptr<const EpochSnapshot> prev =
      snap_.load(std::memory_order_relaxed);
  const std::shared_ptr<const EpochSnapshot> next = next_snapshot(
      prev.get(), std::move(table), epoch_, dirty_ ? dirty_from_ : 0, epochs_);

  // A/B flip: the finished unit lands in the inactive slot, then one
  // atomic store makes it the served snapshot. A successful publish
  // always clears any standing failsafe.
  slots_[1 - active_slot_] = next;
  active_slot_ = 1 - active_slot_;
  snap_.store(next, std::memory_order_release);  // the publication point
  dirty_ = false;
  missed_heartbeats_ = 0;
  // veridp-lint: allow(relaxed-atomic, independent status flag; readers poll it)
  in_failsafe_.store(false, std::memory_order_relaxed);
  bump_relaxed(published_);
}

void ParallelServer::sync() {
  epoch_ = controller_->epoch();
  rebuild_snapshot();
  synced_ = true;
}

void ParallelServer::publish() {
  if (!synced_) {
    sync();
    return;
  }
  if (dirty_ && !publisher_wedged()) rebuild_snapshot();
}

bool ParallelServer::heartbeat(std::uint64_t deadline_ticks) {
  if (!synced_) {
    sync();
    return false;
  }
  if (!dirty_) {
    // Nothing pending: the active slot is definitionally good.
    missed_heartbeats_ = 0;
    // veridp-lint: allow(relaxed-atomic, independent status flag; readers poll it)
    in_failsafe_.store(false, std::memory_order_relaxed);
    return false;
  }
  if (!publisher_wedged()) {
    rebuild_snapshot();  // flips, clears missed/failsafe
    return false;
  }
  ++missed_heartbeats_;
  // veridp-lint: allow(relaxed-atomic, control-thread self-read of its own flag)
  if (missed_heartbeats_ >= deadline_ticks &&
      !in_failsafe_.load(std::memory_order_relaxed)) {
    // Watchdog: the publisher missed its deadline with events pending.
    // Drop whatever the wedged build left in the inactive slot and
    // re-assert the last-good active slot as the served snapshot. Its
    // table_valid_to predates the pending events, so every report
    // stamped after the wedge degrades to pass-conclusive /
    // kStaleEpoch — inconclusive, never a false positive. The dropped
    // slot's lifecycle generation is retired first: it never again
    // becomes the served snapshot, so any later view() through a
    // squirreled-away handle is a use-across-failsafe-flip bug and
    // aborts in checked builds.
    if (slots_[1 - active_slot_])
      lockdep::snapshot::retire(slots_[1 - active_slot_]->lifecycle_gen,
                                "failsafe-flip");
    slots_[1 - active_slot_].reset();
    snap_.store(slots_[active_slot_], std::memory_order_release);
    // veridp-lint: allow(relaxed-atomic, independent status flag; readers poll it)
    in_failsafe_.store(true, std::memory_order_relaxed);
    bump_relaxed(failsafe_events_);
  }
  return read_relaxed(in_failsafe_);
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

ParallelServer::StreamTotals ParallelServer::verify_stream(
    const std::vector<TagReport>& reports, unsigned workers) {
  publish();
  const std::shared_ptr<const EpochSnapshot> snap = snapshot();
  unsigned n = workers ? workers : worker_count();
  if (!reports.empty() && reports.size() < n)
    n = static_cast<unsigned>(reports.size());
  if (n == 0) n = 1;

  std::vector<StreamTotals> parts(n);
  const std::size_t chunk = reports.empty() ? 0 : (reports.size() + n - 1) / n;
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    pool.emplace_back([&reports, &parts, &snap, chunk, w] {
      const EpochTables tables = snap->view();
      VerifyMemo memo;  // one snapshot for the whole stream: never cleared
      StreamTotals& t = parts[w];
      const std::size_t lo = static_cast<std::size_t>(w) * chunk;
      const std::size_t hi =
          lo + chunk < reports.size() ? lo + chunk : reports.size();
      // Batched kernel over the worker's slice, autotuned lanes per
      // call; scratch is worker-local like the memo.
      const std::size_t bs = autotuned_batch_size();
      ReportBatch soa;
      soa.reserve(bs);
      std::vector<Verdict> verdicts(bs);
      for (std::size_t i = lo; i < hi;) {
        const std::size_t m = std::min(bs, hi - i);
        soa.clear();
        for (std::size_t k = 0; k < m; ++k) soa.push(reports[i + k]);
        verify_epoch_aware_batch(soa, 0, m, tables, &memo, verdicts.data());
        for (std::size_t k = 0; k < m; ++k) {
          const Verdict& v = verdicts[k];
          ++t.verified;
          if (v.ok())
            ++t.passed;
          else if (v.status == VerifyStatus::kStaleEpoch)
            ++t.stale;
          else
            ++t.failed;
        }
        i += m;
      }
    });
  }
  for (std::thread& t : pool) t.join();

  StreamTotals total;
  for (const StreamTotals& p : parts) {
    total.verified += p.verified;
    total.passed += p.passed;
    total.failed += p.failed;
    total.stale += p.stale;
  }
  return total;
}

void ParallelServer::start() {
  if (running()) return;
  if (!synced_) sync();
  for (const auto& lane : lanes_) lane->q.open();
  failure_queue_.open();
  const unsigned n = worker_count();
  // Stats persist across start/stop cycles so health() stays cumulative.
  while (worker_stats_.size() < n)
    worker_stats_.push_back(std::make_unique<WorkerStats>());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  failure_consumer_ = std::thread([this] { failure_loop(); });
}

bool ParallelServer::submit(const TagReport& report) {
  Lane& lane = lane_for(report.outport.sw);
  {
    MutexLock lk(lane.mu);
    ++lane.received;
    if (report.seq != 0 &&
        !lane.seq.try_emplace(report.outport.sw, cfg_.dedup_window)
             .first->second.note(report.seq)) {
      ++lane.deduped;
      return false;
    }
  }
  // Admission runs outside the lane ingest lock — the queue has its
  // own synchronization and the depth reading is advisory anyway.
  const std::size_t depth = lane.q.size();
  const AdmissionRegime regime =
      read_relaxed(governed_)
          ? static_cast<AdmissionRegime>(read_relaxed(regime_))
          : watermark_regime(depth, lane_watermark_);
  if (!admits(policy_for(regime), depth, lane_capacity_, report.seq,
              read_relaxed(shed_modulus_)) ||
      !lane.q.try_push(report)) {
    MutexLock lk(lane.mu);
    ++lane.shed;
    return false;
  }
  return true;
}

bool ParallelServer::submit_datagram(
    const std::vector<std::uint8_t>& datagram) {
  const auto report = wire::decode_report(datagram);
  if (!report) {
    Lane& lane = *lanes_.front();  // malformed payloads name no switch
    {
      MutexLock lk(lane.mu);
      ++lane.received;
      ++lane.quarantined;
    }
    MutexLock qk(quarantine_mu_);
    quarantine_.push_back(datagram);
    if (quarantine_.size() > cfg_.quarantine_keep) quarantine_.pop_front();
    return false;
  }
  return submit(*report);
}

ParallelServer::Lane* ParallelServer::pick_victim(std::size_t own) {
  Lane* best = nullptr;
  std::size_t best_depth = cfg_.steal_threshold - 1;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (i == own) continue;
    const std::size_t depth = lanes_[i]->q.size();
    if (depth > best_depth) {
      best_depth = depth;
      best = lanes_[i].get();
    }
  }
  return best;
}

bool ParallelServer::all_lanes_drained() const {
  for (const auto& lane : lanes_)
    if (!lane->q.drained()) return false;
  return true;
}

void ParallelServer::worker_loop(unsigned idx) {
  using clock = std::chrono::steady_clock;
  WorkerStats& ws = *worker_stats_[idx];
  WorkerProfile& wp = prof_.slot(idx % prof_.slots());
  Lane& own = *lanes_[idx % lanes_.size()];
  const std::size_t own_idx = idx % lanes_.size();
  std::vector<TagReport> batch;
  batch.reserve(cfg_.batch_size);
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
  for (;;) {
    // Own lane first — the shard-affine fast path: one lane-local lock,
    // no sibling contention.
    Lane* src = &own;
    std::size_t n = own.q.try_pop_batch(batch, cfg_.batch_size);
    WorkerProfile::bump(wp.lock_acquisitions);
    if (n == 0) {
      // Dry lane: bounded rebalance — raid the deepest sibling once.
      WorkerProfile::bump(wp.steal_attempts);
      if (Lane* victim = pick_victim(own_idx)) {
        n = victim->q.try_pop_batch(batch, cfg_.batch_size);
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
      n = own.q.pop_batch_for(
          batch, cfg_.batch_size,
          std::chrono::microseconds(cfg_.idle_backoff_us));
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
    for (std::size_t k = 0; k < n; ++k) {
      const Verdict& v = verdicts[k];
      bump_relaxed(ws.verified);
      if (v.ok()) {
        bump_relaxed(ws.passed);
      } else if (v.status == VerifyStatus::kStaleEpoch) {
        bump_relaxed(ws.stale);
      } else {
        bump_relaxed(ws.failed);
        // Hand the mismatch to the localization stage. Bounded: if the
        // stage is hopelessly behind, overflow mismatches are dropped
        // (they are still counted in `failed`).
        failure_queue_.try_push(batch[k]);
      }
    }
    bump_relaxed(ws.memo_hits, memo.hits() - hits_before);
    WorkerProfile::bump(wp.memo_hits, memo.hits() - hits_before);
    WorkerProfile::bump(wp.memo_lookups, memo.lookups() - lookups_before);
    WorkerProfile::bump(wp.batches);
    WorkerProfile::bump(wp.batch_items, n);
    src->q.task_done(n);
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

void ParallelServer::failure_loop() {
  std::vector<TagReport> batch;
  for (;;) {
    const std::size_t n = failure_queue_.pop_batch(batch, 16);
    if (n == 0) return;
    {
      MutexLock lk(failures_mu_);
      for (const TagReport& r : batch) {
        failures_.push_back(r);
        if (failures_.size() > cfg_.failure_keep) failures_.pop_front();
      }
    }
    failure_queue_.task_done(n);
  }
}

void ParallelServer::drain() {
  // Workers push to the failure queue before task_done on their lane,
  // so once every lane is idle every mismatch is already inside the
  // failure queue; waiting on it second closes the pipeline.
  for (const auto& lane : lanes_) lane->q.wait_idle();
  failure_queue_.wait_idle();
}

void ParallelServer::stop() {
  if (workers_.empty() && !failure_consumer_.joinable()) return;
  // Close every lane: workers drain the leftovers (stealing included),
  // then exit once all_lanes_drained().
  for (const auto& lane : lanes_) lane->q.close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  failure_queue_.close();
  if (failure_consumer_.joinable()) failure_consumer_.join();
}

std::size_t ParallelServer::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& lane : lanes_) depth += lane->q.size();
  return depth;
}

std::uint64_t ParallelServer::queue_over_reported() const {
  std::uint64_t n = failure_queue_.over_reported();
  for (const auto& lane : lanes_) n += lane->q.over_reported();
  return n;
}

IngestHealth ParallelServer::health() const {
  IngestHealth h;
  for (const auto& lane : lanes_) {
    MutexLock lk(lane->mu);
    h.received += lane->received;
    h.deduped += lane->deduped;
    h.shed += lane->shed;
    h.quarantined += lane->quarantined;
    for (const auto& [sw, tracker] : lane->seq)
      h.lost_estimate += tracker.lost_estimate();
  }
  for (const auto& ws : worker_stats_) {
    h.verified += read_relaxed(ws->verified);
    h.passed += read_relaxed(ws->passed);
    h.failed += read_relaxed(ws->failed);
    h.stale += read_relaxed(ws->stale);
    h.memo_hits += read_relaxed(ws->memo_hits);
  }
  h.in_queue = queue_depth();
  h.regime = static_cast<AdmissionRegime>(read_relaxed(regime_));
  h.regime_transitions = read_relaxed(regime_transitions_);
  h.failsafe_events = read_relaxed(failsafe_events_);
  h.snapshot_flips = read_relaxed(published_);
  return h;
}

std::vector<TagReport> ParallelServer::take_failures() {
  MutexLock lk(failures_mu_);
  std::vector<TagReport> out(failures_.begin(), failures_.end());
  failures_.clear();
  return out;
}

LocalizeResult ParallelServer::localize(const TagReport& report) const {
  Localizer localizer(controller_->topology(),
                      controller_->logical_configs());
  return localizer.infer(report);
}

}  // namespace veridp
