// Parallel verification server (DESIGN.md §6).
//
// The load-bearing property is EQUIVALENCE: however many producer and
// worker threads run, the merged verdict totals must be bit-identical to
// a single-threaded Server fed the identical report sequence — the
// paper's verification semantics (Algorithm 3 + the epoch rules) must
// not change when the execution becomes concurrent. Every test here also
// doubles as a race detector target: the whole binary carries the
// `concurrency` ctest label and runs under the TSan preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "dataplane/network.hpp"
#include "testutil.hpp"
#include "veridp/channel.hpp"
#include "veridp/ingest.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/server.hpp"
#include "veridp/workload.hpp"

namespace veridp {

/// A lane's queue, reached directly: no worker ever over-reports, and
/// stop() closes the lanes only once workers run, so only a test can
/// drive a lane this way.
struct ParallelServerTestPeer {
  static void task_done(ParallelServer& ps, std::size_t lane,
                        std::size_t n) {
    ps.lanes_[lane]->task_done(n);
  }
  static std::size_t pop(ParallelServer& ps, std::size_t lane,
                         std::vector<TagReport>& out, std::size_t max) {
    ParallelServer::Lane& l = *ps.lanes_[lane];
    MutexLock lk(l.mu);
    return l.pop(out, max);
  }
  static std::size_t pop_for(ParallelServer& ps, std::size_t lane,
                             std::vector<TagReport>& out, std::size_t max,
                             std::chrono::microseconds timeout) {
    return ps.lanes_[lane]->pop_for(out, max, timeout);
  }
  /// What stop() does to each lane, without workers to join.
  static void close(ParallelServer& ps, std::size_t lane) {
    ps.lanes_[lane]->close();
  }
};

namespace {

/// One deployment shared by a sequential oracle and a parallel server:
/// both subscribe to the same controller, so they see the same epoch
/// history and build path tables from the same logical configs.
struct Rig {
  Topology topo;
  Controller controller;
  Network net;

  explicit Rig(Topology t)
      : topo(std::move(t)), controller(topo), net(topo) {}

  void install_and_deploy() {
    routing::install_shortest_paths(controller);
    controller.deploy(net);
    net.set_config_epoch(controller.epoch());
  }

  /// Injects the full ping matrix once and returns the emitted reports.
  std::vector<TagReport> collect_reports(double t = 0.0) {
    std::vector<TagReport> out;
    for (const auto& f : workload::ping_all(topo)) {
      const auto r = net.inject(f.header, f.entry, t);
      out.insert(out.end(), r.reports.begin(), r.reports.end());
    }
    return out;
  }
};

struct SeqTotals {
  std::uint64_t verified = 0, passed = 0, failed = 0, stale = 0;
};

SeqTotals run_oracle(Server& server, const std::vector<TagReport>& reports) {
  SeqTotals t;
  for (const TagReport& r : reports) {
    const Verdict v = server.verify(r);
    ++t.verified;
    if (v.ok())
      ++t.passed;
    else if (v.status == VerifyStatus::kStaleEpoch)
      ++t.stale;
    else
      ++t.failed;
  }
  return t;
}

/// Room for every test stream in one lane: nothing is ever shed.
ParallelConfig never_shed(unsigned workers) {
  ParallelConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 1 << 16;
  cfg.high_watermark = (1 << 16) - 1;
  return cfg;
}

/// The lanes' counterpart of run_oracle: publishes (as Server::verify
/// refreshes first), submits copies of `reports` with seq cleared — seq
/// never reaches a verdict, and seq 0 skips dedup — then runs the pool
/// until drained. Reports submitted to a stopped server wait in their
/// lanes for start(). Returns this call's verdict totals; every report
/// must be verified, none shed or deduped.
SeqTotals verify_through_lanes(ParallelServer& ps,
                               const std::vector<TagReport>& reports) {
  ps.publish();
  const IngestHealth before = ps.health();
  for (TagReport r : reports) {
    r.seq = 0;
    ps.submit(r);
  }
  ps.start();
  ps.drain();
  const IngestHealth after = ps.health();
  EXPECT_EQ(after.shed, before.shed);
  EXPECT_EQ(after.deduped, before.deduped);
  EXPECT_EQ(after.verified - before.verified, reports.size());
  return {after.verified - before.verified, after.passed - before.passed,
          after.failed - before.failed, after.stale - before.stale};
}

TEST(ParallelServer, StreamTotalsBitIdenticalToSequential) {
  Rig rig(fat_tree(4));
  Server oracle(rig.controller, Server::Mode::kFullRebuild);
  ParallelServer parallel(rig.controller, never_shed(4));
  rig.install_and_deploy();
  oracle.sync();
  parallel.sync();

  // Consistent reports, then a faulty switch so the stream carries real
  // mismatches (both kTagMismatch and kNoPath verdicts), then garbage
  // ports so kNoPath is definitely exercised.
  std::vector<TagReport> reports = rig.collect_reports();
  const std::size_t clean = reports.size();
  ASSERT_GT(clean, 0u);

  FaultInjector inject(rig.net);
  const SwitchId victim = reports.front().inport.sw;
  const auto& rules = rig.net.at(victim).config().table.rules();
  ASSERT_FALSE(rules.empty());
  inject.rewrite_rule_output(victim, rules.front().id,
                             rules.front().action.out == 1 ? 2 : 1);
  const std::vector<TagReport> faulty = rig.collect_reports();
  reports.insert(reports.end(), faulty.begin(), faulty.end());

  TagReport bogus = reports.front();
  bogus.outport = bogus.inport;  // no path enters and exits the same port
  reports.push_back(bogus);

  const SeqTotals par = verify_through_lanes(parallel, reports);
  const SeqTotals seq = run_oracle(oracle, reports);

  EXPECT_EQ(par.verified, seq.verified);
  EXPECT_EQ(par.passed, seq.passed);
  EXPECT_EQ(par.failed, seq.failed);
  EXPECT_EQ(par.stale, seq.stale);
  EXPECT_GT(par.failed, 0u) << "the fault must be visible in the stream";
  EXPECT_GE(par.passed, clean) << "clean reports all pass";
}

TEST(ParallelServer, StreamTotalsMatchAcrossEpochRing) {
  Rig rig(fat_tree(4));
  Server oracle(rig.controller, Server::Mode::kFullRebuild);
  oracle.enable_epoch_checking(/*snapshot_ring=*/8, /*grace_window=*/64);
  ParallelServer parallel(rig.controller, never_shed(4));
  parallel.enable_epoch_checking(/*snapshot_ring=*/8, /*grace_window=*/64);
  rig.install_and_deploy();
  oracle.sync();
  parallel.sync();

  // Phase A reports are stamped with the pre-update epoch.
  std::vector<TagReport> reports = rig.collect_reports();
  const std::uint32_t old_epoch = rig.controller.epoch();

  // Config churn: blackhole two subnets, redeploy, sample again. The
  // old-epoch reports now straddle the rebuild and must be judged
  // against the retired table (ring), not the current one.
  const auto& subnets = rig.topo.subnets();
  ASSERT_GE(subnets.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    const auto& [dst_port, subnet] = subnets[static_cast<std::size_t>(i)];
    rig.controller.add_rule(dst_port.sw, 7000 + i, Match::dst_prefix(subnet),
                            Action::drop());
  }
  rig.controller.deploy(rig.net);
  rig.net.set_config_epoch(rig.controller.epoch());
  ASSERT_GT(rig.controller.epoch(), old_epoch);

  const std::vector<TagReport> fresh = rig.collect_reports(/*t=*/1.0);
  reports.insert(reports.end(), fresh.begin(), fresh.end());

  const SeqTotals par = verify_through_lanes(parallel, reports);
  const SeqTotals seq = run_oracle(oracle, reports);

  EXPECT_EQ(par.verified, seq.verified);
  EXPECT_EQ(par.passed, seq.passed);
  EXPECT_EQ(par.failed, seq.failed);
  EXPECT_EQ(par.stale, seq.stale);
  EXPECT_EQ(par.failed, 0u)
      << "a consistent plane never fails, whatever the epoch timing";
  EXPECT_GE(parallel.snapshot()->ranges.size(), 1u)
      << "the retired table must be in the published ring";
}

// One snapshot model: both servers publish through next_snapshot, so
// the same add/delete/publish sequence leaves the same ring of epoch
// ranges — also after the ring overflows its capacity of 2.
TEST(ParallelServer, SnapshotRingMatchesTheSequentialServer) {
  Rig rig(linear(4));
  Server server(rig.controller, Server::Mode::kFullRebuild);
  server.enable_epoch_checking(/*snapshot_ring=*/2, /*grace_window=*/64);
  ParallelConfig cfg;
  cfg.workers = 1;
  ParallelServer parallel(rig.controller, cfg);
  parallel.enable_epoch_checking(/*snapshot_ring=*/2, /*grace_window=*/64);
  rig.install_and_deploy();
  server.sync();
  parallel.sync();

  const auto ranges = [](const EpochSnapshot& snap) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    for (const EpochTables::Range& r : snap.ranges)
      out.emplace_back(r.first_epoch, r.last_epoch);
    return out;
  };
  const auto& subnets = rig.topo.subnets();
  ASSERT_GE(subnets.size(), 4u);
  std::vector<std::pair<SwitchId, RuleId>> added;
  for (std::size_t step = 0; step < 4; ++step) {
    // Two events per publication: an add, then (from step 1) a delete.
    const auto& [dst_port, subnet] = subnets[step];
    added.emplace_back(dst_port.sw,
                       rig.controller.add_rule(
                           dst_port.sw, 7000 + static_cast<int>(step),
                           Match::dst_prefix(subnet), Action::drop()));
    if (step > 0)
      rig.controller.delete_rule(added[step - 1].first,
                                 added[step - 1].second);
    (void)server.table();
    parallel.publish();
    EXPECT_EQ(ranges(*server.snapshot()), ranges(*parallel.snapshot()))
        << "after publication " << step;
  }
  EXPECT_EQ(server.snapshot()->ranges.size(), 2u) << "the ring overflowed";
}

// The satellite stress test: N producer threads × M workers over a
// chaos-channel stream (duplication, reordering, corruption, loss, plus
// a real switch fault and config churn), asserting the merged verdict
// AND health counters exactly match the single-threaded stack
// (Server + ReportIngest) on the identical datagram sequence.
TEST(ParallelServer, ChaosStreamProducersWorkersMatchSequentialOracle) {
  constexpr unsigned kProducers = 4;
  constexpr unsigned kWorkers = 4;

  Rig rig(fat_tree(4));
  Server oracle_server(rig.controller, Server::Mode::kFullRebuild);
  oracle_server.enable_epoch_checking();
  // No shedding: shed decisions are timing-dependent, tested separately.
  ParallelConfig cfg = never_shed(kWorkers);
  cfg.dedup_window = 1 << 16;
  cfg.failure_keep = 1 << 16;
  ParallelServer parallel(rig.controller, cfg);
  parallel.enable_epoch_checking();
  rig.install_and_deploy();
  oracle_server.sync();
  parallel.sync();

  ChannelConfig ccfg;
  ccfg.drop_rate = 0.05;
  ccfg.dup_rate = 0.10;
  ccfg.reorder_rate = 0.15;
  ccfg.delay_rate = 0.05;
  ccfg.corrupt_rate = 0.05;
  ccfg.seed = 0xfeedULL;
  ReportChannel channel(ccfg);

  FaultInjector inject(rig.net);
  const auto flows = workload::ping_all(rig.topo);
  const auto& subnets = rig.topo.subnets();
  for (int round = 0; round < 3; ++round) {
    if (round == 0) {
      // A real switch fault in the first round: its reports carry the
      // sync-time epoch, which the retired ring table covers, so the
      // mismatches are judged definitively (later-epoch reports fall
      // into the pass-only grace window and would go stale instead).
      const SwitchId sw = flows.front().entry.sw;
      const auto& rules = rig.net.at(sw).config().table.rules();
      ASSERT_FALSE(rules.empty());
      inject.rewrite_rule_output(sw, rules.front().id,
                                 rules.front().action.out == 1 ? 2 : 1);
    }
    for (const auto& f : flows) {
      const auto r = rig.net.inject(f.header, f.entry, /*t=*/round);
      for (const TagReport& rep : r.reports) channel.send(rep);
    }
    // Config churn between rounds, while datagrams sit in the channel.
    const auto& [dst_port, subnet] = subnets[static_cast<std::size_t>(round)];
    rig.controller.add_rule(dst_port.sw, 8000 + round,
                            Match::dst_prefix(subnet), Action::drop());
    rig.controller.deploy(rig.net);
    rig.net.set_config_epoch(rig.controller.epoch());
  }

  // One deterministic capture, replayed through both stacks.
  const std::vector<std::vector<std::uint8_t>> datagrams =
      channel.drain_all();
  ASSERT_GT(datagrams.size(), 0u);

  // The oracle Server rebuilds lazily inside verify(); the parallel
  // server's control plane must publish explicitly after churn — the
  // RCU snapshot never refreshes behind the workers' backs.
  parallel.publish();

  IngestConfig icfg;
  icfg.capacity = 1 << 16;
  icfg.high_watermark = (1 << 16) - 1;
  icfg.dedup_window = 1 << 16;
  ReportIngest oracle_ingest(oracle_server, icfg);
  for (const auto& d : datagrams) oracle_ingest.offer(d);
  oracle_ingest.process();
  const IngestHealth seq = oracle_ingest.health();

  parallel.start();
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&datagrams, &parallel, p] {
      for (std::size_t i = p; i < datagrams.size(); i += kProducers)
        parallel.submit_datagram(datagrams[i]);
    });
  }
  for (std::thread& t : producers) t.join();
  parallel.drain();
  parallel.stop();
  const IngestHealth par = parallel.health();

  EXPECT_EQ(par.received, seq.received);
  EXPECT_EQ(par.passed, seq.passed);
  EXPECT_EQ(par.failed, seq.failed);
  EXPECT_EQ(par.stale, seq.stale);
  EXPECT_EQ(par.deduped, seq.deduped);
  EXPECT_EQ(par.quarantined, seq.quarantined);
  EXPECT_EQ(par.lost_estimate, seq.lost_estimate);
  EXPECT_EQ(par.shed, 0u);
  EXPECT_EQ(par.verified,
            static_cast<std::uint64_t>(oracle_server.reports_verified()));
  EXPECT_EQ(par.accounted(), par.received)
      << "conservation law survives concurrency";
  EXPECT_TRUE(par.conserved()) << "all three ledger relations hold";
  EXPECT_EQ(parallel.queue_over_reported(), 0u)
      << "no worker double-reported a completion";
  EXPECT_GT(par.failed, 0u) << "the injected fault stays visible";
  EXPECT_GT(par.deduped, 0u);
  EXPECT_GT(par.quarantined, 0u);
}

// Satellite regression: stop() closes the lane queues; start() must
// re-open them, or every post-restart submit is silently rejected. The
// oracle is the sequential stack fed both phases' reports back to back —
// cumulative health after the restart must match it exactly.
TEST(ParallelServer, StopStartSubmitLifecycleDrainsBothPhases) {
  Rig rig(fat_tree(4));
  Server oracle(rig.controller, Server::Mode::kFullRebuild);
  ParallelConfig cfg = never_shed(3);
  cfg.dedup_window = 1 << 16;
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  oracle.sync();
  parallel.sync();

  const std::vector<TagReport> base = rig.collect_reports();
  ASSERT_GT(base.size(), 0u);
  // Two phases with disjoint seq ranges per switch so dedup is inert
  // and the loss estimate stays zero.
  std::vector<TagReport> phase1 = base, phase2 = base;
  std::unordered_map<SwitchId, std::uint32_t> next_seq;
  for (TagReport& r : phase1) r.seq = ++next_seq[r.outport.sw];
  for (TagReport& r : phase2) r.seq = ++next_seq[r.outport.sw];

  SeqTotals seq = run_oracle(oracle, phase1);
  {
    const SeqTotals s2 = run_oracle(oracle, phase2);
    seq.verified += s2.verified;
    seq.passed += s2.passed;
    seq.failed += s2.failed;
    seq.stale += s2.stale;
  }

  parallel.start();
  for (const TagReport& r : phase1) ASSERT_TRUE(parallel.submit(r));
  parallel.drain();
  parallel.stop();
  const IngestHealth mid = parallel.health();
  EXPECT_EQ(mid.received, phase1.size());
  EXPECT_TRUE(mid.conserved());

  // Restart: the closed lanes must re-arm, and submits must be accepted
  // again rather than silently dropped.
  parallel.start();
  for (const TagReport& r : phase2)
    ASSERT_TRUE(parallel.submit(r)) << "post-restart submit rejected";
  parallel.drain();
  parallel.stop();

  const IngestHealth h = parallel.health();
  EXPECT_EQ(h.received, phase1.size() + phase2.size());
  EXPECT_EQ(h.verified, seq.verified) << "cumulative across the restart";
  EXPECT_EQ(h.passed, seq.passed);
  EXPECT_EQ(h.failed, seq.failed);
  EXPECT_EQ(h.stale, seq.stale);
  EXPECT_EQ(h.deduped, 0u);
  EXPECT_EQ(h.shed, 0u);
  EXPECT_EQ(h.lost_estimate, 0u);
  EXPECT_TRUE(h.conserved());
  EXPECT_EQ(parallel.queue_over_reported(), 0u);
}

// The memo-hits ledger contract: a memo hit IS a verification (it lands
// in passed/failed/stale like any recomputed verdict); memo_hits only
// records how many verifications took the fast path. Repeating the same
// header through one lane makes the per-worker memo bite, and all three
// conservation relations must still hold.
TEST(ParallelServer, MemoHitsStayInsideTheVerifiedLedger) {
  Rig rig(linear(3));
  ParallelConfig cfg = never_shed(2);
  cfg.dedup_window = 1 << 16;
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  parallel.sync();

  const std::vector<TagReport> base = rig.collect_reports();
  ASSERT_GT(base.size(), 0u);

  // The same reports resent 8 times with fresh seqs: identical
  // (switch, header) keys, so after the first verification each lane's
  // owning worker answers from its memo.
  constexpr int kRepeats = 8;
  std::vector<TagReport> stream;
  std::unordered_map<SwitchId, std::uint32_t> next_seq;
  for (int rep = 0; rep < kRepeats; ++rep)
    for (TagReport r : base) {
      r.seq = ++next_seq[r.outport.sw];
      stream.push_back(r);
    }

  parallel.start();
  for (const TagReport& r : stream) ASSERT_TRUE(parallel.submit(r));
  parallel.drain();
  parallel.stop();

  const IngestHealth h = parallel.health();
  EXPECT_EQ(h.received, stream.size());
  EXPECT_EQ(h.verified, stream.size()) << "memo hits are verifications";
  EXPECT_EQ(h.passed, stream.size());
  EXPECT_GT(h.memo_hits, 0u) << "the repeats must actually hit the memo";
  EXPECT_LE(h.memo_hits, h.verified);
  EXPECT_TRUE(h.conserved());
  EXPECT_EQ(h.memo_hits, parallel.profiler().totals().memo_hits)
      << "health ledger and profiler attribution agree";
}

// Completing more reports than a lane holds is a worker accounting bug:
// debug builds abort (the assert names the lane), release builds clamp
// but record the excess, so drain() is never released silently by
// inflated completions.
TEST(ParallelServer, LaneTaskDoneOverReportIsLoudNotSilent) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rig rig(linear(3));
  ParallelConfig cfg = never_shed(1);
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  parallel.sync();
  ASSERT_TRUE(parallel.submit(rig.collect_reports().front()));
#ifdef NDEBUG
  ParallelServerTestPeer::task_done(parallel, 0, 3);  // 2 more than queued
  EXPECT_EQ(parallel.queue_over_reported(), 2u);
  parallel.drain();  // clamped to 0: still returns
  ParallelServerTestPeer::task_done(parallel, 0, 1);
  EXPECT_EQ(parallel.queue_over_reported(), 3u) << "cumulative";
#else
  EXPECT_DEATH(ParallelServerTestPeer::task_done(parallel, 0, 3),
               "task_done over-report");
#endif
}

// The MpmcQueue suite pins the single-thread semantics of a lane's
// bounded queue — every producer pushes into it, its owner and thieves
// pop from it — through a one-worker server whose workers never start
// unless a test says so: one lane, driven by submit() and the peer.
// seq 0 is never deduplicated, so a report can be submitted repeatedly.
TagReport unsequenced(TagReport r) {
  r.seq = 0;
  return r;
}

TEST(MpmcQueue, TaskDoneExactAccountingReachesIdle) {
  Rig rig(linear(3));
  ParallelServer parallel(rig.controller, never_shed(1));
  rig.install_and_deploy();
  const TagReport r = unsequenced(rig.collect_reports().front());
  ASSERT_TRUE(parallel.submit(r));
  ASSERT_TRUE(parallel.submit(r));
  std::vector<TagReport> out;
  EXPECT_EQ(ParallelServerTestPeer::pop(parallel, 0, out, 8), 2u);
  ParallelServerTestPeer::task_done(parallel, 0, 2);
  parallel.drain();  // returns at once: every pushed report is done
  EXPECT_EQ(parallel.queue_over_reported(), 0u);
  EXPECT_EQ(parallel.health().in_queue, 0u);
}

TEST(MpmcQueue, CloseRejectsPushesButDrainsQueuedItems) {
  Rig rig(linear(3));
  ParallelServer parallel(rig.controller, never_shed(1));
  rig.install_and_deploy();
  const std::vector<TagReport> reports = rig.collect_reports();
  ASSERT_GT(reports.size(), 1u);
  ASSERT_TRUE(parallel.submit(unsequenced(reports[0])));
  ParallelServerTestPeer::close(parallel, 0);
  EXPECT_FALSE(parallel.submit(unsequenced(reports[1])));
  EXPECT_EQ(parallel.health().shed, 1u) << "a closed lane sheds";
  EXPECT_EQ(parallel.health().in_queue, 1u) << "closed but not yet empty";
  std::vector<TagReport> out;
  EXPECT_EQ(ParallelServerTestPeer::pop(parallel, 0, out, 4), 1u)
      << "the queued report survives close";
  EXPECT_TRUE(out.front().header == reports[0].header);
  ParallelServerTestPeer::task_done(parallel, 0, 1);
  EXPECT_EQ(parallel.health().in_queue, 0u);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ParallelServerTestPeer::pop_for(parallel, 0, out, 4,
                                            std::chrono::seconds(60)),
            0u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30))
      << "closed-and-empty: the worker leaves without waiting";
  EXPECT_EQ(parallel.queue_over_reported(), 0u);
}

TEST(MpmcQueue, OpenRearmsAfterClose) {
  Rig rig(linear(3));
  ParallelServer parallel(rig.controller, never_shed(1));
  rig.install_and_deploy();
  const TagReport r = unsequenced(rig.collect_reports().front());
  parallel.start();
  parallel.stop();  // closes the lane
  EXPECT_FALSE(parallel.submit(r));
  parallel.start();  // re-opens it
  EXPECT_TRUE(parallel.submit(r)) << "start() must re-admit work";
  parallel.drain();
  parallel.stop();
  const IngestHealth h = parallel.health();
  EXPECT_EQ(h.shed, 1u);
  EXPECT_EQ(h.verified, 1u);
  EXPECT_EQ(parallel.queue_over_reported(), 0u);
}

TEST(MpmcQueue, TryPopBatchNeverBlocks) {
  Rig rig(linear(3));
  ParallelServer parallel(rig.controller, never_shed(1));
  rig.install_and_deploy();
  const TagReport r = unsequenced(rig.collect_reports().front());
  std::vector<TagReport> out{r};
  EXPECT_EQ(ParallelServerTestPeer::pop(parallel, 0, out, 4), 0u)
      << "empty: returns, no wait";
  EXPECT_TRUE(out.empty()) << "out is cleared even on 0";
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(parallel.submit(r));
  EXPECT_EQ(ParallelServerTestPeer::pop(parallel, 0, out, 4), 4u)
      << "bounded by max";
  EXPECT_EQ(ParallelServerTestPeer::pop(parallel, 0, out, 4), 2u)
      << "then by what remains";
  ParallelServerTestPeer::task_done(parallel, 0, 6);
  EXPECT_EQ(parallel.queue_over_reported(), 0u);
}

TEST(MpmcQueue, PopBatchForReturnsImmediatelyWhenClosedOrNonEmpty) {
  Rig rig(linear(3));
  ParallelServer parallel(rig.controller, never_shed(1));
  rig.install_and_deploy();
  ASSERT_TRUE(parallel.submit(unsequenced(rig.collect_reports().front())));
  std::vector<TagReport> out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ParallelServerTestPeer::pop_for(parallel, 0, out, 4,
                                            std::chrono::seconds(60)),
            1u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30))
      << "reports ready: no wait at all";
  ParallelServerTestPeer::task_done(parallel, 0, 1);
  ParallelServerTestPeer::close(parallel, 0);
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_EQ(ParallelServerTestPeer::pop_for(parallel, 0, out, 4,
                                            std::chrono::seconds(60)),
            0u);
  EXPECT_LT(std::chrono::steady_clock::now() - t1, std::chrono::seconds(30))
      << "closed-and-empty: no wait either";
}

// stop() lets the workers verify what the lanes still hold before they
// exit; a report submitted after stop() is counted shed, not lost.
TEST(ParallelServer, StopDrainsQueuedReportsThenShedsSubmits) {
  Rig rig(fat_tree(4));
  ParallelServer parallel(rig.controller, never_shed(2));
  rig.install_and_deploy();
  parallel.sync();
  const std::vector<TagReport> reports = rig.collect_reports();
  ASSERT_GT(reports.size(), 1u);
  for (TagReport r : reports) {
    r.seq = 0;
    ASSERT_TRUE(parallel.submit(r));
  }
  parallel.start();
  parallel.stop();  // no drain(): stop() itself empties the lanes
  IngestHealth h = parallel.health();
  EXPECT_EQ(h.verified, reports.size());
  EXPECT_EQ(h.in_queue, 0u);

  EXPECT_FALSE(parallel.submit(reports.front())) << "stopped: shed";
  EXPECT_FALSE(parallel.submit_datagram({0xde, 0xad}));
  h = parallel.health();
  EXPECT_EQ(h.received, reports.size() + 2);
  EXPECT_EQ(h.shed, 1u);
  EXPECT_EQ(h.quarantined, 1u);
  EXPECT_EQ(h.in_queue, 0u);
  EXPECT_TRUE(h.conserved());
  EXPECT_EQ(parallel.queue_over_reported(), 0u);
}

// A worker with nothing to do anywhere parks on its own lane with a
// timeout, then rescans its siblings: every worker must come back for a
// second steal attempt, and late work must still be served.
TEST(ParallelServer, IdleWorkersParkWithATimeout) {
  constexpr unsigned kWorkers = 3;
  Rig rig(linear(3));
  ParallelServer parallel(rig.controller, never_shed(kWorkers));
  rig.install_and_deploy();
  parallel.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (unsigned w = 0; w < kWorkers; ++w)
    while (parallel.profiler().slot_totals(w).steal_attempts < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (unsigned w = 0; w < kWorkers; ++w)
    EXPECT_GE(parallel.profiler().slot_totals(w).steal_attempts, 2u)
        << "worker " << w << " never returned from its park";
  EXPECT_GT(parallel.profiler().totals().queue_wait_ns, 0u);

  const std::vector<TagReport> late = rig.collect_reports();
  for (TagReport r : late) {
    r.seq = 0;
    ASSERT_TRUE(parallel.submit(r));
  }
  parallel.drain();
  parallel.stop();
  EXPECT_EQ(parallel.health().passed, late.size());
}

// batch_size = 0 means "autotune" (the sequential ingest's chunk); it
// must not fall back to one report per dequeue.
TEST(ParallelServer, ZeroBatchSizeAutotunesLikeTheIngest) {
  Rig rig(linear(3));
  ParallelConfig cfg;
  cfg.workers = 1;
  cfg.batch_size = 0;
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  parallel.sync();

  const std::vector<TagReport> base = rig.collect_reports();
  ASSERT_GT(base.size(), 0u);
  // Pre-filled before start() so the lone worker finds a deep lane.
  constexpr std::size_t kPre = 512;
  std::unordered_map<SwitchId, std::uint32_t> next_seq;
  for (std::size_t i = 0; i < kPre; ++i) {
    TagReport r = base[i % base.size()];
    r.seq = ++next_seq[r.outport.sw];
    ASSERT_TRUE(parallel.submit(r));
  }
  parallel.start();
  parallel.drain();
  parallel.stop();

  EXPECT_EQ(parallel.health().verified, kPre);
  EXPECT_GT(parallel.profiler().totals().batch_occupancy(), 1.0);
}

// Skewed load: every report targets ONE switch, so the whole stream
// lands in a single lane. The owning worker alone would serialize it;
// the other workers must steal from the deep lane — and the verdicts
// must be indistinguishable from unskewed execution.
TEST(ParallelServer, SkewedLaneIsRebalancedByWorkStealing) {
  Rig rig(linear(3));
  ParallelConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 1 << 19;  // never shed: skew is the subject here
  cfg.high_watermark = (1 << 19) - 1;
  cfg.dedup_window = 1 << 20;
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  parallel.sync();

  const std::vector<TagReport> base = rig.collect_reports();
  ASSERT_GT(base.size(), 0u);
  const TagReport hot = base.front();  // one switch: one lane

  // Pre-fill the hot lane so work exists the moment the pool starts.
  constexpr std::uint32_t kPre = 4096;
  std::uint32_t seq = 0;
  for (std::uint32_t i = 0; i < kPre; ++i) {
    TagReport r = hot;
    r.seq = ++seq;
    ASSERT_TRUE(parallel.submit(r));
  }
  parallel.start();
  // Keep the lane pressurised until a sibling demonstrably steals (the
  // scheduler decides when the thieves run; bound the wait by work, not
  // wall time). 1<<18 extra reports is far beyond what one worker can
  // clear before the others get scheduled even on a loaded host.
  while (parallel.profiler().totals().stolen_items == 0 &&
         seq < (1u << 18)) {
    TagReport r = hot;
    r.seq = ++seq;
    ASSERT_TRUE(parallel.submit(r));
  }
  parallel.drain();
  parallel.stop();

  const IngestHealth h = parallel.health();
  const ScalTotals prof = parallel.profiler().totals();
  EXPECT_GT(prof.stolen_items, 0u)
      << "siblings must raid the deep lane, not idle";
  EXPECT_GT(prof.steal_attempts, 0u);
  EXPECT_EQ(h.received, static_cast<std::uint64_t>(seq));
  EXPECT_EQ(h.passed, h.received) << "stolen verdicts match owned ones";
  EXPECT_EQ(h.failed, 0u);
  EXPECT_EQ(h.deduped, 0u);
  EXPECT_EQ(h.shed, 0u);
  EXPECT_EQ(h.lost_estimate, 0u)
      << "admission-time dedup keeps seq accounting exact under stealing";
  EXPECT_TRUE(h.conserved());
  EXPECT_EQ(parallel.queue_over_reported(), 0u)
      << "stolen batches complete against their source lane exactly once";
}

// TSan target: publish() swaps snapshots (each built in a fresh BDD
// arena) while producers and workers are in full flight. Epoch-stale
// reports keep verifying against the retired table of their epoch, so a
// consistent plane yields zero failures and zero stales mid-swap.
TEST(ParallelServer, SnapshotSwapMidStreamKeepsVerdictsConsistent) {
  Rig rig(fat_tree(4));
  ParallelConfig cfg;
  cfg.workers = 3;
  cfg.queue_capacity = 1 << 14;
  cfg.high_watermark = (1 << 14) - 1;
  ParallelServer parallel(rig.controller, cfg);
  parallel.enable_epoch_checking(/*snapshot_ring=*/8, /*grace_window=*/64);
  rig.install_and_deploy();
  parallel.sync();

  const std::vector<TagReport> reports = rig.collect_reports();
  ASSERT_GT(reports.size(), 0u);

  parallel.start();
  constexpr unsigned kProducers = 2;
  constexpr std::size_t kIters = 10;
  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&reports, &parallel, &submitted] {
      for (std::size_t it = 0; it < kIters; ++it)
        for (TagReport r : reports) {
          r.seq = 0;  // bypass dedup: every copy must be verified
          parallel.submit(r);
          submitted.fetch_add(1, std::memory_order_relaxed);
        }
    });
  }

  // Concurrent control plane: five rule updates, each followed by a
  // snapshot publication (a full table rebuild in a fresh arena).
  const auto& subnets = rig.topo.subnets();
  for (int i = 0; i < 5; ++i) {
    const auto& [dst_port, subnet] = subnets[static_cast<std::size_t>(i)];
    rig.controller.add_rule(dst_port.sw, 9000 + i, Match::dst_prefix(subnet),
                            Action::drop());
    parallel.publish();
    std::this_thread::yield();
  }

  for (std::thread& t : producers) t.join();
  parallel.drain();
  parallel.stop();

  const IngestHealth h = parallel.health();
  EXPECT_EQ(h.received, submitted.load());
  EXPECT_EQ(h.failed, 0u) << "swaps must never surface as inconsistency";
  EXPECT_EQ(h.stale, 0u) << "every old epoch is covered by the ring";
  EXPECT_EQ(h.passed, h.received);
  EXPECT_GE(h.snapshot_flips, 6u);
  EXPECT_GE(parallel.snapshot()->ranges.size(), 1u);
}

/// A linear(5) deployment whose middle switch forwards one rule out the
/// wrong port, so part of the ping matrix fails verification.
struct FaultyRig : Rig {
  FaultyRig() : Rig(linear(5)) {}

  /// Breaks the middle switch and returns one ping matrix of reports.
  /// Call after install_and_deploy() and the servers' sync().
  std::vector<TagReport> break_middle_switch() {
    FaultInjector inject(net);
    const SwitchId mid = 2;
    const auto& rules = net.at(mid).config().table.rules();
    if (rules.empty()) {
      ADD_FAILURE() << "no rule to break on the middle switch";
      return {};
    }
    inject.rewrite_rule_output(mid, rules.front().id,
                               rules.front().action.out == 1 ? 2 : 1);
    return collect_reports();
  }
};

/// Every retained report must be a real mismatch: it fails (not merely
/// goes stale) against the sequential server.
void expect_all_fail(Server& oracle, const std::vector<TagReport>& kept) {
  for (const TagReport& r : kept) {
    const Verdict v = oracle.verify(r);
    EXPECT_FALSE(v.ok());
    EXPECT_NE(v.status, VerifyStatus::kStaleEpoch);
  }
}

// Workers retain their batch's mismatches themselves, before task_done,
// so drain() alone guarantees take_failures() sees every one of them —
// and keeps doing so after the pool restarts.
TEST(ParallelServer, WorkersRetainEveryMismatchBeforeDrainReturns) {
  FaultyRig rig;
  Server oracle(rig.controller, Server::Mode::kFullRebuild);
  ParallelConfig cfg;
  cfg.workers = 2;
  cfg.failure_keep = 1 << 12;
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  oracle.sync();
  parallel.sync();
  const std::vector<TagReport> reports = rig.break_middle_switch();

  parallel.start();
  for (const TagReport& r : reports) parallel.submit(r);
  parallel.drain();
  const IngestHealth h = parallel.health();
  ASSERT_GT(h.failed, 0u);
  const std::vector<TagReport> failures = parallel.take_failures();
  EXPECT_EQ(failures.size(), static_cast<std::size_t>(h.failed))
      << "every mismatch is retained by the time drain() returns";
  expect_all_fail(oracle, failures);
  // Drained: a second take returns nothing.
  EXPECT_TRUE(parallel.take_failures().empty());

  // stop() → start() → drain(): the restarted pool retains the second
  // pass's mismatches the same way.
  parallel.stop();
  parallel.start();
  for (TagReport r : reports) {
    r.seq = 0;  // the first pass already noted these seqs
    parallel.submit(r);
  }
  parallel.drain();
  const IngestHealth h2 = parallel.health();
  EXPECT_EQ(h2.failed, 2 * h.failed);
  const std::vector<TagReport> again = parallel.take_failures();
  EXPECT_EQ(again.size(), static_cast<std::size_t>(h.failed));
  expect_all_fail(oracle, again);
  parallel.stop();
  EXPECT_EQ(parallel.queue_over_reported(), 0u);
}

// Retention is exact at the bound: with more mismatches than
// failure_keep, spread over many batches of two workers, exactly
// failure_keep are kept — none dropped below it, none kept above it.
TEST(ParallelServer, FailureRetentionIsExactAtFailureKeep) {
  FaultyRig rig;
  Server oracle(rig.controller, Server::Mode::kFullRebuild);
  ParallelConfig cfg = never_shed(2);
  cfg.batch_size = 4;
  cfg.failure_keep = 5;
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  oracle.sync();
  parallel.sync();
  const std::vector<TagReport> reports = rig.break_middle_switch();

  // Queued before start() so the workers find deep lanes; seq 0 skips
  // dedup so every copy is verified.
  constexpr int kCopies = 8;
  for (int copy = 0; copy < kCopies; ++copy)
    for (TagReport r : reports) {
      r.seq = 0;
      ASSERT_TRUE(parallel.submit(r));
    }
  parallel.start();
  parallel.drain();

  const IngestHealth h = parallel.health();
  ASSERT_GT(h.failed, cfg.failure_keep);
  EXPECT_GT(parallel.profiler().totals().batches, 2u);
  const std::vector<TagReport> kept = parallel.take_failures();
  EXPECT_EQ(kept.size(), std::min<std::size_t>(h.failed, cfg.failure_keep));
  expect_all_fail(oracle, kept);
  EXPECT_TRUE(parallel.take_failures().empty());
  parallel.stop();
}

// health() may be called from any thread, including while the control
// thread starts and stops the pool: the per-worker stats it merges are
// allocated with the lanes, never by start().
TEST(ParallelServer, HealthIsSafeToPollWhileThePoolRestarts) {
  Rig rig(linear(3));
  ParallelServer parallel(rig.controller, never_shed(2));
  rig.install_and_deploy();
  parallel.sync();
  const std::vector<TagReport> reports = rig.collect_reports();

  // Mid-run merges are advisory (a popped report is in no bucket yet),
  // so the poller only has to survive; TSan checks the rest.
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire))
      (void)parallel.health();
  });
  for (int cycle = 0; cycle < 3; ++cycle) {
    parallel.start();
    for (TagReport r : reports) {
      r.seq = 0;
      parallel.submit(r);
    }
    parallel.drain();
    parallel.stop();
  }
  done.store(true, std::memory_order_release);
  poller.join();
  const IngestHealth h = parallel.health();
  EXPECT_EQ(h.verified, 3 * reports.size());
  EXPECT_TRUE(h.conserved());
}

// The failsafe flag and the failsafe and publication counters live in
// the owned Server and are written by the control thread; health(),
// in_failsafe() and failsafe_events() read them from any thread.
TEST(ParallelServer, FailsafeStateIsSafeToPollFromAnyThread) {
  Rig rig(linear(4));
  ParallelServer parallel(rig.controller, never_shed(2));
  parallel.enable_epoch_checking();
  rig.install_and_deploy();
  parallel.sync();
  parallel.start();

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)parallel.health();
      (void)parallel.in_failsafe();
      (void)parallel.failsafe_events();
    }
  });
  bool wedged = false;
  parallel.set_publish_fault([&wedged] { return wedged; });
  const auto& subnets = rig.topo.subnets();
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& [dst_port, subnet] = subnets[i % subnets.size()];
    const RuleId id = rig.controller.add_rule(
        dst_port.sw, 9100 + static_cast<int>(i), Match::dst_prefix(subnet),
        Action::drop());
    wedged = true;
    parallel.publish();  // engages the failsafe
    wedged = false;
    parallel.publish();  // recovers
    rig.controller.delete_rule(dst_port.sw, id);
    parallel.publish();
  }
  done.store(true, std::memory_order_release);
  poller.join();
  parallel.stop();

  const IngestHealth h = parallel.health();
  EXPECT_EQ(h.failsafe_events, 6u);
  EXPECT_EQ(h.snapshot_flips, 1u + 2 * 6);
  EXPECT_FALSE(parallel.in_failsafe());
}

// Failsafe parity: a wedged snapshot publisher must degrade
// verification to "inconclusive" (kStaleEpoch), never to a false
// positive — and the parallel server must follow the sequential
// Server's rule step for step: the first refresh that finds the
// publisher wedged with events pending engages the failsafe once, the
// next successful one clears it.
TEST(ParallelServer, WedgedPublisherFailsOverWithoutFalsePositives) {
  Rig rig(fat_tree(4));
  Server server(rig.controller, Server::Mode::kFullRebuild);
  server.enable_epoch_checking();
  ParallelServer parallel(rig.controller, never_shed(2));
  parallel.enable_epoch_checking();
  rig.install_and_deploy();
  server.sync();
  parallel.sync();

  bool wedged = false;
  server.set_publish_fault([&] { return wedged; });
  parallel.set_publish_fault([&] { return wedged; });
  const ReportIngest ingest(server);

  // One control step: both servers refresh, then must agree — the
  // sequential ledger included.
  auto step = [&](const char* what) {
    (void)server.table();
    parallel.publish();
    EXPECT_EQ(parallel.in_failsafe(), server.in_failsafe()) << what;
    EXPECT_EQ(parallel.failsafe_events(), server.failsafe_events()) << what;
    EXPECT_EQ(parallel.health().snapshot_flips,
              ingest.health().snapshot_flips)
        << what;
  };
  const auto& subnets = rig.topo.subnets();
  ASSERT_GE(subnets.size(), 4u);
  auto churn = [&](std::size_t i, int prio) {
    const auto& [dst_port, subnet] = subnets[i];
    rig.controller.add_rule(dst_port.sw, prio, Match::dst_prefix(subnet),
                            Action::drop());
    rig.controller.deploy(rig.net);
    rig.net.set_config_epoch(rig.controller.epoch());
  };

  // Healthy path first: churn → one publish.
  churn(0, 8000);
  const std::uint64_t flips_before = parallel.health().snapshot_flips;
  step("healthy publish");
  EXPECT_EQ(parallel.health().snapshot_flips, flips_before + 1);
  EXPECT_FALSE(parallel.in_failsafe());

  // Wedge the publisher, then churn again: reports sampled under the
  // new epoch are ahead of everything the served snapshot covers.
  wedged = true;
  churn(1, 8001);
  const std::vector<TagReport> ahead = rig.collect_reports(/*t=*/1.0);
  ASSERT_FALSE(ahead.empty());
  step("wedged publish");
  EXPECT_TRUE(parallel.in_failsafe());
  EXPECT_EQ(parallel.failsafe_events(), 1u);
  step("still wedged");
  EXPECT_EQ(parallel.failsafe_events(), 1u) << "once per wedge, not per step";

  // Both serve the last published table; ahead-of-table reports from a
  // CONSISTENT plane must all pass or go stale — zero false positives.
  const SeqTotals seq = run_oracle(server, ahead);
  const SeqTotals par = verify_through_lanes(parallel, ahead);
  EXPECT_EQ(par.passed, seq.passed);
  EXPECT_EQ(par.failed, seq.failed);
  EXPECT_EQ(par.stale, seq.stale);
  EXPECT_EQ(par.failed, 0u)
      << "a wedged publisher must never manufacture a data-plane fault";
  step("verified while wedged");

  // Recovery: the wedge clears, the next publish lifts the failsafe and
  // the same reports now verify conclusively.
  wedged = false;
  step("recovered");
  EXPECT_FALSE(parallel.in_failsafe());
  EXPECT_EQ(parallel.failsafe_events(), 1u);
  const SeqTotals seq2 = run_oracle(server, ahead);
  const SeqTotals par2 = verify_through_lanes(parallel, ahead);
  EXPECT_EQ(par2.passed, seq2.passed);
  EXPECT_EQ(par2.failed, 0u);
  EXPECT_EQ(par2.stale, 0u) << "recovered: nothing is inconclusive anymore";
  EXPECT_EQ(par2.passed, ahead.size());
}

// Commanded admission regimes on the parallel ingest: kHard admits
// nothing, kSoft keeps the deterministic sample, kNormal restores
// verify-all — with the conservation law holding at quiescence and the
// transition counter edge-triggered. Concurrent submitters exercise the
// relaxed-atomic command reads under TSan.
TEST(ParallelServer, GovernedRegimesOnTheParallelIngest) {
  Rig rig(linear(4));
  ParallelConfig cfg;
  cfg.workers = 2;
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  parallel.sync();

  const std::vector<TagReport> base = rig.collect_reports();
  ASSERT_FALSE(base.empty());
  auto stamped = [&](std::uint32_t lo) {
    std::vector<TagReport> out = base;
    std::uint32_t s = lo;
    for (TagReport& r : out) r.seq = s++;
    return out;
  };

  parallel.start();

  // kHard: every submit is refused and counted shed.
  parallel.govern(AdmissionRegime::kHard, 64);
  for (const TagReport& r : stamped(1000)) EXPECT_FALSE(parallel.submit(r));
  parallel.drain();
  IngestHealth h = parallel.health();
  EXPECT_EQ(h.verified, 0u);
  EXPECT_EQ(h.shed, base.size());
  EXPECT_EQ(h.regime, AdmissionRegime::kHard);
  EXPECT_TRUE(h.conserved());

  // kSoft with modulus 4 from two concurrent producers: exactly the
  // seq % 4 == 0 subset of each producer's disjoint seq range survives.
  parallel.govern(AdmissionRegime::kSoft, 4);
  const std::vector<TagReport> a = stamped(2000);
  const std::vector<TagReport> b = stamped(3000);
  std::thread pa([&] {
    for (const TagReport& r : a) parallel.submit(r);
  });
  std::thread pb([&] {
    for (const TagReport& r : b) parallel.submit(r);
  });
  pa.join();
  pb.join();
  parallel.drain();
  h = parallel.health();
  const auto kept = static_cast<std::uint64_t>((a.size() + 3) / 4 +
                                               (b.size() + 3) / 4);
  EXPECT_EQ(h.verified, kept) << "deterministic sample, whatever the "
                                 "submit interleaving";
  EXPECT_TRUE(h.conserved());

  // kNormal: verify-all resumes; transitions counted once per edge.
  parallel.govern(AdmissionRegime::kNormal, 1);
  parallel.govern(AdmissionRegime::kNormal, 1);
  for (const TagReport& r : stamped(4000)) EXPECT_TRUE(parallel.submit(r));
  parallel.drain();
  parallel.stop();
  h = parallel.health();
  EXPECT_EQ(h.verified, kept + base.size());
  EXPECT_EQ(h.failed, 0u);
  EXPECT_EQ(h.regime, AdmissionRegime::kNormal);
  EXPECT_EQ(h.regime_transitions, 3u) << "hard, soft, normal — one each";
  EXPECT_TRUE(h.conserved());
  EXPECT_EQ(h.in_queue, 0u);
}

}  // namespace
}  // namespace veridp
