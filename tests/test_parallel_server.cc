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

#include <atomic>
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

TEST(ParallelServer, StreamTotalsBitIdenticalToSequential) {
  Rig rig(fat_tree(4));
  Server oracle(rig.controller, Server::Mode::kFullRebuild);
  ParallelConfig cfg;
  cfg.workers = 4;
  ParallelServer parallel(rig.controller, cfg);
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

  const ParallelServer::StreamTotals par = parallel.verify_stream(reports, 4);
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
  ParallelConfig cfg;
  cfg.workers = 4;
  ParallelServer parallel(rig.controller, cfg);
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

  const ParallelServer::StreamTotals par = parallel.verify_stream(reports, 4);
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
  ParallelConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = 1 << 16;  // no shedding: shed decisions are
  cfg.high_watermark = 1 << 16;  // timing-dependent, tested separately
  cfg.shards = 8;
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
  icfg.failure_keep = 1 << 16;
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
  ParallelConfig cfg;
  cfg.workers = 3;
  cfg.queue_capacity = 1 << 16;
  cfg.high_watermark = 1 << 16;
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
  ParallelConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 1 << 16;
  cfg.high_watermark = 1 << 16;
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

// batch_size = 0 means "autotune", as IngestConfig::batch_size does; it
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
  cfg.high_watermark = 1 << 19;
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
  cfg.high_watermark = 1 << 14;
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
  EXPECT_GE(parallel.snapshots_published(), 6u);
  EXPECT_GE(parallel.snapshot()->ranges.size(), 1u);
}

TEST(ParallelServer, MismatchesFeedSingleConsumerLocalizationStage) {
  Rig rig(linear(5));
  Server oracle(rig.controller, Server::Mode::kFullRebuild);
  ParallelConfig cfg;
  cfg.workers = 2;
  cfg.failure_keep = 1 << 12;
  ParallelServer parallel(rig.controller, cfg);
  rig.install_and_deploy();
  oracle.sync();
  parallel.sync();

  // Break a middle switch so sampled packets deviate.
  FaultInjector inject(rig.net);
  const SwitchId mid = 2;
  const auto& rules = rig.net.at(mid).config().table.rules();
  ASSERT_FALSE(rules.empty());
  inject.rewrite_rule_output(mid, rules.front().id,
                             rules.front().action.out == 1 ? 2 : 1);
  const std::vector<TagReport> reports = rig.collect_reports();

  parallel.start();
  for (const TagReport& r : reports) parallel.submit(r);
  parallel.drain();
  parallel.stop();

  const IngestHealth h = parallel.health();
  ASSERT_GT(h.failed, 0u);
  const std::vector<TagReport> failures = parallel.take_failures();
  EXPECT_EQ(failures.size(), static_cast<std::size_t>(h.failed))
      << "every mismatch reaches the localization stage";
  // The stage's output feeds Algorithm 4 exactly like the sequential
  // server's recent_failures path.
  const LocalizeResult par = parallel.localize(failures.front());
  const LocalizeResult seq = oracle.localize(failures.front());
  EXPECT_EQ(par.candidates.size(), seq.candidates.size());
  // Drained: a second take returns nothing.
  EXPECT_TRUE(parallel.take_failures().empty());
}

// A/B epoch-flip failsafe: a wedged snapshot publisher must degrade
// verification to "inconclusive" (kStaleEpoch), never to a false
// positive, and the watchdog must fire within one heartbeat deadline.
TEST(ParallelServer, WedgedPublisherFailsOverWithoutFalsePositives) {
  Rig rig(fat_tree(4));
  ParallelConfig cfg;
  cfg.workers = 2;
  ParallelServer parallel(rig.controller, cfg);
  parallel.enable_epoch_checking();
  rig.install_and_deploy();
  parallel.sync();

  std::atomic<bool> wedged{false};
  parallel.set_publish_fault([&] { return wedged.load(); });

  // Healthy heartbeat path first: churn → one heartbeat publishes.
  const auto& subnets = rig.topo.subnets();
  ASSERT_GE(subnets.size(), 4u);
  auto churn = [&](std::size_t i, int prio) {
    const auto& [dst_port, subnet] = subnets[i];
    rig.controller.add_rule(dst_port.sw, prio, Match::dst_prefix(subnet),
                            Action::drop());
    rig.controller.deploy(rig.net);
    rig.net.set_config_epoch(rig.controller.epoch());
  };
  churn(0, 8000);
  const std::uint64_t flips_before = parallel.health().snapshot_flips;
  EXPECT_FALSE(parallel.heartbeat(/*deadline_ticks=*/2));
  EXPECT_EQ(parallel.health().snapshot_flips, flips_before + 1);
  EXPECT_FALSE(parallel.in_failsafe());

  // Wedge the publisher, then churn again: reports sampled under the
  // new epoch are ahead of everything the served snapshot covers.
  wedged.store(true);
  churn(1, 8001);
  const std::vector<TagReport> ahead = rig.collect_reports(/*t=*/1.0);
  ASSERT_FALSE(ahead.empty());

  // The watchdog fires within the deadline: tick 1 misses, tick 2 trips.
  EXPECT_FALSE(parallel.heartbeat(2));
  EXPECT_EQ(parallel.failsafe_events(), 0u);
  EXPECT_TRUE(parallel.heartbeat(2)) << "deadline reached: failsafe";
  EXPECT_TRUE(parallel.in_failsafe());
  EXPECT_EQ(parallel.failsafe_events(), 1u);
  EXPECT_TRUE(parallel.heartbeat(2)) << "still wedged";
  EXPECT_EQ(parallel.failsafe_events(), 1u) << "edge-triggered, not per tick";

  // Served snapshot is the last-good slot; ahead-of-table reports from a
  // CONSISTENT plane must all pass or go stale — zero false positives.
  const ParallelServer::StreamTotals t = parallel.verify_stream(ahead, 2);
  EXPECT_EQ(t.failed, 0u)
      << "a wedged publisher must never manufacture a data-plane fault";
  EXPECT_EQ(t.verified, ahead.size());

  // Recovery: the wedge clears, the next heartbeat publishes and the
  // failsafe lifts; the same reports now verify conclusively.
  wedged.store(false);
  EXPECT_FALSE(parallel.heartbeat(2));
  EXPECT_FALSE(parallel.in_failsafe());
  const ParallelServer::StreamTotals r = parallel.verify_stream(ahead, 2);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.stale, 0u) << "recovered: nothing is inconclusive anymore";
  EXPECT_EQ(r.passed, ahead.size());
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
  cfg.shards = 4;
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
