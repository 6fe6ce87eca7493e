// Sharded per-switch ingest (DESIGN.md §6): duplicate suppression and
// loss estimation must stay EXACT when one switch's reports arrive via
// different producer threads — the shard lock serializes the per-switch
// SeqTracker, so no duplicate is double-counted and no fresh sequence
// number is falsely dropped, whatever the thread interleaving. The
// definition of "duplicate"/"lost" is the same SeqTracker the sequential
// ReportIngest uses, so expectations are computed with a sequential
// oracle over the same multiset of sequence numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "controller/routing.hpp"
#include "testutil.hpp"
#include "veridp/ingest.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/seq_tracker.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

struct Rig {
  Topology topo;
  Controller controller;
  Network net;

  explicit Rig(Topology t)
      : topo(std::move(t)), controller(topo), net(topo) {
    routing::install_shortest_paths(controller);
  }

  void deploy() {
    controller.deploy(net);
    net.set_config_epoch(controller.epoch());
  }

  /// One verifiable report per distinct reporting switch.
  std::vector<TagReport> one_report_per_switch() {
    std::vector<TagReport> out;
    for (const auto& f : workload::ping_all(topo))
      for (const TagReport& r : net.inject(f.header, f.entry, 0.0).reports) {
        const auto same_sw = [&r](const TagReport& o) {
          return o.outport.sw == r.outport.sw;
        };
        if (std::none_of(out.begin(), out.end(), same_sw)) out.push_back(r);
      }
    return out;
  }
};

ParallelConfig wide_open(unsigned workers) {
  ParallelConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 1 << 16;  // shedding has its own test below
  cfg.high_watermark = (1 << 16) - 1;
  cfg.dedup_window = 1 << 16;
  return cfg;
}

/// Submits `reports[i]` for i ≡ p (mod producers) from thread p.
void fan_out(ParallelServer& ps, const std::vector<TagReport>& reports,
             unsigned producers) {
  std::vector<std::thread> pool;
  for (unsigned p = 0; p < producers; ++p)
    pool.emplace_back([&ps, &reports, p, producers] {
      for (std::size_t i = p; i < reports.size(); i += producers)
        ps.submit(reports[i]);
    });
  for (std::thread& t : pool) t.join();
}

TEST(ShardedIngest, DedupAcrossProducerThreadsIsExact) {
  Rig rig(linear(3));
  ParallelServer ps(rig.controller, wide_open(/*workers=*/2));
  rig.deploy();
  ps.sync();

  const std::vector<TagReport> base = rig.one_report_per_switch();
  ASSERT_FALSE(base.empty());

  // 400 distinct seqs, each sent exactly twice, shuffled so the two
  // copies of a seq usually land on DIFFERENT producer threads.
  constexpr std::uint32_t kSeqs = 400;
  std::vector<TagReport> stream;
  for (std::uint32_t s = 1; s <= kSeqs; ++s)
    for (int copy = 0; copy < 2; ++copy) {
      TagReport r = base.front();
      r.seq = s;
      stream.push_back(r);
    }
  Rng rng(0xd5ffULL);
  std::shuffle(stream.begin(), stream.end(), rng.engine());

  ps.start();
  fan_out(ps, stream, /*producers=*/4);
  ps.drain();
  ps.stop();

  const IngestHealth h = ps.health();
  EXPECT_EQ(h.received, 2ull * kSeqs);
  EXPECT_EQ(h.deduped, static_cast<std::uint64_t>(kSeqs))
      << "exactly one copy of each seq survives, never zero, never two";
  EXPECT_EQ(h.passed, static_cast<std::uint64_t>(kSeqs));
  EXPECT_EQ(h.failed, 0u);
  EXPECT_EQ(h.shed, 0u);
  EXPECT_EQ(h.lost_estimate, 0u) << "contiguous seqs show no gap";
  EXPECT_EQ(h.accounted(), h.received);
}

TEST(ShardedIngest, LossEstimateMatchesSequentialTrackerOracle) {
  Rig rig(linear(3));
  ParallelServer ps(rig.controller, wide_open(/*workers=*/2));
  rig.deploy();
  ps.sync();

  const std::vector<TagReport> base = rig.one_report_per_switch();
  ASSERT_FALSE(base.empty());

  // Seqs 1..300 with every multiple of 7 "lost in transit".
  std::vector<std::uint32_t> seqs;
  for (std::uint32_t s = 1; s <= 300; ++s)
    if (s % 7 != 0) seqs.push_back(s);
  SeqTracker oracle(1 << 16);
  for (std::uint32_t s : seqs) oracle.note(s);
  ASSERT_GT(oracle.lost_estimate(), 0u);

  std::vector<TagReport> stream;
  for (std::uint32_t s : seqs) {
    TagReport r = base.front();
    r.seq = s;
    stream.push_back(r);
  }
  Rng rng(0x10557ULL);
  std::shuffle(stream.begin(), stream.end(), rng.engine());

  ps.start();
  fan_out(ps, stream, /*producers=*/4);
  ps.drain();
  ps.stop();

  const IngestHealth h = ps.health();
  EXPECT_EQ(h.received, seqs.size());
  EXPECT_EQ(h.deduped, 0u) << "gaps must not be mistaken for duplicates";
  EXPECT_EQ(h.lost_estimate, oracle.lost_estimate());
  EXPECT_EQ(h.passed, seqs.size());
  EXPECT_EQ(h.accounted(), h.received);
}

// Sequence spaces are per switch: the same seq number arriving from two
// switches is two distinct reports, even when the switches map to the
// SAME lane (more switches than lanes forces sharing).
TEST(ShardedIngest, PerSwitchSequenceSpacesAreIndependent) {
  Rig rig(linear(4));
  ParallelServer ps(rig.controller, wide_open(/*workers=*/2));
  rig.deploy();
  ps.sync();

  const std::vector<TagReport> per_switch = rig.one_report_per_switch();
  ASSERT_GE(per_switch.size(), 3u) << "need several reporting switches";

  constexpr std::uint32_t kSeqs = 100;
  std::vector<TagReport> stream;
  for (const TagReport& base : per_switch)
    for (std::uint32_t s = 1; s <= kSeqs; ++s) {
      TagReport r = base;
      r.seq = s;  // the SAME seq range for every switch
      stream.push_back(r);
    }
  Rng rng(0x5eedULL);
  std::shuffle(stream.begin(), stream.end(), rng.engine());

  ps.start();
  fan_out(ps, stream, /*producers=*/4);
  ps.drain();

  IngestHealth h = ps.health();
  EXPECT_EQ(h.received, per_switch.size() * kSeqs);
  EXPECT_EQ(h.deduped, 0u)
      << "switch A's seq 7 is not a duplicate of switch B's seq 7";
  EXPECT_EQ(h.passed, per_switch.size() * kSeqs);
  EXPECT_EQ(h.lost_estimate, 0u);

  // Re-sending the whole stream now dedups ALL of it, per switch.
  fan_out(ps, stream, /*producers=*/4);
  ps.drain();
  ps.stop();
  h = ps.health();
  EXPECT_EQ(h.deduped, per_switch.size() * kSeqs);
  EXPECT_EQ(h.accounted(), h.received);
}

// Overload: with a tiny queue and the workers held back, the watermark
// shedding (keep seq % modulus == 0) and the hard capacity bound engage;
// the conservation law must still hold exactly across producer threads.
TEST(ShardedIngest, SheddingUnderOverloadStillConserves) {
  Rig rig(linear(3));
  ParallelConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  cfg.high_watermark = 16;
  cfg.shed_modulus = 4;
  cfg.dedup_window = 1 << 16;
  ParallelServer ps(rig.controller, cfg);
  rig.deploy();
  ps.sync();

  const std::vector<TagReport> base = rig.one_report_per_switch();
  ASSERT_FALSE(base.empty());

  constexpr std::uint32_t kFlood = 5000;
  std::vector<TagReport> stream;
  for (std::uint32_t s = 1; s <= kFlood; ++s) {
    TagReport r = base.front();
    r.seq = s;
    stream.push_back(r);
  }

  // Producers flood BEFORE the pool starts: the queue saturates
  // deterministically instead of racing worker speed.
  fan_out(ps, stream, /*producers=*/4);
  ps.start();
  ps.drain();
  ps.stop();

  const IngestHealth h = ps.health();
  EXPECT_EQ(h.received, static_cast<std::uint64_t>(kFlood));
  EXPECT_GT(h.shed, 0u);
  EXPECT_GT(h.passed, 0u) << "shedding thins the stream, never kills it";
  EXPECT_EQ(h.failed, 0u);
  EXPECT_EQ(h.deduped, 0u);
  EXPECT_EQ(h.accounted(), h.received)
      << "every flooded report lands in exactly one bucket";
  EXPECT_EQ(h.verified + h.shed + h.deduped + h.quarantined, h.received);
}

// The hard bound splits evenly across the lanes: with 2 lanes and a
// queue_capacity of 8, concurrent producers flooding one switch fill its
// lane to exactly 4 — admission reads the exact depth under the lane's
// lock — and the rest is shed.
TEST(ShardedIngest, LaneHoldsAtMostItsShareOfQueueCapacity) {
  Rig rig(linear(3));
  ParallelConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  cfg.high_watermark = 4;
  ParallelServer ps(rig.controller, cfg);
  rig.deploy();
  ps.sync();
  TagReport r = rig.one_report_per_switch().front();
  r.seq = 0;  // never deduplicated, always in the shed sample
  const std::vector<TagReport> flood(200, r);
  fan_out(ps, flood, /*producers=*/4);
  EXPECT_EQ(ps.queue_depth(), 4u);
  const IngestHealth h = ps.health();
  EXPECT_EQ(h.in_queue, 4u);
  EXPECT_EQ(h.shed, flood.size() - 4);
  EXPECT_TRUE(h.conserved());
}

// Admission parity: a fresh ReportIngest and an unstarted 1-lane
// ParallelServer with equal bounds (capacity 16, watermark 8, modulus
// 4), fed seqs 1..n of one switch. Returns the seqs each admitted.
struct Admitted {
  std::vector<std::uint32_t> ingest, parallel;
};

Admitted admit_both(Rig& rig, std::optional<AdmissionRegime> regime,
                    std::uint32_t govern_modulus, std::uint32_t n) {
  Server server(rig.controller, Server::Mode::kFullRebuild);
  IngestConfig icfg;
  icfg.capacity = 16;
  icfg.high_watermark = 8;
  icfg.shed_modulus = 4;
  ReportIngest ingest(server, icfg);
  ParallelConfig pcfg;
  pcfg.workers = 1;
  pcfg.queue_capacity = 16;
  pcfg.high_watermark = 8;
  pcfg.shed_modulus = 4;
  ParallelServer ps(rig.controller, pcfg);
  if (regime) {
    ingest.govern(*regime, govern_modulus);
    ps.govern(*regime, govern_modulus);
  }
  rig.deploy();
  TagReport r = rig.one_report_per_switch().front();
  Admitted out;
  for (r.seq = 1; r.seq <= n; ++r.seq) {
    if (ingest.offer_report(r)) out.ingest.push_back(r.seq);
    if (ps.submit(r)) out.parallel.push_back(r.seq);
  }
  return out;
}

TEST(ShardedIngest, GovernWithZeroModulusKeepsTheConfiguredModulus) {
  Rig rig(linear(3));
  const Admitted a = admit_both(rig, AdmissionRegime::kSoft, 0, 16);
  EXPECT_EQ(a.ingest, (std::vector<std::uint32_t>{4, 8, 12, 16}));
  EXPECT_EQ(a.parallel, a.ingest)
      << "kSoft with modulus 0 keeps 1 in 4 on both servers";
}

TEST(ShardedIngest, AdmissionMatchesTheSequentialIngest) {
  Rig rig(linear(3));
  const std::optional<AdmissionRegime> regimes[] = {
      std::nullopt, AdmissionRegime::kNormal, AdmissionRegime::kSoft,
      AdmissionRegime::kHard};
  for (const auto& regime : regimes) {
    const Admitted a = admit_both(rig, regime, 4, 40);
    EXPECT_EQ(a.parallel, a.ingest)
        << "regime " << (regime ? to_string(*regime) : "ungoverned");
    EXPECT_LT(a.ingest.size(), 40u) << "every case sheds something";
  }
}

// The lane split may not round a lane up to one report: with 8 lanes a
// queue_capacity of 4 would queue 8.
TEST(ShardedIngest, CapacityBelowTheLaneCountIsRejected) {
  Rig rig(linear(3));
  ParallelConfig cfg;
  cfg.workers = 8;
  cfg.queue_capacity = 4;
  cfg.high_watermark = 3;
  EXPECT_THROW(ParallelServer(rig.controller, cfg), std::invalid_argument);
  cfg.queue_capacity = 8;
  cfg.high_watermark = 7;
  EXPECT_NO_THROW(ParallelServer(rig.controller, cfg));
}

}  // namespace
}  // namespace veridp
