// ReportIngest tests: decode quarantine, sequence dedup, loss accounting,
// bounded-queue load shedding, and the conservation law passed + failed +
// stale + shed + quarantined + deduped (+ in-queue) == received.
#include "veridp/ingest.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "controller/routing.hpp"
#include "dataplane/wire.hpp"
#include "testutil.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

// One self-contained rig: a consistent linear(3) plane plus a server.
struct Rig {
  Topology topo = linear(3);
  Controller c{topo};
  Server server{c, Server::Mode::kFullRebuild};
  Network net{topo};

  Rig() {
    routing::install_shortest_paths(c);
    server.sync();
    c.deploy(net);
  }

  /// Injects one known-good flow and returns its tag report.
  TagReport one_report() {
    const auto r = net.inject(
        testutil::header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1)),
        PortKey{0, 3});
    EXPECT_EQ(r.reports.size(), 1u);
    return r.reports.front();
  }
};

TEST(Ingest, CleanReportsPassAndBalance) {
  Rig rig;
  ReportIngest ingest(rig.server);
  std::uint64_t offered = 0;
  for (const auto& flow : workload::ping_all(rig.topo)) {
    const auto r = rig.net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports) {
      EXPECT_TRUE(ingest.offer(wire::encode_report(rep)));
      ++offered;
    }
  }
  ingest.process();
  const IngestHealth h = ingest.health();
  EXPECT_EQ(h.received, offered);
  EXPECT_EQ(h.passed, offered);
  EXPECT_EQ(h.failed, 0u);
  EXPECT_EQ(h.accounted(), h.received);
  EXPECT_EQ(ingest.queue_depth(), 0u);
}

TEST(Ingest, MalformedDatagramsAreQuarantinedNeverInterpreted) {
  Rig rig;
  ReportIngest ingest(rig.server);
  const auto good = wire::encode_report(rig.one_report());

  auto truncated = good;
  truncated.resize(good.size() / 2);
  EXPECT_FALSE(ingest.offer(truncated));

  auto flipped = good;
  flipped[17] ^= 0x40;  // checksum catches it
  EXPECT_FALSE(ingest.offer(flipped));

  EXPECT_FALSE(ingest.offer({0xde, 0xad, 0xbe, 0xef}));

  const IngestHealth h = ingest.health();
  EXPECT_EQ(h.received, 3u);
  EXPECT_EQ(h.quarantined, 3u);
  EXPECT_EQ(ingest.queue_depth(), 0u);
  EXPECT_EQ(h.accounted(), h.received);
}

TEST(Ingest, DuplicateSequencesAreSuppressed) {
  Rig rig;
  ReportIngest ingest(rig.server);
  const auto bytes = wire::encode_report(rig.one_report());
  EXPECT_TRUE(ingest.offer(bytes));
  EXPECT_FALSE(ingest.offer(bytes));  // retransmit / channel duplicate
  EXPECT_FALSE(ingest.offer(bytes));
  ingest.process();
  const IngestHealth h = ingest.health();
  EXPECT_EQ(h.received, 3u);
  EXPECT_EQ(h.passed, 1u);
  EXPECT_EQ(h.deduped, 2u);
  EXPECT_EQ(h.accounted(), h.received);
}

TEST(Ingest, SequenceGapsDriveTheLossEstimate) {
  Rig rig;
  ReportIngest ingest(rig.server);
  TagReport base = rig.one_report();
  // The channel delivered seqs {1, 2, 5, 9}: 1..9 minus 5 unique → 5 lost.
  for (std::uint32_t s : {1u, 2u, 5u, 9u}) {
    TagReport r = base;
    r.seq = s;
    ingest.offer_report(r);
  }
  EXPECT_EQ(ingest.health().lost_estimate, 5u);
}

TEST(Ingest, OverloadShedsDeterministicallyAndStaysBounded) {
  Rig rig;
  IngestConfig cfg;
  cfg.capacity = 16;
  cfg.high_watermark = 8;
  cfg.shed_modulus = 4;
  ReportIngest ingest(rig.server, cfg);

  const TagReport base = rig.one_report();
  const std::uint32_t flood = 500;
  for (std::uint32_t s = 1; s <= flood; ++s) {
    TagReport r = base;
    r.seq = s + 1;  // seq 1 was used by one_report()
    ingest.offer_report(r);
  }

  // The queue never grew past its hard bound, shedding engaged, and the
  // kept sample is the deterministic seq % 4 == 0 subset.
  EXPECT_LE(ingest.queue_depth(), cfg.capacity);
  EXPECT_TRUE(ingest.shedding());
  IngestHealth h = ingest.health();
  EXPECT_EQ(h.received, flood);
  EXPECT_GT(h.shed, 0u);
  EXPECT_EQ(h.accounted() + ingest.queue_depth(), h.received)
      << "every datagram is in exactly one bucket";

  // Draining the queue closes the books: accounted == received.
  ingest.process();
  h = ingest.health();
  EXPECT_EQ(ingest.queue_depth(), 0u);
  EXPECT_EQ(h.accounted(), h.received);
  EXPECT_GT(h.passed, 0u);
  EXPECT_EQ(h.failed, 0u) << "shedding must not manufacture failures";
}

TEST(Ingest, ConfigValidationRejectsDegenerateConfigs) {
  Rig rig;
  // The parallel server must accept exactly the bounds the ingest does.
  const auto parallel_with = [&rig](const IngestConfig& icfg) {
    ParallelConfig pcfg;
    pcfg.workers = 1;
    pcfg.queue_capacity = icfg.capacity;
    pcfg.high_watermark = icfg.high_watermark;
    pcfg.shed_modulus = icfg.shed_modulus;
    ParallelServer ps(rig.c, pcfg);
  };
  IngestConfig cfg;
  cfg.capacity = 0;
  EXPECT_THROW(ReportIngest(rig.server, cfg), std::invalid_argument);
  EXPECT_THROW(parallel_with(cfg), std::invalid_argument);

  cfg = {};
  cfg.high_watermark = cfg.capacity;  // shedding could never engage
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(parallel_with(cfg), std::invalid_argument);
  cfg.high_watermark = cfg.capacity + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(parallel_with(cfg), std::invalid_argument);

  cfg = {};
  cfg.shed_modulus = 0;  // seq % 0 is UB
  EXPECT_THROW(ReportIngest(rig.server, cfg), std::invalid_argument);
  EXPECT_THROW(parallel_with(cfg), std::invalid_argument);

  EXPECT_NO_THROW(IngestConfig{}.validate());
  EXPECT_NO_THROW(parallel_with(IngestConfig{}));
}

TEST(Ingest, ConservationHoldsMidFlightNotOnlyAfterDrain) {
  Rig rig;
  IngestConfig cfg;
  cfg.capacity = 16;
  cfg.high_watermark = 8;
  ReportIngest ingest(rig.server, cfg);
  const TagReport base = rig.one_report();
  for (std::uint32_t s = 2; s <= 100; ++s) {
    TagReport r = base;
    r.seq = s;
    ingest.offer_report(r);
    const IngestHealth h = ingest.health();
    ASSERT_TRUE(h.conserved())
        << "after offer #" << s << ": accounted=" << h.accounted()
        << " in_queue=" << h.in_queue << " received=" << h.received;
    if (s % 7 == 0) {
      ingest.process(3);  // partial drains between offers
      ASSERT_TRUE(ingest.health().conserved());
    }
  }
  ingest.process();
  const IngestHealth h = ingest.health();
  EXPECT_EQ(h.in_queue, 0u);
  EXPECT_TRUE(h.conserved());
}

TEST(Ingest, WatermarkBoundaryExactlyAtAndOneAbove) {
  Rig rig;
  IngestConfig cfg;
  cfg.capacity = 16;
  cfg.high_watermark = 4;
  cfg.shed_modulus = 1000;  // shed everything once the watermark engages
  ReportIngest ingest(rig.server, cfg);
  const TagReport base = rig.one_report();
  auto offer_seq = [&](std::uint32_t s) {
    TagReport r = base;
    r.seq = s;
    return ingest.offer_report(r);
  };
  // Depths 0..3 admit freely; shedding() stays off below the watermark.
  for (std::uint32_t s = 2; s <= 5; ++s) {
    EXPECT_FALSE(ingest.shedding()) << "depth " << ingest.queue_depth();
    EXPECT_TRUE(offer_seq(s));
  }
  // Exactly AT the watermark: shedding engages for the next offer.
  ASSERT_EQ(ingest.queue_depth(), cfg.high_watermark);
  EXPECT_TRUE(ingest.shedding());
  EXPECT_FALSE(offer_seq(6)) << "seq 6 % 1000 != 0 is shed at the mark";
  EXPECT_FALSE(offer_seq(7));
  EXPECT_EQ(ingest.queue_depth(), cfg.high_watermark);
  // The deterministic keeper still gets through one above the mark.
  EXPECT_TRUE(offer_seq(1000));
  EXPECT_EQ(ingest.queue_depth(), cfg.high_watermark + 1);
  // Draining below the watermark disengages shedding (legacy policy has
  // no hysteresis — the governed regime machine is what adds it).
  ingest.process(2);
  EXPECT_FALSE(ingest.shedding());
  EXPECT_TRUE(offer_seq(8));
  EXPECT_TRUE(ingest.health().conserved());
}

TEST(Ingest, GovernedRegimesApplyTheirDeclaredPolicies) {
  Rig rig;
  IngestConfig cfg;
  cfg.capacity = 32;
  cfg.high_watermark = 4;  // would shed ungoverned; governed ignores it
  ReportIngest ingest(rig.server, cfg);
  const TagReport base = rig.one_report();
  auto offer_seq = [&](std::uint32_t s) {
    TagReport r = base;
    r.seq = s;
    return ingest.offer_report(r);
  };

  // kNormal / kVerifyAll: everything up to capacity is admitted — the
  // legacy watermark no longer sheds.
  ingest.govern(AdmissionRegime::kNormal, 1);
  for (std::uint32_t s = 2; s < 12; ++s) EXPECT_TRUE(offer_seq(s));
  EXPECT_EQ(ingest.health().shed, 0u);
  EXPECT_FALSE(ingest.shedding());

  // kSoft / kDeterministicSample: only seq % modulus == 0 survives.
  ingest.govern(AdmissionRegime::kSoft, 4);
  EXPECT_TRUE(ingest.shedding());
  EXPECT_TRUE(offer_seq(16));
  EXPECT_FALSE(offer_seq(17));
  EXPECT_FALSE(offer_seq(18));
  EXPECT_TRUE(offer_seq(20));

  // kHard / kQuarantineOnly: nothing reaches the queue, but dedup and
  // the books keep running.
  const std::size_t depth_before_hard = ingest.queue_depth();
  ingest.govern(AdmissionRegime::kHard, 64);
  EXPECT_FALSE(offer_seq(24)) << "well-formed reports are shed in kHard";
  EXPECT_FALSE(offer_seq(64));
  EXPECT_EQ(ingest.queue_depth(), depth_before_hard);
  EXPECT_FALSE(offer_seq(24)) << "duplicate of a shed report";
  IngestHealth h = ingest.health();
  EXPECT_EQ(h.deduped, 1u) << "dedup still decides before the regime";

  // Edge-triggered transition accounting: the initial govern(kNormal)
  // matched the starting regime (no edge), then soft and hard each
  // counted once; re-applying a regime is free.
  EXPECT_EQ(h.regime_transitions, 2u);
  ingest.govern(AdmissionRegime::kHard, 64);
  ingest.govern(AdmissionRegime::kHard, 32);  // modulus-only update
  EXPECT_EQ(ingest.health().regime_transitions, 2u);
  EXPECT_EQ(ingest.regime(), AdmissionRegime::kHard);

  ingest.process();
  h = ingest.health();
  EXPECT_TRUE(h.conserved());
  EXPECT_EQ(h.failed, 0u);
}

// Failed reports leave the ingest through the verdict sink; its
// consumer keeps them as the inputs for localization.
TEST(Ingest, FailuresAreKeptForLocalization) {
  Rig rig;
  ReportIngest ingest(rig.server);
  std::vector<TagReport> failures;
  ingest.set_verdict_sink([&failures](const TagReport& r, const Verdict& v) {
    if (v.failed()) failures.push_back(r);
  });
  TagReport bogus = rig.one_report();
  bogus.outport = PortKey{2, 9};  // a port the logical config never uses
  bogus.seq = 100;
  ingest.offer_report(bogus);
  ingest.process();
  const IngestHealth h = ingest.health();
  EXPECT_EQ(h.failed, 1u);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures.front().outport, bogus.outport);
}

// The Intake both servers run, on its own: dedup is per switch and
// skips seq 0, admission is the policy's at the caller's depth, and
// every offer lands in exactly one intake bucket or is admitted.
TEST(Intake, DedupsPerSwitchThenAdmitsByPolicy) {
  constexpr auto kAll = AdmissionPolicy::kVerifyAll;
  Intake intake(/*capacity=*/4, /*dedup_window=*/64);
  EXPECT_TRUE(intake.offer(1, 7, kAll, 0, 4));
  EXPECT_FALSE(intake.offer(1, 7, kAll, 1, 4)) << "repeat seq: deduped";
  EXPECT_TRUE(intake.offer(2, 7, kAll, 1, 4)) << "seq spaces are per switch";
  EXPECT_TRUE(intake.offer(1, 0, kAll, 2, 4)) << "seq 0 is never deduped";
  EXPECT_TRUE(intake.offer(1, 0, kAll, 3, 4));
  EXPECT_FALSE(intake.offer(1, 8, kAll, 4, 4)) << "full: shed";
  EXPECT_FALSE(intake.offer(1, 9, AdmissionPolicy::kDeterministicSample, 0, 4))
      << "9 % 4 != 0: shed";
  EXPECT_TRUE(intake.offer(1, 12, AdmissionPolicy::kDeterministicSample, 0, 4));
  EXPECT_FALSE(intake.offer(1, 16, AdmissionPolicy::kQuarantineOnly, 0, 4));
  intake.quarantine();

  IngestHealth h;
  intake.fold_into(h);
  EXPECT_EQ(h.received, 10u);
  EXPECT_EQ(h.deduped, 1u);
  EXPECT_EQ(h.shed, 3u);
  EXPECT_EQ(h.quarantined, 1u);
  EXPECT_EQ(h.received - h.accounted(), 5u) << "the admitted offers";
  // Switch 1 saw seqs 7, 8, 9, 12, 16: span 10, 5 unique. Switch 2: 7.
  EXPECT_EQ(h.lost_estimate, 5u);
}

}  // namespace
}  // namespace veridp
