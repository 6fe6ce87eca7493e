// Control-loop invariants harness: a seeded chaos campaign driving the
// full closed-loop stack —
//
//   switches --wire--> ReportChannel (drop/dup/reorder/corrupt)
//            --datagrams--> governed ReportIngest (regime admission)
//            --reports--> Server (epoch-aware, A/B failsafe)
//            ^ IngestGovernor ticks: observe pressure, command regime +
//              shed modulus + data-plane sampling factor
//
// through load phases (idle → flood → cooldown), continuous config
// churn, and a publisher-wedge window injected via the fault hook.
// Invariants asserted at every step, for every seed:
//
//  * conservation — every received datagram is in exactly one bucket or
//    in-queue, mid-flight, after every single offer and tick;
//  * zero false positives — the plane is consistent throughout (churn
//    only installs controller-deployed blackholes), so failed == 0
//    whatever the transport faults, regime churn or wedge timing;
//  * monotone regime transitions — every recorded transition crossed
//    the matching hysteresis edge in the right direction;
//  * failsafe — the wedge is detected (edge-triggered, exactly once per
//    wedge window) and recovery republishes and re-converges.
#include <gtest/gtest.h>

#include "controller/routing.hpp"
#include "dataplane/wire.hpp"
#include "testutil.hpp"
#include "veridp/channel.hpp"
#include "veridp/control_loop.hpp"
#include "veridp/ingest.hpp"
#include "veridp/server.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

struct CampaignCase {
  const char* name;
  std::uint32_t seed;
  double drop;
  double dup;
  double reorder;
  double corrupt;
};

class ControlChaos : public ::testing::TestWithParam<CampaignCase> {};

/// Every regime transition must have crossed the matching hysteresis
/// edge: rising regimes require pressure at/above the new regime's enter
/// threshold, falling regimes require pressure below the old regime's
/// exit threshold. This is the "transitions are monotone in pressure"
/// law, checked against the controller's own recorded decisions.
void check_transitions(const ControlLoop& loop, AdmissionRegime prev0) {
  const ControlLoopConfig& c = loop.config();
  AdmissionRegime prev = prev0;
  for (const ControlDecision& d : loop.trace()) {
    if (d.regime_changed) {
      const int from = static_cast<int>(prev);
      const int to = static_cast<int>(d.regime);
      ASSERT_NE(from, to) << "tick " << d.tick;
      if (to > from) {
        const double enter = d.regime == AdmissionRegime::kHard
                                 ? c.hard_enter
                                 : c.soft_enter;
        EXPECT_GE(d.pressure, enter)
            << "tick " << d.tick << ": rose to " << to_string(d.regime)
            << " without crossing its enter threshold";
      } else {
        const double exit = prev == AdmissionRegime::kHard ? c.hard_exit
                                                           : c.soft_exit;
        EXPECT_LT(d.pressure, exit)
            << "tick " << d.tick << ": fell from " << to_string(prev)
            << " without dropping below its exit threshold";
      }
    } else {
      EXPECT_EQ(d.regime, prev) << "tick " << d.tick
                                << ": unrecorded transition";
    }
    prev = d.regime;
  }
}

TEST_P(ControlChaos, InvariantsHoldThroughFloodChurnAndWedge) {
  const CampaignCase& tc = GetParam();
  Topology topo = fat_tree(4);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  server.enable_epoch_checking();
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  bool wedged = false;
  server.set_publish_fault([&] { return wedged; });

  ChannelConfig ccfg;
  ccfg.drop_rate = tc.drop;
  ccfg.dup_rate = tc.dup;
  ccfg.reorder_rate = tc.reorder;
  ccfg.corrupt_rate = tc.corrupt;
  ccfg.seed = tc.seed;
  ReportChannel channel(ccfg);

  IngestConfig icfg;
  icfg.capacity = 256;
  icfg.high_watermark = 128;
  ReportIngest ingest(server, icfg);

  IngestGovernor governor(ingest);
  governor.set_sampling_sink(
      [&net](double factor) { net.command_sampling(factor); });

  const auto flows = workload::ping_all(topo);
  const auto& subnets = topo.subnets();
  std::size_t churned = 0;
  double max_factor = 1.0;

  auto pump = [&](int copies, double t0, std::size_t drain) {
    for (int k = 0; k < copies; ++k) {
      for (const auto& f : flows) {
        const auto r = net.inject(f.header, f.entry, t0 + 0.001 * k);
        for (const TagReport& rep : r.reports)
          channel.send(rep);
      }
    }
    while (auto d = channel.deliver()) {
      ingest.offer(*d);
      ASSERT_TRUE(ingest.health().conserved())
          << "conservation broke mid-flight (seed " << tc.seed << ")";
    }
    ingest.process(drain);
    const ControlDecision dec = governor.tick(server.in_failsafe());
    max_factor = std::max(max_factor, dec.sampling_factor);
    ASSERT_TRUE(ingest.health().conserved()) << "tick " << dec.tick;
  };

  // Phase 1 — nominal: light load, full drains. The loop should idle in
  // kNormal with the actuator parked at 1.
  for (int round = 0; round < 3; ++round)
    pump(/*copies=*/1, /*t0=*/round, /*drain=*/SIZE_MAX);
  EXPECT_EQ(ingest.regime(), AdmissionRegime::kNormal);

  // Phase 2 — flood + churn + publisher wedge: many injection copies per
  // tick, a starved drain budget, rule churn mid-flood, and the
  // publisher wedged for a window inside it.
  for (int round = 0; round < 10; ++round) {
    if (round == 2) wedged = true;
    if (round == 3 || round == 5) {
      const auto& [dst_port, subnet] =
          subnets[churned % subnets.size()];
      c.add_rule(dst_port.sw, 9000 + static_cast<int>(churned),
                 Match::dst_prefix(subnet), Action::drop());
      ++churned;
      c.deploy(net);
      net.set_config_epoch(c.epoch());
    }
    if (round == 7) wedged = false;
    pump(/*copies=*/6, /*t0=*/10.0 + round, /*drain=*/24);
  }
  EXPECT_GE(server.failsafe_events(), 1u)
      << "the wedge window must be detected";
  EXPECT_FALSE(server.in_failsafe()) << "recovered after the wedge cleared";
  EXPECT_GT(max_factor, 1.0) << "the flood must command a back-off";
  EXPECT_GT(ingest.health().regime_transitions, 0u)
      << "the flood must exercise the regime machine";

  // Phase 3 — cooldown: no new load, full drains; the loop must walk
  // the regime back to kNormal and the books must close exactly.
  for (int round = 0; round < 40; ++round) {
    ingest.process();
    governor.tick(server.in_failsafe());
  }
  channel.flush();
  while (auto d = channel.deliver()) ingest.offer(*d);
  ingest.process();
  governor.tick(server.in_failsafe());

  const IngestHealth h = ingest.health();
  const ChannelStats& cs = channel.stats();
  EXPECT_EQ(h.failed, 0u)
      << "consistent plane: transport chaos + churn + wedge must never "
         "look like a data-plane fault (seed " << tc.seed << ")";
  EXPECT_GT(h.passed, 0u);
  EXPECT_EQ(h.in_queue, 0u);
  EXPECT_TRUE(h.conserved());
  EXPECT_EQ(h.accounted(), h.received);
  EXPECT_EQ(h.received, cs.delivered) << "channel → ingest is lossless";
  EXPECT_EQ(ingest.regime(), AdmissionRegime::kNormal)
      << "cooldown must return the loop to normal admission";
  EXPECT_EQ(server.failsafe_events(), 1u)
      << "one wedge window → exactly one edge-triggered failsafe";

  // Every recorded regime transition crossed the right hysteresis edge.
  check_transitions(governor.loop(), AdmissionRegime::kNormal);

  if (tc.drop > 0.0) EXPECT_GT(h.lost_estimate, 0u);
  if (tc.dup > 0.0) EXPECT_GT(h.deduped, 0u);
  if (tc.corrupt > 0.0) {
    EXPECT_GT(h.quarantined, 0u);
    EXPECT_GE(h.quarantined, cs.corrupted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ControlChaos,
    ::testing::Values(
        CampaignCase{"clean_seed1", 0xc0de1, 0.0, 0.0, 0.0, 0.0},
        CampaignCase{"loss15_seed2", 0xc0de2, 0.15, 0.05, 0.1, 0.02},
        CampaignCase{"loss30_seed3", 0xc0de3, 0.30, 0.10, 0.2, 0.05}),
    [](const ::testing::TestParamInfo<CampaignCase>& info) {
      return info.param.name;
    });

// The sequential A/B failsafe in isolation: a wedged lazy-rebuild server
// under churn serves the last-good table, classifies ahead-of-table
// reports pass/stale (never failed), recovers on the next verify after
// the wedge clears, and — in kIncremental mode — replays the deferred
// event backlog in order so the recovered table matches a from-scratch
// build.
TEST(ControlChaos, SequentialFailsafeServesLastGoodAndRecovers) {
  for (const Server::Mode mode :
       {Server::Mode::kFullRebuild, Server::Mode::kIncremental}) {
    Topology topo = linear(3);
    Controller c(topo);
    Server server(c, mode);
    server.enable_epoch_checking();
    routing::install_shortest_paths(c);
    server.sync();
    Network net(topo);
    c.deploy(net);
    net.set_config_epoch(c.epoch());

    bool wedged = false;
    server.set_publish_fault([&] { return wedged; });

    // Wedge, then churn: the server may not absorb these events. The
    // blackholes are NEW host /32s on the transit switch — in-fragment
    // for the incremental updater (RuleTree no-ops duplicate prefixes,
    // so re-dropping a subnet at its own edge switch would be silently
    // ignored on replay).
    wedged = true;
    c.add_rule(1, 1000, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 1), 32}),
               Action::drop());
    c.add_rule(1, 1001, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 1), 32}),
               Action::drop());
    c.deploy(net);
    net.set_config_epoch(c.epoch());

    // Reports sampled under the post-churn config, verified by a server
    // stuck on the pre-churn table: pass or stale, never failed.
    std::uint64_t checked = 0;
    for (const auto& f : workload::ping_all(topo)) {
      const auto r = net.inject(f.header, f.entry, /*t=*/1.0);
      for (const TagReport& rep : r.reports) {
        const Verdict v = server.verify(rep);
        EXPECT_NE(v.status, VerifyStatus::kNoPath) << "mode "
                                                   << static_cast<int>(mode);
        EXPECT_NE(v.status, VerifyStatus::kTagMismatch);
        ++checked;
      }
    }
    ASSERT_GT(checked, 0u);
    EXPECT_TRUE(server.in_failsafe());
    EXPECT_EQ(server.failsafe_events(), 1u) << "edge-triggered";

    // Recovery: the wedge clears; the next verify absorbs the backlog
    // (kIncremental replays deferred events via apply_batch) and the
    // same workload now verifies conclusively — all passes.
    wedged = false;
    std::uint64_t passed = 0, total = 0;
    for (const auto& f : workload::ping_all(topo)) {
      const auto r = net.inject(f.header, f.entry, /*t=*/2.0);
      for (const TagReport& rep : r.reports) {
        ++total;
        if (server.verify(rep).ok()) ++passed;
      }
    }
    EXPECT_FALSE(server.in_failsafe());
    EXPECT_EQ(passed, total) << "recovered table must verify the live "
                                "config conclusively (mode "
                             << static_cast<int>(mode) << ")";
    EXPECT_EQ(server.snapshot()->table_valid_from, c.epoch());
  }
}

}  // namespace
}  // namespace veridp
