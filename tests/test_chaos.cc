// Chaos suite: the full resilient-report-path stack under adversarial
// transport and continuous config churn.
//
//   switches --wire v2--> ReportChannel (drop/dup/reorder/delay/corrupt)
//            --datagrams--> ReportIngest (quarantine/dedup/shed)
//            --reports--> Server (epoch-aware verification)
//
// Properties under test:
//  * zero false positives: with a consistent data plane, no transport
//    fault and no rule-update timing can make a report verify as failed;
//  * fault visibility: a genuinely faulty switch is still detected and
//    localized through a lossy channel;
//  * graceful overload: a report flood triggers sampling back-off on the
//    switches instead of unbounded queue growth.
#include <gtest/gtest.h>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "dataplane/wire.hpp"
#include "testutil.hpp"
#include "veridp/channel.hpp"
#include "veridp/control_loop.hpp"
#include "veridp/ingest.hpp"
#include "veridp/server.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

struct ChaosCase {
  const char* name;
  double drop;
  double dup;
  double reorder;
  double delay;
  double corrupt;
};

class ChaosSweep : public ::testing::TestWithParam<ChaosCase> {};

// The tentpole acceptance test: sweep transport-fault rates while the
// controller keeps updating rules mid-flight. Reports sampled under an
// older config straddle rebuilds inside the channel; epoch-aware
// verification must judge each one against the table of its epoch (or
// classify it stale) — never report a consistent plane as faulty.
TEST_P(ChaosSweep, NoFalsePositivesUnderTransportFaultsAndChurn) {
  const ChaosCase& tc = GetParam();
  Topology topo = fat_tree(4);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  server.enable_epoch_checking();
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  ChannelConfig ccfg;
  ccfg.drop_rate = tc.drop;
  ccfg.dup_rate = tc.dup;
  ccfg.reorder_rate = tc.reorder;
  ccfg.delay_rate = tc.delay;
  ccfg.corrupt_rate = tc.corrupt;
  ccfg.seed = 0xc4a05;
  ReportChannel channel(ccfg);

  IngestConfig icfg;
  icfg.capacity = 1 << 16;  // no shedding in this sweep; overload has its
  icfg.high_watermark = (1 << 16) - 1;  // own test below
  ReportIngest ingest(server, icfg);

  const auto flows = workload::ping_all(topo);
  const auto& subnets = topo.subnets();
  for (int round = 0; round < 3; ++round) {
    for (const auto& f : flows) {
      const auto r = net.inject(f.header, f.entry, /*t=*/round);
      for (const TagReport& rep : r.reports) channel.send(rep);
      while (auto d = channel.deliver()) ingest.offer(*d);
    }
    ingest.process();
    // Config churn while reordered/delayed datagrams are still inside the
    // channel: blackhole two more hosts at their edge switches, so their
    // in-flight reports straddle the rebuild.
    for (int i = 0; i < 2; ++i) {
      const auto& [dst_port, subnet] =
          subnets[static_cast<std::size_t>(round * 2 + i)];
      c.add_rule(dst_port.sw, 1000 + round * 2 + i,
                 Match::dst_prefix(subnet), Action::drop());
    }
    c.deploy(net);
    net.set_config_epoch(c.epoch());
  }
  channel.flush();
  while (auto d = channel.deliver()) ingest.offer(*d);
  ingest.process();

  const IngestHealth h = ingest.health();
  const ChannelStats& cs = channel.stats();
  EXPECT_EQ(h.failed, 0u) << "transport faults + churn must never look "
                             "like a data-plane inconsistency";
  EXPECT_GT(h.passed, 0u);
  EXPECT_EQ(h.accounted(), h.received) << "every datagram accounted for";
  EXPECT_EQ(h.received, cs.delivered);
  EXPECT_EQ(cs.sent, cs.delivered + cs.dropped - cs.duplicated);
  if (tc.corrupt > 0.0) {
    EXPECT_GT(h.quarantined, 0u);
    EXPECT_GE(h.quarantined, cs.corrupted) << "every surviving corrupted "
                                              "datagram is quarantined";
  } else {
    EXPECT_EQ(h.quarantined, 0u);
  }
  if (tc.dup >= 0.1) {
    EXPECT_GT(h.deduped, 0u);
  }
  if (tc.drop >= 0.05) {
    EXPECT_GT(h.lost_estimate, 0u);
  }
  if (tc.drop == 0.0 && tc.corrupt == 0.0) {
    EXPECT_EQ(h.lost_estimate, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transport, ChaosSweep,
    ::testing::Values(
        ChaosCase{"clean", 0.0, 0.0, 0.0, 0.0, 0.0},
        ChaosCase{"loss5", 0.05, 0.0, 0.0, 0.0, 0.0},
        ChaosCase{"loss10", 0.10, 0.0, 0.0, 0.0, 0.0},
        ChaosCase{"loss20", 0.20, 0.0, 0.0, 0.0, 0.0},
        ChaosCase{"dup", 0.0, 0.2, 0.0, 0.0, 0.0},
        ChaosCase{"reorder", 0.0, 0.0, 0.3, 0.1, 0.0},
        ChaosCase{"corrupt", 0.0, 0.0, 0.0, 0.0, 0.1},
        ChaosCase{"kitchen_sink", 0.10, 0.1, 0.2, 0.1, 0.05}),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      return info.param.name;
    });

// A real switch fault must stay visible through a lossy, duplicating,
// corrupting channel — and localization must still name the switch.
TEST(Chaos, SwitchFaultDetectedAndLocalizedOverLossyChannel) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  server.enable_epoch_checking();
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  const SwitchId edge = topo.find("edge_0_0");
  ASSERT_NE(edge, kNoSwitch);
  const FlowRule* victim = nullptr;
  for (const FlowRule& r : net.at(edge).config().table.rules())
    if (r.action.out > 2) {  // host-facing ports on a k=4 edge are 3,4
      victim = &r;
      break;
    }
  ASSERT_NE(victim, nullptr);
  FaultInjector inject(net);
  ASSERT_TRUE(inject.rewrite_rule_output(edge, victim->id,
                                         victim->action.out == 3 ? 4 : 3));

  ChannelConfig ccfg;
  ccfg.drop_rate = 0.10;
  ccfg.dup_rate = 0.05;
  ccfg.reorder_rate = 0.05;
  ccfg.corrupt_rate = 0.02;
  ccfg.seed = 0xfa17;
  ReportChannel channel(ccfg);
  ReportIngest ingest(server);

  for (int round = 0; round < 2; ++round) {
    for (const auto& f : workload::ping_all(topo)) {
      const auto r = net.inject(f.header, f.entry, /*t=*/round);
      for (const TagReport& rep : r.reports) channel.send(rep);
    }
  }
  channel.flush();
  while (auto d = channel.deliver()) ingest.offer(*d);
  ingest.process();

  const IngestHealth h = ingest.health();
  EXPECT_GT(h.failed, 0u) << "10% loss must not hide a misdelivering switch";
  ASSERT_FALSE(ingest.recent_failures().empty());
  std::size_t blamed = 0;
  for (const TagReport& rep : ingest.recent_failures()) {
    const LocalizeResult inferred = server.localize(rep);
    for (const Candidate& cand : inferred.candidates)
      if (cand.deviating_switch == edge) {
        ++blamed;
        break;
      }
  }
  EXPECT_GT(blamed, 0u) << "localization should name edge_0_0";
}

// Overload end to end: a flood through a small ingest queue drives the
// control loop, which raises the switches' sampling interval through
// Network::command_sampling (§4.5); the report stream thins instead of
// the queue growing without bound.
TEST(Chaos, OverloadTriggersSamplingBackoffEndToEnd) {
  Topology topo = linear(3);
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);

  IngestConfig icfg;
  icfg.capacity = 32;
  icfg.high_watermark = 16;
  ReportIngest ingest(server, icfg);
  IngestGovernor governor(ingest);
  governor.set_sampling_sink(
      [&net](double factor) { net.command_sampling(factor); });

  const PacketHeader h =
      testutil::header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 2, 1));
  const PortKey entry{0, 3};
  const int kFlood = 400;
  std::uint64_t sampled_before = 0, sampled_after = 0;
  bool backed_off = false;
  for (int i = 0; i < kFlood; ++i) {
    const double t = 0.01 * i;  // packets arrive much faster than T_s
    const auto r = net.inject(h, entry, t);
    if (r.sampled) {
      if (backed_off) ++sampled_after;
      else ++sampled_before;
    }
    for (const TagReport& rep : r.reports)
      ingest.offer(wire::encode_report(rep));
    // One control tick per 50 packets; nothing drains during the flood.
    if (i % 50 == 49 && governor.tick().sampling_factor > 1.0)
      backed_off = true;
  }
  EXPECT_TRUE(backed_off);
  EXPECT_GT(net.at(entry.sw).pipeline().sampler().default_interval(), 1.0)
      << "the sampling interval was raised, not left at sample-all";
  EXPECT_LE(ingest.queue_depth(), icfg.capacity);
  ingest.process();

  const IngestHealth health = ingest.health();
  EXPECT_GT(health.shed, 0u);
  EXPECT_TRUE(health.conserved());
  EXPECT_EQ(health.accounted(), health.received);
  // After back-off the sampler keeps only one packet per interval: far
  // fewer samples than the packet count.
  EXPECT_LT(sampled_after, static_cast<std::uint64_t>(kFlood) / 2);
  EXPECT_GT(sampled_before, 0u);
  EXPECT_EQ(health.failed, 0u);
}

}  // namespace
}  // namespace veridp
