// Traffic-sampling tests (§4.5): interval semantics, the detection
// latency bound, and the fixed-capacity hardware variant.
#include "dataplane/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace veridp {
namespace {

PacketHeader flow(std::uint16_t sport) {
  PacketHeader h;
  h.src_ip = Ipv4::of(10, 0, 1, 1);
  h.dst_ip = Ipv4::of(10, 0, 2, 1);
  h.proto = kProtoTcp;
  h.src_port = sport;
  h.dst_port = 80;
  return h;
}

TEST(FlowSampler, ZeroIntervalSamplesEverything) {
  FlowSampler s(0.0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.sample(flow(1), 0.0));
}

TEST(FlowSampler, FirstPacketOfFlowAlwaysSampled) {
  FlowSampler s(100.0);
  EXPECT_TRUE(s.sample(flow(1), 5.0));
  EXPECT_TRUE(s.sample(flow(2), 5.0));  // different flow, own state
  EXPECT_EQ(s.active_flows(), 2u);
}

TEST(FlowSampler, IntervalGatesSubsequentPackets) {
  FlowSampler s(10.0);
  EXPECT_TRUE(s.sample(flow(1), 0.0));
  EXPECT_FALSE(s.sample(flow(1), 5.0));
  EXPECT_FALSE(s.sample(flow(1), 10.0));  // strictly greater required
  EXPECT_TRUE(s.sample(flow(1), 10.1));
  // Sampling instant was updated at 10.1.
  EXPECT_FALSE(s.sample(flow(1), 15.0));
  EXPECT_TRUE(s.sample(flow(1), 20.2));
}

TEST(FlowSampler, UnsampledPacketsDoNotResetInterval) {
  FlowSampler s(10.0);
  EXPECT_TRUE(s.sample(flow(1), 0.0));
  for (double t = 1.0; t <= 10.0; t += 1.0) EXPECT_FALSE(s.sample(flow(1), t));
  EXPECT_TRUE(s.sample(flow(1), 10.5));
}

TEST(FlowSampler, PerFlowIntervalOverride) {
  FlowSampler s(100.0);
  s.set_interval(flow(1), 1.0);
  EXPECT_TRUE(s.sample(flow(1), 0.0));
  EXPECT_TRUE(s.sample(flow(1), 1.5));   // its own 1.0 interval
  EXPECT_TRUE(s.sample(flow(2), 0.0));
  EXPECT_FALSE(s.sample(flow(2), 1.5));  // default 100 interval
}

TEST(FlowSampler, ClearForgetsFlowsButKeepsPerFlowIntervals) {
  FlowSampler s(100.0);
  s.set_interval(flow(1), 1.0);
  EXPECT_TRUE(s.sample(flow(1), 0.0));
  EXPECT_TRUE(s.sample(flow(2), 0.0));
  EXPECT_FALSE(s.sample(flow(2), 1.0));
  s.clear();
  EXPECT_EQ(s.active_flows(), 0u);
  EXPECT_TRUE(s.sample(flow(2), 1.0));   // forgotten: sampled afresh
  EXPECT_TRUE(s.sample(flow(1), 0.5));   // forgotten t^f
  EXPECT_TRUE(s.sample(flow(1), 1.75));  // still its own 1.0 interval
  EXPECT_EQ(s.active_flows(), 2u);
}

// The flow table against a std::map model of the paper's rule over
// 12,000 flows (the table doubles eleven times), with per-flow intervals
// and a change of the default interval half-way through.
TEST(FlowSampler, MatchesOrderedMapModelAcrossGrowth) {
  struct Model {
    double default_interval = 2.0;
    std::map<PacketHeader, double> intervals;
    std::map<PacketHeader, double> last;
    bool sample(const PacketHeader& f, double t) {
      const auto it = intervals.find(f);
      const double interval =
          it == intervals.end() ? default_interval : it->second;
      auto [l, inserted] =
          last.try_emplace(f, -std::numeric_limits<double>::infinity());
      const bool due = interval == 0.0 || t - l->second > interval;
      if (due) l->second = t;
      return due;
    }
  };
  // 400 address pairs with 30 flows each that differ only in protocol
  // and ports, so probe chains meet flows equal in all but one field.
  constexpr int kFlows = 12000;
  Rng rng(2024);
  std::vector<PacketHeader> flows;
  PacketHeader h;
  for (int i = 0; i < kFlows; ++i) {
    if (i % 30 == 0) {
      h.src_ip = Ipv4{static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffu))};
      h.dst_ip = Ipv4{static_cast<std::uint32_t>(rng.uniform(0, 0xffffffffu))};
    }
    h.proto = i % 3 == 0 ? kProtoUdp : i % 3 == 1 ? kProtoTcp : kProtoIcmp;
    h.src_port = static_cast<std::uint16_t>(i / 3 % 5);
    h.dst_port = static_cast<std::uint16_t>(i / 15 % 2);
    flows.push_back(h);
  }

  FlowSampler s(2.0);
  Model m;
  for (std::size_t i = 0; i < flows.size(); i += 5) {
    const double interval = (i % 2 == 0) ? 0.0 : 0.5;
    s.set_interval(flows[i], interval);
    m.intervals[flows[i]] = interval;
  }
  double t = 0.0;
  for (int step = 0; step < 60000; ++step) {
    if (step == 30000) {
      s.set_default_interval(0.75);
      m.default_interval = 0.75;
    }
    t += 0.001 * static_cast<double>(rng.index(10));
    // Early steps bring in new flows; later ones revisit old ones.
    const std::size_t bound = std::min<std::size_t>(
        flows.size(), 200 + static_cast<std::size_t>(step) / 2);
    const PacketHeader& f = flows[rng.index(bound)];
    ASSERT_EQ(s.sample(f, t), m.sample(f, t)) << "step " << step;
    ASSERT_EQ(s.active_flows(), m.last.size()) << "step " << step;
  }
  EXPECT_EQ(std::set<PacketHeader>(flows.begin(), flows.end()).size(),
            flows.size());
  EXPECT_GT(m.last.size(), 10000u);
}

TEST(Sampling, IntervalForLatencyRespectsBound) {
  EXPECT_DOUBLE_EQ(interval_for_latency(10.0, 3.0), 7.0);
  EXPECT_DOUBLE_EQ(interval_for_latency(3.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(interval_for_latency(1.0, 3.0), 0.0);  // clamped
}

// Worst-case detection latency property (the Figure-9 scenario): with
// T_s = tau - T_a, a fault occurring right after a sampled packet is
// re-sampled within tau.
class DetectionLatency : public ::testing::TestWithParam<double> {};

TEST_P(DetectionLatency, WorstCaseElapsedAtMostTau) {
  const double tau = GetParam();
  const double ta = 2.0;  // max inter-arrival gap
  const double ts = interval_for_latency(tau, ta);
  FlowSampler s(ts);

  // Packets arrive every `ta`; the fault starts right after t0's sample.
  double t0 = 0.0;
  EXPECT_TRUE(s.sample(flow(1), t0));
  const double fault_time = t0 + 0.001;
  double t = t0;
  double detected_at = -1.0;
  for (int i = 1; i < 1000; ++i) {
    t = t0 + i * ta;
    if (s.sample(flow(1), t) && t >= fault_time) {
      detected_at = t;
      break;
    }
  }
  ASSERT_GE(detected_at, 0.0);
  EXPECT_LE(detected_at - fault_time, ts + ta) << "paper bound T_s + T_a";
  EXPECT_LE(detected_at - fault_time, tau + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Taus, DetectionLatency,
                         ::testing::Values(2.0, 4.0, 6.0, 10.0, 20.0));

// ---- ArrayFlowSampler (hardware pipeline) ---------------------------------

TEST(ArrayFlowSampler, TracksFlowsUpToCapacity) {
  ArrayFlowSampler s(2, 10.0);
  EXPECT_TRUE(s.sample(flow(1), 0.0));
  EXPECT_TRUE(s.sample(flow(2), 0.0));
  EXPECT_EQ(s.occupied(), 2u);
  EXPECT_FALSE(s.sample(flow(1), 5.0));  // known flow, inside interval
  EXPECT_TRUE(s.sample(flow(1), 10.5));
}

TEST(ArrayFlowSampler, EvictsLeastRecentlyHit) {
  ArrayFlowSampler s(2, 10.0);
  EXPECT_TRUE(s.sample(flow(1), 0.0));
  EXPECT_TRUE(s.sample(flow(2), 1.0));
  EXPECT_FALSE(s.sample(flow(1), 2.0));  // refresh flow 1's last-hit
  // Flow 3 arrives: capacity full, flow 2 (last hit 1.0) is evicted.
  EXPECT_TRUE(s.sample(flow(3), 3.0));
  // Flow 2 returns: treated as new (first packet sampled again).
  EXPECT_TRUE(s.sample(flow(2), 4.0));
}

TEST(ArrayFlowSampler, ZeroCapacitySamplesEverything) {
  ArrayFlowSampler s(0, 100.0);
  EXPECT_TRUE(s.sample(flow(1), 0.0));
  EXPECT_TRUE(s.sample(flow(1), 0.1));
}

TEST(ArrayFlowSampler, ZeroIntervalSamplesEveryPacket) {
  ArrayFlowSampler s(4, 0.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(s.sample(flow(1), 0.0));
}

}  // namespace
}  // namespace veridp
