// Wire-format tests (§5): the double-VLAN shim, TOS marker bit, IPv4
// checksum, and the UDP tag-report payload — round trips, malformed
// input rejection, and end-to-end transport of real simulator output.
#include "dataplane/wire.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "controller/routing.hpp"
#include "testutil.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/verifier.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

Packet sample_packet(bool marked) {
  Packet p;
  p.header = testutil::header(Ipv4::of(10, 0, 1, 1), Ipv4::of(10, 0, 2, 1),
                              22, kProtoTcp, 47001);
  p.size_bytes = 256;
  if (marked) {
    p.marker = true;
    p.ttl = 12;
    p.entry = PortKey{5, 3};
    p.tag = BloomTag::of_hop(Hop{3, 5, 2}, 16);
  }
  return p;
}

TEST(Wire, MarkedFrameRoundTrips) {
  const Packet p = sample_packet(true);
  const auto bytes = wire::encode_frame(p, 256);
  ASSERT_EQ(bytes.size(), 256u);
  const auto back = wire::decode_frame(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header, p.header);
  EXPECT_TRUE(back->marker);
  EXPECT_EQ(back->ttl, p.ttl);
  EXPECT_EQ(back->entry, p.entry);
  EXPECT_EQ(back->tag, p.tag);
}

TEST(Wire, UnmarkedFrameHasNoShim) {
  const Packet p = sample_packet(false);
  const auto bytes = wire::encode_frame(p, 128);
  // Ethertype right after the MACs: no VLAN tags present.
  EXPECT_EQ(bytes[12], 0x08);
  EXPECT_EQ(bytes[13], 0x00);
  const auto back = wire::decode_frame(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->marker);
  EXPECT_EQ(back->header, p.header);
}

TEST(Wire, ShimFieldsSitWhereThePaperSaysTheyDo) {
  const Packet p = sample_packet(true);
  const auto b = wire::encode_frame(p, 128);
  // First VLAN tag (802.1ad S-tag) carries the 16-bit Bloom tag TCI.
  EXPECT_EQ((b[12] << 8) | b[13], wire::kTpidSTag);
  EXPECT_EQ(static_cast<std::uint64_t>((b[14] << 8) | b[15]),
            p.tag.value());
  // Second VLAN tag carries the 14-bit inport id.
  EXPECT_EQ((b[16] << 8) | b[17], wire::kTpidCTag);
  EXPECT_EQ(decode_inport(static_cast<std::uint16_t>((b[18] << 8) | b[19])),
            p.entry);
  // Marker bit lives in the IPv4 TOS byte.
  const std::size_t ip = 22;
  EXPECT_TRUE(b[ip + 1] & wire::kTosMarkerBit);
}

TEST(Wire, ChecksumValidationRejectsCorruption) {
  const auto bytes = wire::encode_frame(sample_packet(true), 128);
  for (std::size_t flip : {23u, 26u, 34u, 38u}) {  // inside the IP header
    auto bad = bytes;
    bad[flip] ^= 0x01;
    EXPECT_FALSE(wire::decode_frame(bad).has_value()) << "byte " << flip;
  }
}

TEST(Wire, TruncatedAndForeignFramesRejected) {
  const auto bytes = wire::encode_frame(sample_packet(true), 128);
  auto truncated = bytes;
  truncated.resize(20);
  EXPECT_FALSE(wire::decode_frame(truncated).has_value());
  auto foreign = bytes;
  foreign[12] = 0x86;  // not IPv4 / not a VLAN shim
  foreign[13] = 0xDD;
  EXPECT_FALSE(wire::decode_frame(foreign).has_value());
}

TEST(Wire, ReportRoundTripsAtAllWidths) {
  Rng rng(15);
  for (int bits : {8, 16, 32, 64}) {
    TagReport r;
    r.inport = PortKey{7, 2};
    r.outport = PortKey{19, kDropPort};
    r.header = testutil::header(Ipv4::of(10, 2, 3, 4), Ipv4::of(10, 9, 9, 9),
                                8080, kProtoUdp, 1234);
    BloomTag t(bits);
    for (int i = 0; i < 4; ++i)
      t.insert(Hop{static_cast<PortId>(rng.uniform(1, 40)),
                   static_cast<SwitchId>(rng.uniform(0, 30)),
                   static_cast<PortId>(rng.uniform(1, 40))});
    r.tag = t;
    r.epoch = static_cast<std::uint32_t>(rng.uniform(0, 1u << 30));
    r.seq = static_cast<std::uint32_t>(rng.uniform(1, 1u << 30));
    const auto payload = wire::encode_report(r);
    EXPECT_EQ(payload.size(), wire::kReportV2Size);
    const auto back = wire::decode_report(payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->inport, r.inport);
    EXPECT_EQ(back->outport, r.outport);
    EXPECT_EQ(back->header, r.header);
    EXPECT_EQ(back->tag, r.tag);
    EXPECT_EQ(back->epoch, r.epoch);
    EXPECT_EQ(back->seq, r.seq);
  }
}

TEST(Wire, LegacyV1ReportsStillDecode) {
  TagReport r;
  r.inport = PortKey{3, 1};
  r.outport = PortKey{5, 2};
  r.header = testutil::header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 1, 1));
  r.tag = BloomTag::of_hop(Hop{1, 3, 2}, 16);
  r.epoch = 77;  // dropped by the v1 encoding
  r.seq = 99;
  const auto payload = wire::encode_report(r, /*version=*/1);
  EXPECT_EQ(payload.size(), wire::kReportV1Size);
  const auto back = wire::decode_report(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->inport, r.inport);
  EXPECT_EQ(back->outport, r.outport);
  EXPECT_EQ(back->header, r.header);
  EXPECT_EQ(back->tag, r.tag);
  EXPECT_EQ(back->epoch, 0u) << "v1 has no epoch field";
  EXPECT_EQ(back->seq, 0u) << "v1 has no sequence field";
}

TEST(Wire, ReportRejectsBadMagicAndLength) {
  TagReport r;
  r.tag = BloomTag(16);
  auto payload = wire::encode_report(r);
  auto bad_magic = payload;
  bad_magic[0] = 0x00;
  EXPECT_FALSE(wire::decode_report(bad_magic).has_value());
  auto short_payload = payload;
  short_payload.pop_back();
  EXPECT_FALSE(wire::decode_report(short_payload).has_value());
  // Tag width out of range (checked via v1, where no checksum masks it).
  auto v1 = wire::encode_report(r, /*version=*/1);
  v1[2] = 200;
  EXPECT_FALSE(wire::decode_report(v1).has_value());
  // Any single corrupted bit in a v2 payload trips the checksum.
  auto flipped = payload;
  flipped[44] ^= 0x10;  // inside the epoch field
  EXPECT_FALSE(wire::decode_report(flipped).has_value());
}

// End to end: reports produced by the simulator survive the UDP wire
// and still verify on the server side.
TEST(Wire, SimulatorReportsSurviveTheWire) {
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Network net(topo);
  c.deploy(net);
  HeaderSpace space;
  ConfigTransferProvider provider(space, topo, c.logical_configs());
  const PathTable table = PathTableBuilder(space, topo, provider).build();

  for (const auto& f : workload::ping_all(topo)) {
    const auto r = net.inject(f.header, f.entry);
    for (const TagReport& rep : r.reports) {
      const auto payload = wire::encode_report(rep);
      const auto received = wire::decode_report(payload);
      ASSERT_TRUE(received.has_value());
      EXPECT_TRUE(verify_report(*received, table).ok());
    }
  }
}

}  // namespace
}  // namespace veridp
