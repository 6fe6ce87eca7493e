// Path-table construction tests (Algorithm 2), headlined by the Table-1
// reproduction on the Figure-5 toy network.
#include "veridp/path_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "controller/routing.hpp"
#include "testutil.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

using testutil::header;
using testutil::Figure5;

class ToyNetwork : public ::testing::Test {
 protected:
  ToyNetwork()
      : topo(toy_figure5()), controller(topo), fig(testutil::install_figure5(controller)),
        provider(space, topo, controller.logical_configs()),
        builder(space, topo, provider) {
    table = builder.build();
  }

  HeaderSpace space;
  Topology topo;
  Controller controller;
  Figure5 fig;
  ConfigTransferProvider provider;
  PathTableBuilder builder;
  PathTable table;

  static BloomTag tag_of(std::initializer_list<Hop> hops) {
    BloomTag t(16);
    for (const Hop& h : hops) t.insert(h);
    return t;
  }
};

// Table 1, row 1: SSH from H1 to H3 goes via S2 and the middlebox.
TEST_F(ToyNetwork, Table1SshRowViaMiddlebox) {
  const auto* list =
      table.lookup(PortKey{fig.s1, 1}, PortKey{fig.s3, 2});
  ASSERT_NE(list, nullptr);
  const PacketHeader ssh = header(Figure5::h1(), Figure5::h3(), Figure5::kSsh);
  const PathEntry* match = nullptr;
  for (const PathEntry& e : *list)
    if (e.headers.contains(ssh)) match = &e;
  ASSERT_NE(match, nullptr);
  const std::vector<Hop> expect{{1, fig.s1, 3},
                                {1, fig.s2, 3},
                                {3, fig.s2, 2},
                                {1, fig.s3, 2}};
  EXPECT_EQ(match->path, expect);
  EXPECT_EQ(match->tag, tag_of({{1, fig.s1, 3},
                                {1, fig.s2, 3},
                                {3, fig.s2, 2},
                                {1, fig.s3, 2}}));
}

// Table 1, row 2: non-SSH from H1 to H3 goes directly via S3.
TEST_F(ToyNetwork, Table1WebRowDirect) {
  const auto* list =
      table.lookup(PortKey{fig.s1, 1}, PortKey{fig.s3, 2});
  ASSERT_NE(list, nullptr);
  const PacketHeader web = header(Figure5::h1(), Figure5::h3(), 80);
  const PathEntry* match = nullptr;
  for (const PathEntry& e : *list)
    if (e.headers.contains(web)) match = &e;
  ASSERT_NE(match, nullptr);
  const std::vector<Hop> expect{{1, fig.s1, 4}, {3, fig.s3, 2}};
  EXPECT_EQ(match->path, expect);
  EXPECT_EQ(match->tag, tag_of({{1, fig.s1, 4}, {3, fig.s3, 2}}));
}

// Table 1, row 3+: traffic from H2 is dropped at S3 (rule 8), both for
// the direct path and the middlebox path.
TEST_F(ToyNetwork, Table1DropRowsForH2) {
  const auto* list =
      table.lookup(PortKey{fig.s1, 2}, PortKey{fig.s3, kDropPort});
  ASSERT_NE(list, nullptr);
  const PacketHeader web = header(Figure5::h2(), Figure5::h3(), 80);
  const PacketHeader ssh = header(Figure5::h2(), Figure5::h3(), Figure5::kSsh);
  const PathEntry *web_entry = nullptr, *ssh_entry = nullptr;
  for (const PathEntry& e : *list) {
    if (e.headers.contains(web)) web_entry = &e;
    if (e.headers.contains(ssh)) ssh_entry = &e;
  }
  ASSERT_NE(web_entry, nullptr);
  ASSERT_NE(ssh_entry, nullptr);
  const std::vector<Hop> web_path{{2, fig.s1, 4}, {3, fig.s3, kDropPort}};
  EXPECT_EQ(web_entry->path, web_path);
  EXPECT_EQ(web_entry->tag,
            tag_of({{2, fig.s1, 4}, {3, fig.s3, kDropPort}}));
  const std::vector<Hop> ssh_path{{2, fig.s1, 3},
                                  {1, fig.s2, 3},
                                  {3, fig.s2, 2},
                                  {1, fig.s3, kDropPort}};
  EXPECT_EQ(ssh_entry->path, ssh_path);
}

// The SSH row's header set must exclude H2's traffic (dropped at S3).
TEST_F(ToyNetwork, DeliveredHeaderSetsExcludeDroppedTraffic) {
  const auto* list =
      table.lookup(PortKey{fig.s1, 2}, PortKey{fig.s3, 2});
  const PacketHeader h2ssh = header(Figure5::h2(), Figure5::h3(), Figure5::kSsh);
  if (list) {
    for (const PathEntry& e : *list) {
      EXPECT_FALSE(e.headers.contains(h2ssh));
    }
  }
}

TEST_F(ToyNetwork, HeaderSetsAreDisjointPerPair) {
  EXPECT_TRUE(table.disjoint_headers());
}

TEST_F(ToyNetwork, EveryEdgePortHasEntries) {
  for (const PortKey& in : topo.edge_ports())
    EXPECT_FALSE(table.outports(in).empty()) << to_string(in);
}

TEST(PathBuilder, LoopyConfigurationStillTerminates) {
  // Two switches pointing at each other: traversal must cut the loop and
  // produce no delivery entry for the looping headers.
  Topology topo = linear(2);
  Controller c(topo);
  const Prefix loop_p{Ipv4::of(10, 0, 9, 0), 24};
  c.add_rule(0, 24, Match::dst_prefix(loop_p), Action::output(2));
  c.add_rule(1, 24, Match::dst_prefix(loop_p), Action::output(1));
  HeaderSpace space;
  ConfigTransferProvider provider(space, topo, c.logical_configs());
  PathTableBuilder builder(space, topo, provider);
  const PathTable table = builder.build();
  const PacketHeader looping =
      header(Ipv4::of(10, 0, 0, 1), Ipv4::of(10, 0, 9, 1));
  table.for_each([&looping](PortKey, PortKey out, const PathEntry& e) {
    if (e.headers.contains(looping)) {
      // Only drop entries may contain looping headers (no delivery).
      EXPECT_EQ(out.port, kDropPort);
    }
  });
}

TEST(PathBuilder, FatTreeRoutingTableIsSaneAndDisjoint) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  ConfigTransferProvider provider(space, topo, c.logical_configs());
  PathTableBuilder builder(space, topo, provider);
  const PathTable table = builder.build();
  const auto stats = table.stats();
  // 16 hosts: every ordered host pair is connected => at least 240
  // delivery pairs (plus drop entries).
  EXPECT_GE(stats.num_pairs, 16u * 15u);
  EXPECT_GE(stats.num_paths, stats.num_pairs);
  EXPECT_TRUE(table.disjoint_headers());
  // Every entry's tag is Algorithm 1's tag of its own hop sequence.
  std::size_t entries = 0;
  table.for_each([&entries](PortKey, PortKey, const PathEntry& e) {
    ++entries;
    EXPECT_EQ(e.tag, BloomTag::of_path(e.path.data(), e.path.size()));
  });
  EXPECT_EQ(entries, stats.num_paths);
  // Spot-check a delivery path exists and is shortest (<= 5 hops + deliver).
  const auto& subnets = topo.subnets();
  const auto& [sp, ss] = subnets.front();
  const auto& [dp, ds] = subnets.back();
  const auto* list = table.lookup(sp, dp);
  ASSERT_NE(list, nullptr);
  bool found = false;
  for (const PathEntry& e : *list)
    if (e.headers.contains(header(Ipv4{ss.addr}, Ipv4{ds.addr}))) {
      found = true;
      EXPECT_LE(e.path.size(), 6u);
    }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace veridp
