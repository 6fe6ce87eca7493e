// Topology and generator tests.
#include "topo/topology.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "topo/generators.hpp"

namespace veridp {
namespace {

TEST(Topology, SwitchAndPortBasics) {
  Topology t;
  const SwitchId a = t.add_switch("a", 4);
  const SwitchId b = t.add_switch("b", 2);
  EXPECT_EQ(t.num_switches(), 2u);
  EXPECT_EQ(t.num_ports(a), 4u);
  EXPECT_EQ(t.name(b), "b");
  EXPECT_EQ(t.find("a"), a);
  EXPECT_EQ(t.find("zzz"), kNoSwitch);
  EXPECT_TRUE(t.valid_port(PortKey{a, 1}));
  EXPECT_TRUE(t.valid_port(PortKey{a, 4}));
  EXPECT_FALSE(t.valid_port(PortKey{a, 5}));
  EXPECT_FALSE(t.valid_port(PortKey{a, 0}));
}

TEST(Topology, LinksAndPeers) {
  Topology t;
  const SwitchId a = t.add_switch("a", 2);
  const SwitchId b = t.add_switch("b", 2);
  t.add_link(PortKey{a, 1}, PortKey{b, 1});
  EXPECT_EQ(t.peer(PortKey{a, 1}), (PortKey{b, 1}));
  EXPECT_EQ(t.peer(PortKey{b, 1}), (PortKey{a, 1}));
  EXPECT_FALSE(t.peer(PortKey{a, 2}).has_value());
  EXPECT_FALSE(t.is_edge_port(PortKey{a, 1}));
  EXPECT_TRUE(t.is_edge_port(PortKey{a, 2}));
  EXPECT_EQ(t.num_links(), 1u);
  const auto edges = t.edge_ports();
  EXPECT_EQ(edges.size(), 2u);
}

TEST(Topology, MiddleboxSelfLink) {
  Topology t;
  const SwitchId a = t.add_switch("a", 3);
  t.add_middlebox(PortKey{a, 3});
  EXPECT_EQ(t.peer(PortKey{a, 3}), (PortKey{a, 3}));
  EXPECT_FALSE(t.is_edge_port(PortKey{a, 3}));
}

TEST(Topology, InvalidKeysHaveNoPeerAndAreNotEdgePorts) {
  Topology t;
  const SwitchId a = t.add_switch("a", 3);
  const SwitchId b = t.add_switch("b", 2);
  t.add_link(PortKey{a, 1}, PortKey{b, 1});
  t.add_middlebox(PortKey{b, 2});
  for (const PortKey bad : {PortKey{2, 1}, PortKey{kNoSwitch, 1},
                            PortKey{a, 0}, PortKey{b, 0}, PortKey{a, 4},
                            PortKey{b, 3}, PortKey{a, kDropPort}}) {
    EXPECT_FALSE(t.peer(bad).has_value()) << to_string(bad);
    EXPECT_FALSE(t.is_edge_port(bad)) << to_string(bad);
  }
  // The middlebox port is its own peer and not an edge port; a link end
  // names the other end; an unwired port is an edge port.
  EXPECT_EQ(t.peer(PortKey{b, 2}), (PortKey{b, 2}));
  EXPECT_FALSE(t.is_edge_port(PortKey{b, 2}));
  EXPECT_EQ(t.peer(PortKey{b, 1}), (PortKey{a, 1}));
  EXPECT_TRUE(t.is_edge_port(PortKey{a, 3}));
  // A middlebox port counts as one linked end: (2 + 1) / 2 links.
  EXPECT_EQ(t.num_links(), 1u);
  EXPECT_EQ(t.edge_ports(), (std::vector<PortKey>{{a, 2}, {a, 3}}));
  const auto nb = t.neighbors(b);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0], (std::pair<PortId, PortKey>{1, PortKey{a, 1}}));
  EXPECT_EQ(nb[1], (std::pair<PortId, PortKey>{2, PortKey{b, 2}}));
}

// The port table's derived views on the generated topologies: the counts
// are pinned, and every view agrees with peer() port by port.
struct PortTableCase {
  const char* name;
  Topology (*make)();
  std::size_t links;
  std::size_t edge_ports;
  std::size_t neighbor_entries;
};

void PrintTo(const PortTableCase& c, std::ostream* os) { *os << c.name; }

class PortTable : public ::testing::TestWithParam<PortTableCase> {};

TEST_P(PortTable, DerivedViewsMatchPeer) {
  const PortTableCase& c = GetParam();
  const Topology t = c.make();
  std::vector<PortKey> edges;
  std::size_t linked_ends = 0;
  std::size_t neighbor_entries = 0;
  for (SwitchId s = 0; s < t.num_switches(); ++s) {
    std::vector<std::pair<PortId, PortKey>> nb;
    for (PortId x = 1; x <= t.num_ports(s); ++x) {
      const PortKey p{s, x};
      const auto q = t.peer(p);
      EXPECT_EQ(t.is_edge_port(p), !q.has_value());
      if (!q) {
        edges.push_back(p);
        continue;
      }
      ++linked_ends;
      nb.emplace_back(x, *q);
      // Links are symmetric; a middlebox port is its own peer.
      EXPECT_EQ(t.peer(*q), p);
    }
    EXPECT_EQ(t.neighbors(s), nb);
    neighbor_entries += nb.size();
  }
  EXPECT_EQ(t.edge_ports(), edges);
  EXPECT_EQ(t.num_links(), linked_ends / 2);
  EXPECT_EQ(t.num_links(), c.links);
  EXPECT_EQ(edges.size(), c.edge_ports);
  EXPECT_EQ(neighbor_entries, c.neighbor_entries);
}

Topology fat_tree4() { return fat_tree(4); }
Topology default_stanford_like() { return stanford_like(); }

INSTANTIATE_TEST_SUITE_P(
    Generated, PortTable,
    ::testing::Values(
        PortTableCase{"fat_tree4", fat_tree4, 32, 16, 64},
        PortTableCase{"stanford_like", default_stanford_like, 49, 280, 98},
        PortTableCase{"toy_figure5", toy_figure5, 3, 3, 7}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Topology, SubnetsAndLongestMatch) {
  Topology t;
  const SwitchId a = t.add_switch("a", 3);
  t.attach_subnet(PortKey{a, 1}, Prefix{Ipv4::of(10, 0, 0, 0), 8});
  t.attach_subnet(PortKey{a, 2}, Prefix{Ipv4::of(10, 1, 0, 0), 16});
  EXPECT_EQ(t.edge_port_for(Ipv4::of(10, 1, 2, 3)), (PortKey{a, 2}));
  EXPECT_EQ(t.edge_port_for(Ipv4::of(10, 2, 2, 3)), (PortKey{a, 1}));
  EXPECT_FALSE(t.edge_port_for(Ipv4::of(11, 0, 0, 1)).has_value());
  EXPECT_EQ(t.subnet(PortKey{a, 2})->len, 16);
  EXPECT_FALSE(t.subnet(PortKey{a, 3}).has_value());
}

TEST(Topology, NeighborsListsLinkedPortsInOrder) {
  Topology t;
  const SwitchId a = t.add_switch("a", 3);
  const SwitchId b = t.add_switch("b", 1);
  const SwitchId c = t.add_switch("c", 1);
  t.add_link(PortKey{a, 3}, PortKey{b, 1});
  t.add_link(PortKey{a, 1}, PortKey{c, 1});
  const auto n = t.neighbors(a);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0].first, 1u);
  EXPECT_EQ(n[0].second.sw, c);
  EXPECT_EQ(n[1].first, 3u);
  EXPECT_EQ(n[1].second.sw, b);
}

// ---- Fat tree --------------------------------------------------------

class FatTreeShape : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeShape, CountsMatchFormulae) {
  const int k = GetParam();
  const int h = k / 2;
  const Topology t = fat_tree(k);
  // h^2 core + k*(h agg + h edge).
  EXPECT_EQ(t.num_switches(),
            static_cast<std::size_t>(h * h + k * (h + h)));
  // Host-facing edge ports: k pods * h edges * h hosts.
  EXPECT_EQ(t.subnets().size(), static_cast<std::size_t>(k * h * h));
  // Links: edge-agg k*h*h plus agg-core k*h*h.
  EXPECT_EQ(t.num_links(), static_cast<std::size_t>(2 * k * h * h));
  // Every attached subnet is a /32 and resolvable back to its port.
  for (const auto& [port, subnet] : t.subnets()) {
    EXPECT_EQ(subnet.len, 32);
    EXPECT_EQ(t.edge_port_for(Ipv4{subnet.addr}), port);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, FatTreeShape, ::testing::Values(2, 4, 6, 8));

// ---- Backbones -------------------------------------------------------

TEST(StanfordLike, PaperScaleCounts) {
  const Topology t = stanford_like();
  // 16 routers (2 backbone + 14 zone) + 10 L2 switches.
  EXPECT_EQ(t.num_switches(), 26u);
  EXPECT_EQ(t.find("bbra"), 0u);
  EXPECT_NE(t.find("boza"), kNoSwitch);
  EXPECT_NE(t.find("yozb"), kNoSwitch);
  // 14 zones x 10 edge ports + 7 zone-pair L2 switches x 20 edge ports.
  EXPECT_EQ(t.subnets().size(), 140u + 140u);
  // All subnets resolvable, all /20.
  for (const auto& [port, subnet] : t.subnets()) {
    EXPECT_EQ(subnet.len, 20);
    EXPECT_EQ(t.edge_port_for(Ipv4{subnet.addr + 5}), port);
  }
}

TEST(StanfordLike, SubnetsAreDistinct) {
  const Topology t = stanford_like();
  std::set<std::pair<std::uint32_t, std::uint8_t>> seen;
  for (const auto& [port, subnet] : t.subnets()) {
    (void)port;
    EXPECT_TRUE(seen.insert({subnet.addr, subnet.len}).second)
        << to_string(subnet);
  }
}

TEST(Internet2Like, PaperScaleCounts) {
  const Topology t = internet2_like(4);
  EXPECT_EQ(t.num_switches(), 9u);
  EXPECT_EQ(t.num_links(), 12u);
  EXPECT_EQ(t.subnets().size(), 9u * 4u);
  EXPECT_NE(t.find("SEAT"), kNoSwitch);
  EXPECT_NE(t.find("NEWY"), kNoSwitch);
}

TEST(Linear, ChainShape) {
  const Topology t = linear(5);
  EXPECT_EQ(t.num_switches(), 5u);
  EXPECT_EQ(t.num_links(), 4u);
  EXPECT_EQ(t.subnets().size(), 5u);
  // Middle switch port 1 and 2 are linked, port 3 is the edge.
  EXPECT_FALSE(t.is_edge_port(PortKey{2, 1}));
  EXPECT_FALSE(t.is_edge_port(PortKey{2, 2}));
  EXPECT_TRUE(t.is_edge_port(PortKey{2, 3}));
  // Chain endpoints have an extra free port.
  EXPECT_TRUE(t.is_edge_port(PortKey{0, 1}));
  EXPECT_TRUE(t.is_edge_port(PortKey{4, 2}));
}

TEST(ToyFigure5, WiringMatchesPaper) {
  const Topology t = toy_figure5();
  const SwitchId s1 = t.find("S1"), s2 = t.find("S2"), s3 = t.find("S3");
  EXPECT_EQ(t.peer(PortKey{s1, 3}), (PortKey{s2, 1}));
  EXPECT_EQ(t.peer(PortKey{s1, 4}), (PortKey{s3, 3}));
  EXPECT_EQ(t.peer(PortKey{s2, 2}), (PortKey{s3, 1}));
  EXPECT_EQ(t.peer(PortKey{s2, 3}), (PortKey{s2, 3}));  // middlebox
  EXPECT_TRUE(t.is_edge_port(PortKey{s1, 1}));
  EXPECT_TRUE(t.is_edge_port(PortKey{s1, 2}));
  EXPECT_TRUE(t.is_edge_port(PortKey{s3, 2}));
  EXPECT_EQ(t.edge_port_for(Ipv4::of(10, 0, 1, 1)), (PortKey{s1, 1}));
  EXPECT_EQ(t.edge_port_for(Ipv4::of(10, 0, 2, 1)), (PortKey{s3, 2}));
}

TEST(GridFigure7, WiringMatchesPaper) {
  const Topology t = grid_figure7();
  const SwitchId s1 = t.find("S1"), s2 = t.find("S2"), s3 = t.find("S3"),
                 s4 = t.find("S4"), s5 = t.find("S5"), s6 = t.find("S6");
  EXPECT_EQ(t.peer(PortKey{s1, 2}), (PortKey{s2, 1}));
  EXPECT_EQ(t.peer(PortKey{s1, 4}), (PortKey{s3, 1}));
  EXPECT_EQ(t.peer(PortKey{s2, 2}), (PortKey{s4, 1}));
  EXPECT_EQ(t.peer(PortKey{s2, 3}), (PortKey{s5, 1}));
  EXPECT_EQ(t.peer(PortKey{s3, 3}), (PortKey{s6, 1}));
  EXPECT_EQ(t.peer(PortKey{s5, 3}), (PortKey{s6, 2}));
  EXPECT_TRUE(t.is_edge_port(PortKey{s1, 1}));  // Src
  EXPECT_TRUE(t.is_edge_port(PortKey{s4, 3}));  // Dst
}

}  // namespace
}  // namespace veridp
