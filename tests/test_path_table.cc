// PathTable container tests: merging, lookup, erasure, stats, invariants.
#include "veridp/path_table.hpp"

#include <gtest/gtest.h>

namespace veridp {
namespace {

class PathTableTest : public ::testing::Test {
 protected:
  HeaderSpace space;
  PathTable table;

  HeaderSet dst24(std::uint8_t b) {
    return space.ip_prefix(Field::DstIp, Prefix{Ipv4::of(10, 0, b, 0), 24});
  }
  static std::vector<Hop> path1() { return {{1, 0, 2}, {1, 1, 3}}; }
  static std::vector<Hop> path2() { return {{1, 0, 3}, {2, 2, 3}}; }
  static BloomTag tag_of(const std::vector<Hop>& p) {
    BloomTag t(16);
    for (const Hop& h : p) t.insert(h);
    return t;
  }
};

TEST_F(PathTableTest, AddAndLookup) {
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(),
                 tag_of(path1()));
  const auto* list = table.lookup(PortKey{0, 1}, PortKey{1, 3});
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].path, path1());
  EXPECT_EQ((*list)[0].tag, tag_of(path1()));
  EXPECT_EQ(table.lookup(PortKey{0, 2}, PortKey{1, 3}), nullptr);
  EXPECT_EQ(table.lookup(PortKey{0, 1}, PortKey{9, 9}), nullptr);
}

TEST_F(PathTableTest, SamePathMergesHeaders) {
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(),
                 tag_of(path1()));
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(2), path1(),
                 tag_of(path1()));
  const auto* list = table.lookup(PortKey{0, 1}, PortKey{1, 3});
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].headers, (dst24(1) | dst24(2)));
}

TEST_F(PathTableTest, DistinctPathsStaySeparate) {
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(),
                 tag_of(path1()));
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(2), path2(),
                 tag_of(path2()));
  EXPECT_EQ(table.lookup(PortKey{0, 1}, PortKey{1, 3})->size(), 2u);
  EXPECT_TRUE(table.disjoint_headers());
}

TEST_F(PathTableTest, DisjointnessCheckerDetectsOverlap) {
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(),
                 tag_of(path1()));
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path2(),
                 tag_of(path2()));
  EXPECT_FALSE(table.disjoint_headers());
}

TEST_F(PathTableTest, StatsCountPairsPathsAndLength) {
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(),
                 tag_of(path1()));
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(2), path2(),
                 tag_of(path2()));
  table.add_path(PortKey{0, 2}, PortKey{2, 3}, dst24(3), {{2, 0, 3}},
                 tag_of({{2, 0, 3}}));
  const auto s = table.stats();
  EXPECT_EQ(s.num_pairs, 2u);
  EXPECT_EQ(s.num_paths, 3u);
  EXPECT_DOUBLE_EQ(s.avg_path_length, (2 + 2 + 1) / 3.0);
}

TEST_F(PathTableTest, RemovePathPrunesEmptyLevels) {
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(),
                 tag_of(path1()));
  EXPECT_FALSE(table.remove_path(PortKey{0, 1}, PortKey{1, 3}, path2()));
  EXPECT_TRUE(table.remove_path(PortKey{0, 1}, PortKey{1, 3}, path1()));
  EXPECT_EQ(table.lookup(PortKey{0, 1}, PortKey{1, 3}), nullptr);
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.remove_path(PortKey{0, 1}, PortKey{1, 3}, path1()));
}

TEST_F(PathTableTest, ForEachVisitsEverything) {
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(),
                 tag_of(path1()));
  table.add_path(PortKey{0, 2}, PortKey{2, 3}, dst24(2), path2(),
                 tag_of(path2()));
  int visits = 0;
  table.for_each([&visits](PortKey, PortKey, const PathEntry&) { ++visits; });
  EXPECT_EQ(visits, 2);
}

TEST_F(PathTableTest, OutportsAreSortedAndComplete) {
  table.add_path(PortKey{0, 1}, PortKey{2, 3}, dst24(1), path2(),
                 tag_of(path2()));
  table.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(2), path1(),
                 tag_of(path1()));
  const auto outs = table.outports(PortKey{0, 1});
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_EQ(outs[0], (PortKey{1, 3}));
  EXPECT_EQ(outs[1], (PortKey{2, 3}));
  EXPECT_TRUE(table.outports(PortKey{5, 5}).empty());
}

TEST_F(PathTableTest, EquivalenceIsOrderInsensitive) {
  PathTable a, b;
  a.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(), tag_of(path1()));
  a.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(2), path2(), tag_of(path2()));
  b.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(2), path2(), tag_of(path2()));
  b.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(), tag_of(path1()));
  EXPECT_TRUE(equivalent(a, b));
  b.add_path(PortKey{0, 2}, PortKey{1, 3}, dst24(3), path1(), tag_of(path1()));
  EXPECT_FALSE(equivalent(a, b));
}

TEST_F(PathTableTest, EquivalenceDetectsHeaderDifference) {
  PathTable a, b;
  a.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(1), path1(), tag_of(path1()));
  b.add_path(PortKey{0, 1}, PortKey{1, 3}, dst24(2), path1(), tag_of(path1()));
  EXPECT_FALSE(equivalent(a, b));
}

}  // namespace
}  // namespace veridp
