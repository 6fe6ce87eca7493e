// FlowTable tests: priority semantics, tie-breaking, mutation, and the
// broken no-priority mode (§2.2's premature-switch behaviour), plus
// differential tests of the classifier (the dst-prefix interval index and
// the tuple space) against a first-match scan over the same rules.
#include "flow/flow_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/rng.hpp"
#include "controller/routing.hpp"
#include "topo/generators.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

PacketHeader to(Ipv4 dst, std::uint16_t dport = 80) {
  PacketHeader h;
  h.src_ip = Ipv4::of(10, 0, 0, 1);
  h.dst_ip = dst;
  h.proto = kProtoTcp;
  h.src_port = 1000;
  h.dst_port = dport;
  return h;
}

FlowRule rule(RuleId id, std::int32_t prio, const Prefix& dst, PortId out) {
  return FlowRule{id, prio, Match::dst_prefix(dst), Action::output(out)};
}

TEST(FlowTable, EmptyTableMisses) {
  FlowTable t;
  EXPECT_EQ(t.lookup(to(Ipv4::of(10, 0, 0, 2))), nullptr);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 0, 2))), kDropPort);
  EXPECT_TRUE(t.empty());
}

TEST(FlowTable, HighestPriorityWins) {
  FlowTable t;
  t.add(rule(1, 8, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1));
  t.add(rule(2, 24, Prefix{Ipv4::of(10, 0, 2, 0), 24}, 2));
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 2, 9))), 2u);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 9, 9, 9))), 1u);
}

TEST(FlowTable, InsertionOrderIndependentOfAddOrder) {
  FlowTable a, b;
  const auto r1 = rule(1, 8, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1);
  const auto r2 = rule(2, 24, Prefix{Ipv4::of(10, 0, 2, 0), 24}, 2);
  a.add(r1);
  a.add(r2);
  b.add(r2);
  b.add(r1);
  EXPECT_EQ(a.lookup_port(to(Ipv4::of(10, 0, 2, 9))),
            b.lookup_port(to(Ipv4::of(10, 0, 2, 9))));
  // rules() is priority-sorted in both.
  EXPECT_EQ(a.rules().front().id, 2u);
  EXPECT_EQ(b.rules().front().id, 2u);
}

TEST(FlowTable, EqualPriorityTieBreaksByInsertion) {
  FlowTable t;
  t.add(rule(1, 10, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1));
  t.add(rule(2, 10, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 2));
  const FlowRule* hit = t.lookup(to(Ipv4::of(10, 1, 1, 1)));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);  // first inserted wins the tie
}

TEST(FlowTable, DropActionDrops) {
  FlowTable t;
  t.add(FlowRule{1, 100, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8}),
                 Action::drop()});
  t.add(rule(2, 1, Prefix{}, 7));
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 1, 1, 1))), kDropPort);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(11, 1, 1, 1))), 7u);
}

TEST(FlowTable, RemoveAndFind) {
  FlowTable t;
  t.add(rule(1, 8, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1));
  t.add(rule(2, 16, Prefix{Ipv4::of(10, 1, 0, 0), 16}, 2));
  ASSERT_NE(t.find(2), nullptr);
  auto removed = t.remove(2);
  ASSERT_TRUE(removed);
  EXPECT_EQ(removed->id, 2u);
  EXPECT_EQ(t.find(2), nullptr);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 1, 1, 1))), 1u);
  EXPECT_FALSE(t.remove(2).has_value());
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, SetActionRewires) {
  FlowTable t;
  t.add(rule(1, 8, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1));
  EXPECT_TRUE(t.set_action(1, Action::output(4)));
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 1, 1, 1))), 4u);
  EXPECT_TRUE(t.set_action(1, Action::drop()));
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 1, 1, 1))), kDropPort);
  EXPECT_FALSE(t.set_action(99, Action::drop()));
}

TEST(FlowTable, IgnorePriorityModeUsesInsertionOrder) {
  // The HP-5406zl failure: low-priority rule inserted first wins.
  FlowTable t;
  t.add(rule(1, 1, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1));    // broad, low
  t.add(rule(2, 100, Prefix{Ipv4::of(10, 0, 2, 0), 24}, 2)); // specific, high
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 2, 1))), 2u);
  t.ignore_priority(true);
  EXPECT_TRUE(t.priority_ignored());
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 2, 1))), 1u);  // wrong rule!
  t.ignore_priority(false);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 2, 1))), 2u);
}

TEST(FlowTable, MultiFieldMatch) {
  FlowTable t;
  Match m = Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 0), 24});
  m.dst_port = 22;
  t.add(FlowRule{1, 50, m, Action::output(3)});
  t.add(rule(2, 10, Prefix{Ipv4::of(10, 0, 2, 0), 24}, 4));
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 2, 1), 22)), 3u);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 2, 1), 80)), 4u);
}

TEST(FlowTable, ClearEmptiesEverything) {
  FlowTable t;
  t.add(rule(1, 8, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1));
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.lookup(to(Ipv4::of(10, 1, 1, 1))), nullptr);
}

// ---- Tuple-space classifier vs. the first-match scan --------------------

// The table under test plus the insertion order it keeps privately, so
// the reference scan below can walk the same order in ignore_priority
// mode. remove() drops the first occurrence of the id, as FlowTable does.
struct Shadowed {
  FlowTable table;
  std::vector<RuleId> order;

  void add(const FlowRule& r) {
    table.add(r);
    order.push_back(r.id);
  }
  void remove(RuleId id) {
    if (table.remove(id))
      order.erase(std::find(order.begin(), order.end(), id));
  }
};

// The reference: a first-match scan in priority order, or in insertion
// order through find() with priorities ignored. Its result defines lookup.
const FlowRule* reference_lookup(const Shadowed& s, const PacketHeader& h,
                                 PortId in_port) {
  if (s.table.priority_ignored()) {
    for (RuleId id : s.order) {
      const FlowRule* r = s.table.find(id);
      if (r && r->match.applies_at(in_port) && r->match.matches(h)) return r;
    }
    return nullptr;
  }
  for (const FlowRule& r : s.table.rules())
    if (r.match.applies_at(in_port) && r.match.matches(h)) return &r;
  return nullptr;
}

// Random tables over a small address/port alphabet, so that prefixes
// nest and overlap, matches repeat, and probes near a rule often hit it.
class TableFuzzer {
 public:
  explicit TableFuzzer(std::uint64_t seed) : rng_(seed) {}

  FlowRule random_rule(const Shadowed& s) {
    FlowRule r;
    // ~1 in 8 ids repeats an existing one (duplicate RuleIds).
    r.id = !s.order.empty() && chance(8) ? pick(s.order) : next_id_++;
    r.priority = static_cast<std::int32_t>(below(9)) - 3;  // -3..5, many ties
    if (!s.table.empty() && chance(6)) {
      // The same match at another priority.
      r.match = pick(s.table.rules()).match;
    } else {
      r.match.dst = Prefix{addr(), prefix_len()};
      if (chance(3)) r.match.src = Prefix{addr(), prefix_len()};
      if (chance(4)) r.match.proto = chance(2) ? kProtoTcp : kProtoUdp;
      if (chance(5)) r.match.src_port = port();
      if (chance(4)) r.match.dst_port = port();
      if (chance(4)) r.match.in_port = static_cast<PortId>(below(4));
    }
    r.action = chance(8) ? Action::drop()
                         : Action::output(static_cast<PortId>(1 + below(6)));
    return r;
  }

  // A header near a random rule (its prefixes with random host bits,
  // sometimes its exact ports), or an arbitrary one.
  PacketHeader probe(const Shadowed& s) {
    PacketHeader h;
    h.src_ip = Ipv4{addr()};
    h.dst_ip = Ipv4{addr()};
    h.proto = chance(2) ? kProtoTcp : kProtoUdp;
    h.src_port = port();
    h.dst_port = port();
    if (s.table.empty() || chance(5)) return h;
    const Match& m = pick(s.table.rules()).match;
    h.dst_ip = near(m.dst);
    h.src_ip = near(m.src);
    if (m.proto && !chance(5)) h.proto = *m.proto;
    if (m.src_port && !chance(5)) h.src_port = *m.src_port;
    if (m.dst_port && !chance(5)) h.dst_port = *m.dst_port;
    return h;
  }

  PortId in_port() { return static_cast<PortId>(below(5)); }
  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  bool chance(std::uint64_t one_in) { return below(one_in) == 0; }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[below(v.size())];
  }

 private:
  std::uint32_t addr() {
    return Ipv4::of(10, static_cast<std::uint8_t>(below(3)),
                    static_cast<std::uint8_t>(below(3)),
                    static_cast<std::uint8_t>(below(256)))
        .value;
  }
  std::uint8_t prefix_len() {
    static constexpr std::uint8_t kLens[] = {0, 8, 15, 16, 23, 24, 31, 32};
    return kLens[below(std::size(kLens))];
  }
  std::uint16_t port() {
    static constexpr std::uint16_t kPorts[] = {22, 53, 80, 443};
    return kPorts[below(std::size(kPorts))];
  }
  // An address inside `p`, one bit past its boundary, or elsewhere.
  Ipv4 near(const Prefix& p) {
    const std::uint32_t host = static_cast<std::uint32_t>(rng_());
    std::uint32_t a = p.addr | (host & ~Prefix::mask(p.len));
    if (p.len > 0 && chance(4)) a ^= 1u << (32 - p.len);
    return Ipv4{chance(10) ? addr() : a};
  }

  std::mt19937_64 rng_;
  RuleId next_id_ = 1;
};

void expect_same(const Shadowed& s, const PacketHeader& h, PortId in_port,
                 std::uint64_t seed) {
  ASSERT_EQ(s.table.lookup(h, in_port), reference_lookup(s, h, in_port))
      << "seed " << seed << " in_port " << in_port << " " << h.str()
      << (s.table.priority_ignored() ? " (priority ignored)" : "");
}

TEST(FlowTableClassifier, MatchesFirstMatchScanUnderRandomMutation) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    TableFuzzer fz(seed);
    Shadowed s;
    const std::uint64_t initial = fz.below(40);
    for (std::uint64_t i = 0; i < initial; ++i) s.add(fz.random_rule(s));
    for (int step = 0; step < 40; ++step) {
      switch (fz.below(12)) {
        case 0: case 1: case 2:
          s.add(fz.random_rule(s));
          break;
        case 3: case 4:
          s.remove(s.order.empty() || fz.chance(6) ? RuleId{999999}
                                                   : fz.pick(s.order));
          break;
        case 5:
          if (!s.order.empty())
            s.table.set_priority(fz.pick(s.order),
                                 static_cast<std::int32_t>(fz.below(9)) - 3);
          break;
        case 6:
          if (!s.order.empty())
            s.table.set_action(fz.pick(s.order), Action::output(9));
          break;
        case 7:
          if (fz.chance(4)) {
            s.table.clear();
            s.order.clear();
          }
          break;
        case 8: case 9:
          s.table.ignore_priority(!s.table.priority_ignored());
          break;
        default: {
          // Copy a table whose index is built, then keep using the copy.
          (void)s.table.lookup(fz.probe(s), fz.in_port());
          Shadowed copy = s;
          s = copy;
          break;
        }
      }
      for (int p = 0; p < 12; ++p) {
        expect_same(s, fz.probe(s), fz.in_port(), seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// After each mutator the next lookup sees the change (the lazy index is
// marked stale, or stays valid where it may).
TEST(FlowTableClassifier, EveryMutatorIsVisibleToTheNextLookup) {
  const auto broad = rule(1, 8, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1);
  const auto narrow = rule(2, 24, Prefix{Ipv4::of(10, 0, 2, 0), 24}, 2);
  const PacketHeader h = to(Ipv4::of(10, 0, 2, 7));
  FlowTable t;
  EXPECT_EQ(t.lookup_port(h), kDropPort);
  t.add(broad);
  EXPECT_EQ(t.lookup_port(h), 1u);  // add
  t.add(narrow);
  EXPECT_EQ(t.lookup_port(h), 2u);  // add of a better rule
  EXPECT_TRUE(t.set_action(2, Action::output(5)));
  EXPECT_EQ(t.lookup_port(h), 5u);  // set_action
  EXPECT_TRUE(t.set_priority(2, 1));
  EXPECT_EQ(t.lookup_port(h), 1u);  // set_priority below the broad rule
  t.ignore_priority(true);
  EXPECT_EQ(t.lookup_port(h), 1u);  // oldest inserted: broad
  EXPECT_TRUE(t.remove(1).has_value());
  EXPECT_EQ(t.lookup_port(h), 5u);  // remove, priority still ignored
  t.ignore_priority(false);
  EXPECT_EQ(t.lookup_port(h), 5u);

  const FlowTable before = t;  // copy with a built index
  t.add(rule(3, 30, Prefix{Ipv4::of(10, 0, 2, 0), 24}, 3));
  EXPECT_EQ(t.lookup_port(h), 3u);
  EXPECT_EQ(before.lookup_port(h), 5u);  // the copy kept its own index
  t.clear();
  EXPECT_EQ(t.lookup(h), nullptr);  // clear
  EXPECT_EQ(before.lookup_port(h), 5u);
}

TEST(FlowTableClassifier, InPortRulesApplyOnlyAtTheirPort) {
  FlowTable t;
  Match m = Match::dst_prefix(Prefix{Ipv4::of(10, 0, 0, 0), 8});
  m.in_port = 3;
  t.add(FlowRule{1, 50, m, Action::output(7)});
  t.add(rule(2, 10, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 4));
  const PacketHeader h = to(Ipv4::of(10, 1, 2, 3));
  EXPECT_EQ(t.lookup_port(h, 3), 7u);
  EXPECT_EQ(t.lookup_port(h, 2), 4u);
  EXPECT_EQ(t.lookup_port(h), 4u);  // kAnyInPort
}

// With priorities ignored, a duplicate id resolves through find(), as the
// per-id walk did: only the first rule with that id is ever returned.
TEST(FlowTableClassifier, DuplicateIdsResolveThroughFind) {
  FlowTable t;
  t.add(rule(7, 5, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1));
  t.add(rule(7, 9, Prefix{Ipv4::of(10, 0, 2, 0), 24}, 2));
  const PacketHeader h = to(Ipv4::of(10, 0, 2, 1));
  EXPECT_EQ(t.lookup_port(h), 2u);
  t.ignore_priority(true);
  // find(7) is the priority-9 rule; the priority-5 rule is unreachable.
  EXPECT_EQ(t.lookup_port(h), 2u);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 9, 9, 9))), kDropPort);
}

// ---- Dst-prefix interval index vs. the first-match scan -----------------

// Dst-only tables of nested prefixes over many lengths, so the interval
// index answers alone. Every boundary is probed: each prefix's first and
// last address, one past it, and both ends of the address space.
TEST(FlowTableIntervals, DstOnlyBoundarySweepMatchesFirstMatchScan) {
  static constexpr std::uint8_t kLens[] = {0, 1, 8, 15, 16, 23, 24, 31, 32};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TableFuzzer fz(seed);
    Shadowed s;
    // Prefixes grow from a few anchors, so lengths nest and share bounds.
    std::uint32_t anchors[3];
    for (std::uint32_t& a : anchors)
      a = static_cast<std::uint32_t>(fz.below(std::uint64_t{1} << 32));
    const std::uint64_t n = 1 + fz.below(40);
    RuleId next = 1;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t a =
          anchors[fz.below(3)] ^
          (fz.chance(3) ? static_cast<std::uint32_t>(fz.below(1024)) : 0);
      const Prefix p{a, kLens[fz.below(std::size(kLens))]};
      // ~1 in 8 ids repeats an earlier one (duplicate RuleIds).
      const RuleId id = next > 1 && fz.chance(8) ? 1 + fz.below(next - 1)
                                                 : next++;
      s.add(FlowRule{id, p.len, Match::dst_prefix(p),
                     Action::output(static_cast<PortId>(1 + fz.below(6)))});
    }
    // Re-prioritize some rules, so rank order is not length order.
    for (int k = 0; k < 6; ++k)
      s.table.set_priority(fz.pick(s.order),
                           static_cast<std::int32_t>(fz.below(40)) - 4);

    std::vector<std::uint32_t> probes{0, ~std::uint32_t{0}};
    for (const FlowRule& r : s.table.rules()) {
      const Prefix& p = r.match.dst;
      const std::uint32_t last = p.addr | ~Prefix::mask(p.len);
      probes.insert(probes.end(), {p.addr, last, last + 1});  // may wrap
    }
    for (const bool ignored : {false, true}) {
      s.table.ignore_priority(ignored);
      for (const std::uint32_t a : probes) {
        expect_same(s, to(Ipv4{a}), fz.in_port(), seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// A single-length table (one tuple, no interval index) and a mixed one
// (dst-only rules of many lengths beside in_port, proto and port shapes,
// their ranks interleaved) both answer as the first-match scan does.
TEST(FlowTableIntervals, SingleLengthAndMixedTablesMatchFirstMatchScan) {
  static constexpr std::uint8_t kLens[] = {0, 8, 16, 23, 24, 32};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    TableFuzzer fz(seed);
    const bool mixed = seed % 2 == 0;
    Shadowed s;
    const std::uint64_t n = 1 + fz.below(40);
    for (std::uint64_t i = 0; i < n; ++i) {
      FlowRule r = fz.random_rule(s);
      const std::uint8_t len = mixed ? kLens[fz.below(std::size(kLens))] : 24;
      const Prefix dst{r.match.dst.addr, len};
      if (!mixed || fz.chance(2)) {
        r.match = Match::dst_prefix(dst);
      } else {
        r.match.dst = dst;
        if (!r.match.in_port && !r.match.dst_port)
          r.match.in_port = static_cast<PortId>(1 + fz.below(3));
      }
      s.add(r);
    }
    for (const bool ignored : {false, true}) {
      s.table.ignore_priority(ignored);
      for (int p = 0; p < 200; ++p) {
        expect_same(s, fz.probe(s), fz.in_port(), seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// A table never added to still builds its index on the first lookup.
TEST(FlowTableIntervals, EmptyTablesMissBeforeAnyAdd) {
  for (const std::uint32_t a : {0u, 0x0A000102u, ~0u}) {
    const PacketHeader h = to(Ipv4{a});
    const FlowTable fresh;
    EXPECT_EQ(fresh.lookup(h), nullptr);
    EXPECT_EQ(fresh.lookup(h, 3), nullptr);
    FlowTable cleared;
    cleared.clear();
    EXPECT_EQ(cleared.lookup(h), nullptr);
    FlowTable ignoring;
    ignoring.ignore_priority(true);
    EXPECT_EQ(ignoring.lookup(h), nullptr);
  }
  // And a cleared table indexes what it is given next.
  FlowTable t;
  t.clear();
  (void)t.lookup(to(Ipv4::of(10, 0, 0, 1)));
  t.add(rule(1, 8, Prefix{Ipv4::of(10, 0, 0, 0), 8}, 1));
  t.add(rule(2, 24, Prefix{Ipv4::of(10, 0, 2, 0), 24}, 2));
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 2, 9))), 2u);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(10, 0, 3, 0))), 1u);
  EXPECT_EQ(t.lookup_port(to(Ipv4::of(11, 0, 0, 0))), kDropPort);
}

// The benchmark workloads' own tables: shortest-path routing plus
// more-specific rules on the Stanford- and Internet2-like topologies
// (dst-only, many lengths) and plain routing on a fat tree (one length).
// Each switch's table, and a copy inserted in reverse order looked up in
// both priority modes, answers random flows as the first-match scan does.
TEST(FlowTableIntervals, WorkloadTablesMatchFirstMatchScan) {
  struct Case {
    const char* name;
    Topology topo;
    std::size_t extra_rules;
  };
  Case cases[] = {{"stanford_like", stanford_like(14, 5), 1500},
                  {"internet2_like", internet2_like(10), 1500},
                  {"fat_tree(4)", fat_tree(4), 0}};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    Controller controller(c.topo);
    routing::install_shortest_paths(controller);
    Rng rng(2024);
    workload::add_specific_rules(controller, rng, c.extra_rules);
    std::vector<workload::Flow> flows =
        workload::random_flows(c.topo, rng, 300);
    for (int i = 0; i < 100; ++i)  // and some addresses outside any subnet
      flows.push_back({{}, to(Ipv4{static_cast<std::uint32_t>(
                               rng.uniform(0, ~std::uint32_t{0}))})});
    for (SwitchId sw = 0; sw < c.topo.num_switches(); ++sw) {
      const FlowTable& table = controller.logical(sw).table;
      Shadowed reversed;
      for (auto it = table.rules().rbegin(); it != table.rules().rend(); ++it)
        reversed.add(*it);
      for (const workload::Flow& f : flows) {
        const auto in_port = static_cast<PortId>(
            rng.uniform(0, c.topo.num_ports(sw)));
        const FlowRule* want = nullptr;
        for (const FlowRule& r : table.rules())
          if (r.match.applies_at(in_port) && r.match.matches(f.header)) {
            want = &r;
            break;
          }
        ASSERT_EQ(table.lookup(f.header, in_port), want)
            << "switch " << sw << " " << f.header.str();
        for (const bool ignored : {false, true}) {
          reversed.table.ignore_priority(ignored);
          expect_same(reversed, f.header, in_port, sw);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace veridp
