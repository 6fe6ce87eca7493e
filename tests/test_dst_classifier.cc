// The per-inport classifier (path_table.hpp, DESIGN.md §11: src class →
// dst interval → candidates with residuals) and the batched kernel lanes
// it decides. On the paper-scale tables the kernel's verdicts — status,
// matched pointer, epoch — and the memo's end state must equal the
// memoized scalar path, which runs verify_report's BDD walk. Also: which
// inports are classified, that no build or publish builds a classifier,
// that each mutator drops exactly the edited inport's, and that a
// kIncremental table edited in place keeps verdicts equal to a fresh
// rebuild across churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "controller/routing.hpp"
#include "testutil.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/server.hpp"
#include "veridp/verifier.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

using testutil::header;

/// Scalar (memoized verify_epoch_aware) against batched, lane by lane,
/// then a scalar replay through both memos: equal hit patterns mean the
/// batch left the same memo end state.
void expect_batch_equals_scalar(const std::vector<TagReport>& stream,
                                const EpochTables& tables,
                                std::size_t batch = 256) {
  VerifyMemo scalar_memo, batch_memo;
  std::vector<Verdict> scalar(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i)
    scalar[i] = verify_epoch_aware(stream[i], tables, &scalar_memo);

  ReportBatch soa;
  for (const TagReport& r : stream) soa.push(r);
  std::vector<Verdict> batched(stream.size());
  for (std::size_t base = 0; base < stream.size(); base += batch)
    verify_epoch_aware_batch(soa, base, std::min(batch, stream.size() - base),
                             tables, &batch_memo, batched.data() + base);

  std::size_t bad = 0;
  for (std::size_t i = 0; i < stream.size() && bad < 10; ++i) {
    if (scalar[i].status == batched[i].status &&
        scalar[i].matched == batched[i].matched &&
        scalar[i].epoch == batched[i].epoch)
      continue;
    ++bad;
    ADD_FAILURE() << "lane " << i << ": status "
                  << static_cast<int>(scalar[i].status) << " vs "
                  << static_cast<int>(batched[i].status);
  }
  EXPECT_EQ(scalar_memo.lookups(), batch_memo.lookups());
  EXPECT_EQ(scalar_memo.hits(), batch_memo.hits());
  for (const TagReport& r : stream) {
    const Verdict va = verify_epoch_aware(r, tables, &scalar_memo);
    const Verdict vb = verify_epoch_aware(r, tables, &batch_memo);
    ASSERT_EQ(va.matched, vb.matched);
    ASSERT_EQ(scalar_memo.hits(), batch_memo.hits());
  }
}

/// A header in the first gap (an interval without candidates) of `c`,
/// with a src address of the gap's class, if `c` has a gap.
std::optional<PacketHeader> gap_header(const InportClassifier& c) {
  for (std::size_t k = 0; k < c.classes.size(); ++k) {
    std::uint32_t src = Ipv4::of(10, 9, 9, 9).value;
    for (std::size_t i = 0; i < c.src.starts.size(); ++i)
      if (c.src.values[i] == k) {
        src = c.src.starts[i];
        break;
      }
    const IntervalMap<IntervalCandidate>& d = c.classes[k];
    for (std::size_t i = 0; i < d.starts.size(); ++i)
      if (d.values[i].entry == nullptr)
        return header(Ipv4{src}, Ipv4{d.starts[i]});
  }
  return std::nullopt;
}

/// Every report kind the verdict rule distinguishes, from at most
/// `max_entries` entries spread over the table: a passing report, a
/// wrong tag, a wrong outport; and per classified inport a dst in a gap.
std::vector<TagReport> report_kinds(const PathTable& table,
                                    std::size_t max_entries) {
  const std::size_t paths = table.stats().num_paths;
  const std::size_t stride = std::max<std::size_t>(1, paths / max_entries);
  std::vector<TagReport> stream;
  std::vector<PortKey> inports;
  Rng rng(27);
  std::size_t n = 0;
  table.for_each([&](PortKey in, PortKey out, const PathEntry& e) {
    if (n++ % stride != 0) return;
    const auto h = e.headers.sample(rng);
    if (!h) return;
    const TagReport ok{in, out, *h, e.tag};
    stream.push_back(ok);
    TagReport bad_tag = ok;
    bad_tag.tag |= BloomTag::of_hop(Hop{9, 99, 9}, bad_tag.tag.bits());
    stream.push_back(bad_tag);
    TagReport bad_out = ok;
    bad_out.outport = PortKey{out.sw, out.port + 1};
    stream.push_back(bad_out);
    inports.push_back(in);
  });
  std::sort(inports.begin(), inports.end());
  inports.erase(std::unique(inports.begin(), inports.end()), inports.end());
  for (const PortKey in : inports) {
    const InportClassifier* c = table.inport(in).classifier();
    if (c == nullptr) continue;
    if (const auto h = gap_header(*c))
      stream.push_back(TagReport{in, table.outports(in).front(), *h,
                                 BloomTag(BloomTag::kDefaultBits)});
  }
  // Shuffle so lanes of one inport interleave with others, as a real
  // report stream's do.
  std::shuffle(stream.begin(), stream.end(), std::mt19937_64(5));
  return stream;
}

struct Counts {
  std::size_t classified = 0;
  std::size_t unclassified = 0;
};

Counts classify_all(const PathTable& table) {
  std::vector<PortKey> inports;
  table.for_each([&inports](PortKey in, PortKey, const PathEntry&) {
    inports.push_back(in);
  });
  std::sort(inports.begin(), inports.end());
  inports.erase(std::unique(inports.begin(), inports.end()), inports.end());
  Counts c;
  for (const PortKey in : inports)
    ++(table.inport(in).classifier() ? c.classified : c.unclassified);
  return c;
}

/// Per ACL'd inport, for each deny of its ingress ACL, a report of a
/// header that deny drops: a passing report's header with its src moved
/// into the deny's src prefix and its dst_port set to the denied port.
/// The packet never leaves the inport's switch, so no path to the
/// reported outport admits it.
std::vector<TagReport> denied_reports(const bench::Setup& s,
                                      const PathTable& table) {
  std::vector<TagReport> stream;
  std::vector<PortKey> seen;
  Rng rng(29);
  table.for_each([&](PortKey in, PortKey out, const PathEntry& e) {
    if (out.port == kDropPort ||
        std::find(seen.begin(), seen.end(), in) != seen.end())
      return;
    const auto h = e.headers.sample(rng);
    if (!h) return;
    seen.push_back(in);
    for (const AclEntry& a :
         s.controller.logical(in.sw).in_acl(in.port).entries()) {
      if (a.permit || !a.match.dst_port) continue;
      TagReport r{in, out, *h, e.tag};
      r.header.src_ip = Ipv4{a.match.src.addr};
      r.header.dst_port = *a.match.dst_port;
      stream.push_back(r);
    }
  });
  return stream;
}

/// Whether some classified inport of `table` has a src stage: an
/// ingress ACL's src prefixes split its header space into classes.
bool has_src_stage(const PathTable& table) {
  bool found = false;
  table.for_each([&](PortKey in, PortKey, const PathEntry&) {
    const InportClassifier* c = table.inport(in).classifier();
    found = found || (c != nullptr && !c->src.empty());
  });
  return found;
}

/// Every inport classifies, and the kernel agrees with the scalar path
/// on passing, wrong-tag, wrong-outport, gap and (with ACLs) denied
/// reports.
void differential_on(bench::Setup s, bool acls) {
  auto [table, secs] = bench::timed_build(s);
  (void)secs;
  EpochTables tables;
  tables.current = &table;
  std::vector<TagReport> stream = report_kinds(table, 3000);
  ASSERT_FALSE(stream.empty());
  const std::vector<TagReport> denied = denied_reports(s, table);
  EXPECT_EQ(denied.empty(), !acls) << s.name;
  for (const TagReport& r : denied) {
    ASSERT_EQ(verify_report(r, table).status, VerifyStatus::kNoPath);
    stream.push_back(r);
  }
  std::shuffle(stream.begin(), stream.end(), std::mt19937_64(7));
  expect_batch_equals_scalar(stream, tables);

  const Counts c = classify_all(table);
  EXPECT_GT(c.classified, 0u) << s.name;
  EXPECT_EQ(c.unclassified, 0u) << s.name;
  EXPECT_EQ(has_src_stage(table), acls) << s.name;
}

TEST(DstClassifier, StanfordMatchesScalarIncludingAclInports) {
  differential_on(bench::make_stanford(), /*acls=*/true);
}

TEST(DstClassifier, Internet2MatchesScalar) {
  differential_on(bench::make_internet2(10, 2000), false);
}

TEST(DstClassifier, FatTree8MatchesScalar) {
  differential_on(bench::make_fat_tree(8), false);
}

TEST(DstClassifier, AclFatTree4MatchesScalar) {
  bench::Setup s = bench::make_fat_tree(4);
  Rng rng(31);
  ASSERT_EQ(workload::add_edge_acls(s.controller, rng, 12), 12u);
  differential_on(std::move(s), true);
}

// The same reports judged across a retired and a current table: the
// ring bucket and the current bucket each use their own table's
// classifiers, and the grace / stale / ahead-of-table edges stay on the
// scalar fallback.
TEST(DstClassifier, EpochRingEdgesMatchScalar) {
  HeaderSpace space;
  Topology topo = internet2_like(2);
  Controller c(topo);
  routing::install_shortest_paths(c);
  ConfigTransferProvider p0(space, topo, c.logical_configs());
  const PathTable before = PathTableBuilder(space, topo, p0, 16).build();

  const auto& [port, subnet] = topo.subnets().front();
  c.add_rule(port.sw, 100,
             Match::dst_prefix(Prefix{Ipv4{subnet.addr | 4u}, 30}),
             Action::drop());
  HeaderSpace space2;
  ConfigTransferProvider p1(space2, topo, c.logical_configs());
  const PathTable after = PathTableBuilder(space2, topo, p1, 16).build();

  const EpochTables::Range ring[] = {{10, 19, &before}};
  EpochTables tables;
  tables.epoch_checking = true;
  tables.epoch = 30;
  tables.table_valid_from = 20;
  tables.table_valid_to = 30;
  tables.grace_window = 8;
  tables.current = &after;
  tables.ring = ring;
  tables.ring_size = 1;

  std::vector<TagReport> stream;
  for (const TagReport& r : report_kinds(before, 400))
    for (const std::uint32_t e : {15u, 25u, 1u, 28u, 9u, 31u}) {
      TagReport x = r;
      x.epoch = e;
      stream.push_back(x);
    }
  expect_batch_equals_scalar(stream, tables, 64);
  EXPECT_GT(before.classifiers_built(), 0u);
  EXPECT_GT(after.classifiers_built(), 0u);
}

// Set-up pays nothing: neither server builds a classifier at sync or
// publish; a verify builds exactly the classifier of the inport it
// touches.
TEST(DstClassifier, SyncBuildsNoneAndAVerifyBuildsOnlyItsInport) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Server server(c, Server::Mode::kFullRebuild);
  ParallelServer parallel(c, ParallelConfig{2, 64, 48});
  server.sync();
  parallel.sync();
  const PathTable& seq_table = *server.snapshot()->current;
  const PathTable& par_table = *parallel.snapshot()->current;
  EXPECT_EQ(seq_table.classifiers_built(), 0u);
  EXPECT_EQ(par_table.classifiers_built(), 0u);

  Network net(topo);
  c.deploy(net);
  const auto flows = workload::ping_all(topo);
  const auto r = net.inject(flows.front().header, flows.front().entry);
  ASSERT_FALSE(r.reports.empty());
  ReportBatch batch;
  batch.push(r.reports.front());
  Verdict v;
  server.verify_batch(batch, 0, 1, &v);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(seq_table.classifiers_built(), 1u);
  EXPECT_NE(seq_table.inport(r.reports.front().inport).classifier(), nullptr);
  EXPECT_EQ(par_table.classifiers_built(), 0u);
}

// Each mutator drops the classifier of the inport it edits and no other.
TEST(DstClassifier, MutatorsDropOnlyTheEditedInport) {
  HeaderSpace space;
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  ConfigTransferProvider provider(space, topo, c.logical_configs());
  PathTable table = PathTableBuilder(space, topo, provider, 16).build();

  std::vector<PortKey> inports;
  table.for_each([&inports](PortKey in, PortKey, const PathEntry&) {
    if (std::find(inports.begin(), inports.end(), in) == inports.end())
      inports.push_back(in);
  });
  ASSERT_GE(inports.size(), 2u);
  const PortKey a = inports[0];
  const auto build_all = [&] {
    for (const PortKey in : inports)
      ASSERT_NE(table.inport(in).classifier(), nullptr);
    ASSERT_EQ(table.classifiers_built(), inports.size());
  };

  const PortKey out = table.outports(a).front();
  const PathEntry entry = table.lookup(a, out)->front();
  build_all();
  table.add_path(a, out, entry.headers, entry.path, entry.tag);  // widen
  EXPECT_EQ(table.classifiers_built(), inports.size() - 1);

  build_all();
  const HeaderSet one_dst = space.ip_prefix(
      Field::DstIp, Prefix{entry.headers.any_member()->dst_ip, 32});
  EXPECT_TRUE(table.subtract_headers(a, out, entry.path, one_dst));
  EXPECT_EQ(table.classifiers_built(), inports.size() - 1);

  build_all();
  EXPECT_TRUE(table.remove_path(a, out, entry.path));
  EXPECT_EQ(table.classifiers_built(), inports.size() - 1);

  table.clear();
  EXPECT_EQ(table.classifiers_built(), 0u);
}

/// verify_report and the batched kernel (no memo) agree on every
/// report, and the inport is classified iff `classified`.
void expect_kernel_equals_verify_report(const PathTable& t, PortKey in,
                                        const std::vector<TagReport>& stream,
                                        bool classified) {
  EXPECT_EQ(t.inport(in).classifier() != nullptr, classified);
  ReportBatch soa;
  for (const TagReport& r : stream) soa.push(r);
  std::vector<Verdict> got(stream.size());
  EpochTables tables;
  tables.current = &t;
  verify_epoch_aware_batch(soa, 0, soa.size(), tables, nullptr, got.data());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Verdict want = verify_report(stream[i], t);
    EXPECT_EQ(got[i].status, want.status) << "report " << i;
    EXPECT_EQ(got[i].matched, want.matched) << "report " << i;
  }
}

// ACL'd and overlapping inports classify: a src-tested entry with a
// dst_port residual, two overlapping entries on one outport, a forward
// entry and a drop entry split by a residual, and gaps. The verdicts —
// status and matched — equal verify_report's. Only an inport over the
// piece cap keeps the pair walk.
TEST(DstClassifier, AclAndOverlappingInportsClassifyAndMatchVerifyReport) {
  HeaderSpace space;
  const PortKey in{0, 1};
  const PortKey fwd{1, 2};
  const PortKey drop{0, kDropPort};
  const BloomTag tag_a = BloomTag::of_hop(Hop{0, 1, 2});
  const BloomTag tag_b = BloomTag::of_hop(Hop{0, 1, 3});
  const Prefix p10{Ipv4::of(10, 0, 0, 0).value, 8};
  const Prefix p10_1{Ipv4::of(10, 1, 0, 0).value, 16};
  const Prefix src_deny{Ipv4::of(172, 16, 0, 0).value, 12};
  const HeaderSet dst10 = space.ip_prefix(Field::DstIp, p10);
  const HeaderSet dst10_1 = space.ip_prefix(Field::DstIp, p10_1);
  const HeaderSet denied = space.ip_prefix(Field::SrcIp, src_deny) &
                           space.field_eq(Field::DstPort, 23);

  // An ACL'd inport: 10/8 forwards unless src is in 172.16/12 and
  // dst_port is 23; those go to the drop port. 10.1/16 overlaps 10/8 on
  // the same outport, listed first, with another tag: first match wins.
  PathTable t;
  t.add_path(in, fwd, dst10_1 - denied, {Hop{0, 1, 3}}, tag_b);
  t.add_path(in, fwd, dst10 - denied, {Hop{0, 1, 2}}, tag_a);
  t.add_path(in, drop, dst10 & denied, {Hop{0, 1, kDropPort}}, tag_a);

  const auto hdr = [](Ipv4 src, Ipv4 dst, std::uint16_t dport) {
    PacketHeader h = header(src, dst);
    h.dst_port = dport;
    return h;
  };
  const Ipv4 src_in = Ipv4::of(172, 20, 1, 1);
  const Ipv4 src_out = Ipv4::of(192, 168, 0, 1);
  std::vector<TagReport> stream;
  for (const Ipv4 src : {src_in, src_out, Ipv4{0}, Ipv4{~0u}})
    for (const Ipv4 dst : {Ipv4::of(10, 1, 2, 3), Ipv4::of(10, 2, 0, 0),
                           Ipv4::of(10, 255, 255, 255), Ipv4{0},
                           Ipv4::of(11, 0, 0, 0), Ipv4{~0u}})
      for (const std::uint16_t dport : {23, 80})
        for (const PortKey out : {fwd, drop, PortKey{2, 2}})
          for (const BloomTag& tag : {tag_a, tag_b})
            stream.push_back(TagReport{in, out, hdr(src, dst, dport), tag});
  expect_kernel_equals_verify_report(t, in, stream, true);
  const InportClassifier* c = t.inport(in).classifier();
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->src.empty());      // a src stage: the deny prefix
  EXPECT_GT(c->residuals.size(), 1u);  // and a dst_port residual

  // The overlap resolves by pair-list order: a 10.1/16 header from an
  // allowed src is in both fwd entries. With tag_a it passes on the
  // second (the first's tag differs); with a tag neither has, it is a
  // mismatch whose matched entry is the first.
  const TagReport overlap{in, fwd, hdr(src_out, Ipv4::of(10, 1, 0, 9), 80),
                          tag_a};
  const Verdict want = verify_report(overlap, t);
  EXPECT_EQ(want.status, VerifyStatus::kOk);  // the second entry's tag
  EXPECT_EQ(want.matched, &t.lookup(in, fwd)->at(1));
  const TagReport mismatch{in, fwd, overlap.header,
                           BloomTag::of_hop(Hop{9, 9, 9})};
  EXPECT_EQ(verify_report(mismatch, t).matched, &t.lookup(in, fwd)->at(0));
  expect_kernel_equals_verify_report(t, in, {overlap, mismatch}, true);

  // Every odd dst address up to 2^17 + 1: 2^16 + 1 pieces, one over the
  // cap, so the inport keeps the pair walk.
  std::vector<HeaderSet> odd_dsts;
  for (std::uint32_t d = 1; d <= (1u << 17) + 1; d += 2)
    odd_dsts.push_back(space.ip_prefix(Field::DstIp, Prefix{d, 32}));
  PathTable odd;
  odd.add_path(in, fwd, space.union_all(odd_dsts), {Hop{0, 1, 2}}, tag_a);
  std::vector<TagReport> odd_stream;
  for (std::uint32_t d = 0; d < 8; ++d)
    odd_stream.push_back(TagReport{in, fwd, hdr(src_out, Ipv4{d}, 80), tag_a});
  expect_kernel_equals_verify_report(odd, in, odd_stream, false);
  EXPECT_EQ(odd.classifiers_built(), 1u);  // the verdict is kept too

  PathTable whole;
  whole.add_path(in, fwd, space.all(), {Hop{0, 1, 2}}, tag_a);
  const InportClassifier* w = whole.inport(in).classifier();
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->src.empty());
  ASSERT_EQ(w->classes.size(), 1u);
  EXPECT_EQ(w->classes[0].starts.size(), 1u);
  EXPECT_NE(w->classes[0].at(~0u).entry, nullptr);
}

/// `matched` across two tables: both null, or entries with the same hop
/// path and tag.
bool same_match(const Verdict& a, const Verdict& b) {
  if (a.status != b.status) return false;
  if ((a.matched == nullptr) != (b.matched == nullptr)) return false;
  return a.matched == nullptr || (a.matched->path == b.matched->path &&
                                  a.matched->tag == b.matched->tag);
}

// A kIncremental table is edited in place between verifies, so its
// classifiers must follow each edit. After each of 200 internet2-style
// /29-/30 churn events, its batched verdicts equal those of a fresh full
// rebuild of the same configuration.
TEST(DstClassifier, IncrementalTableTracksRebuildUnderChurn) {
  Topology topo = internet2_like(2);
  Controller c(topo);
  routing::install_shortest_paths(c);
  HeaderSpace space;
  Server server(c, Server::Mode::kIncremental, 16, space);
  server.sync();
  ASSERT_EQ(server.mode(), Server::Mode::kIncremental);

  const auto& subs = topo.subnets();
  Rng rng(2024);
  std::vector<std::pair<SwitchId, RuleId>> live;
  for (int ev = 0; ev < 200; ++ev) {
    if (!live.empty() && rng.chance(0.4)) {
      const std::size_t k = rng.index(live.size());
      c.delete_rule(live[k].first, live[k].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const auto& [port, sub] = subs[rng.index(subs.size())];
      const std::uint8_t len = rng.chance(0.5) ? 29 : 30;
      const Prefix p{Ipv4{sub.addr | (static_cast<std::uint32_t>(
                                          rng.index(32)) << 3)},
                     len};
      const auto sw = static_cast<SwitchId>(rng.index(topo.num_switches()));
      const PortId out =
          1 + static_cast<PortId>(rng.index(topo.num_ports(sw)));
      live.emplace_back(
          sw, c.add_rule(sw, len, Match::dst_prefix(p), Action::output(out)));
    }
    const PathTable& in_place = server.table();
    ASSERT_EQ(server.mode(), Server::Mode::kIncremental);

    HeaderSpace fresh_space;
    ConfigTransferProvider provider(fresh_space, topo, c.logical_configs());
    const PathTable fresh =
        PathTableBuilder(fresh_space, topo, provider, 16).build();

    const std::vector<TagReport> stream = report_kinds(fresh, 150);
    ReportBatch soa;
    for (const TagReport& r : stream) soa.push(r);
    std::vector<Verdict> got(stream.size()), want(stream.size());
    EpochTables t_in, t_fresh;
    t_in.current = &in_place;
    t_fresh.current = &fresh;
    verify_epoch_aware_batch(soa, 0, soa.size(), t_in, nullptr, got.data());
    verify_epoch_aware_batch(soa, 0, soa.size(), t_fresh, nullptr,
                             want.data());
    for (std::size_t i = 0; i < stream.size(); ++i)
      ASSERT_TRUE(same_match(got[i], want[i]))
          << "event " << ev << " lane " << i;
    ASSERT_GT(in_place.classifiers_built(), 0u);
  }
}

}  // namespace
}  // namespace veridp
