// Differential suite for the batched verification pipeline (DESIGN.md
// §11): verify_epoch_aware_batch must be bit-identical to the memoized
// scalar verify_epoch_aware run lane by lane — the verdicts (status,
// matched pointer, epoch), the memo's end state and its hit/lookup
// counters — across every Verdict kind, every batch size, and the
// epoch-edge fallbacks (kStaleEpoch, grace window, ahead-of-table
// failsafe). Also covers the batch kernels the pipeline rides on
// (eval_packed_many) and the ingest-level equality of the batched
// ingest with a one-verify-per-report reference, including shed /
// malformed / dedup flows.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "controller/routing.hpp"
#include "dataplane/wire.hpp"
#include "testutil.hpp"
#include "veridp/ingest.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/server.hpp"
#include "veridp/verifier.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

using testutil::header;

// End-to-end fixture: topology + routing + deployed network + path table.
struct Deployment {
  explicit Deployment(Topology t, int tag_bits = 16)
      : topo(std::move(t)), controller(topo), net(topo, tag_bits) {
    routing::install_shortest_paths(controller);
    controller.deploy(net);
    ConfigTransferProvider provider(space, topo, controller.logical_configs());
    table = PathTableBuilder(space, topo, provider, tag_bits).build();
  }
  HeaderSpace space;
  Topology topo;
  Controller controller;
  Network net;
  PathTable table;
};

// A seeded stream with every sequential verdict kind: passing reports,
// corrupted tags (kTagMismatch), forged exits (kNoPath), plus whole-
// stream duplicates with varying seq (memo + intra-batch dup coverage).
std::vector<TagReport> mixed_stream(Deployment& d, std::uint64_t seed,
                                    int flows) {
  std::vector<TagReport> stream;
  Rng rng(seed);
  for (const auto& flow : workload::random_flows(d.topo, rng, flows)) {
    const auto r = d.net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports) {
      stream.push_back(rep);
      TagReport bad = rep;
      bad.tag |= BloomTag::of_hop(Hop{9, 99, 9}, bad.tag.bits());
      stream.push_back(bad);
      TagReport wrong_exit = rep;
      wrong_exit.outport = PortKey{rep.outport.sw, rep.outport.port + 1};
      stream.push_back(wrong_exit);
    }
  }
  const std::size_t unique = stream.size();
  for (std::size_t i = 0; i < unique; ++i) {
    TagReport dup = stream[i];
    dup.seq += 1000;
    stream.push_back(dup);
  }
  return stream;
}

void expect_same_verdict(const Verdict& a, const Verdict& b,
                         std::size_t lane) {
  EXPECT_EQ(a.status, b.status) << "lane " << lane;
  EXPECT_EQ(a.matched, b.matched) << "lane " << lane;
  EXPECT_EQ(a.epoch, b.epoch) << "lane " << lane;
}

// Runs the same stream through the scalar memoized path and the batched
// path (chunked at `batch`), comparing verdicts lane by lane and the
// memo counters at the end. Returns the batch-side memo for follow-up
// end-state probing.
void differential(const std::vector<TagReport>& stream,
                  const EpochTables& tables, std::size_t batch,
                  VerifyMemo* scalar_memo, VerifyMemo* batch_memo) {
  std::vector<Verdict> scalar(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i)
    scalar[i] = verify_epoch_aware(stream[i], tables, scalar_memo);

  ReportBatch soa;
  for (const TagReport& r : stream) soa.push(r);
  std::vector<Verdict> batched(stream.size());
  for (std::size_t base = 0; base < stream.size(); base += batch) {
    const std::size_t n = std::min(batch, stream.size() - base);
    verify_epoch_aware_batch(soa, base, n, tables, batch_memo,
                             batched.data() + base);
  }

  for (std::size_t i = 0; i < stream.size(); ++i)
    expect_same_verdict(scalar[i], batched[i], i);
  if (scalar_memo && batch_memo) {
    EXPECT_EQ(scalar_memo->lookups(), batch_memo->lookups());
    EXPECT_EQ(scalar_memo->hits(), batch_memo->hits());
  }
}

TEST(BatchVerify, VerdictsBitIdenticalAcrossBatchSizes) {
  Deployment d(fat_tree(4));
  EpochTables tables;
  tables.current = &d.table;

  const std::vector<TagReport> stream = mixed_stream(d, 42, 60);
  // 1 exercises the degenerate single-lane batch; 3 and 8 exercise
  // chunk remainders; 256 is the autotune default; the full stream in
  // one call exercises large intra-batch duplicate distances.
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{256},
        stream.size()}) {
    VerifyMemo a, b;
    differential(stream, tables, batch, &a, &b);
  }
}

TEST(BatchVerify, MemoEndStateIdenticalToScalar) {
  // After one differential pass, replaying the stream scalar through
  // BOTH memos must produce identical hit deltas: if the batch fill
  // pass left different surviving entries (wrong eviction order, wrong
  // filler), the replay hit patterns would diverge.
  Deployment d(fat_tree(4));
  EpochTables tables;
  tables.current = &d.table;
  const std::vector<TagReport> stream = mixed_stream(d, 7, 40);

  VerifyMemo scalar_memo, batch_memo;
  differential(stream, tables, 64, &scalar_memo, &batch_memo);

  for (const TagReport& r : stream) {
    const Verdict va = verify_epoch_aware(r, tables, &scalar_memo);
    const Verdict vb = verify_epoch_aware(r, tables, &batch_memo);
    EXPECT_EQ(va.status, vb.status);
    EXPECT_EQ(va.matched, vb.matched);
    EXPECT_EQ(va.epoch, vb.epoch);
    EXPECT_EQ(scalar_memo.hits(), batch_memo.hits());
    EXPECT_EQ(scalar_memo.lookups(), batch_memo.lookups());
  }
}

TEST(BatchVerify, NullMemoAndEpochOffRewrite) {
  // memo == nullptr is the ParallelServer's cold path; with epoch
  // checking off every verdict must carry table_valid_from, matching
  // the scalar wrapper's rewrite.
  Deployment d(fat_tree(4));
  EpochTables tables;
  tables.current = &d.table;
  tables.table_valid_from = 17;

  std::vector<TagReport> stream = mixed_stream(d, 3, 30);
  for (TagReport& r : stream) r.epoch = 99;  // must be overridden

  differential(stream, tables, 32, nullptr, nullptr);

  ReportBatch soa;
  for (const TagReport& r : stream) soa.push(r);
  std::vector<Verdict> out(stream.size());
  verify_epoch_aware_batch(soa, 0, stream.size(), tables, nullptr,
                           out.data());
  for (const Verdict& v : out) EXPECT_EQ(v.epoch, 17u);
}

// Epoch-edge differential: a snapshot ring, a grace window and an
// ahead-of-table ceiling (the failsafe window), with reports
// stamped into every region — ring-covered, grace-covered, uncovered
// (kStaleEpoch) and ahead-of-table. The batch path must route each lane
// through the same table (or fallback) the scalar path picks.
TEST(BatchVerify, EpochEdgesMatchScalar) {
  HeaderSpace space;
  Topology topo = linear(3);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Network net(topo);
  c.deploy(net);

  ConfigTransferProvider p0(space, topo, c.logical_configs());
  PathTable before = PathTableBuilder(space, topo, p0, 16).build();

  // Sample reports under the initial config.
  std::vector<TagReport> sampled;
  for (const auto& flow : workload::ping_all(topo)) {
    const auto r = net.inject(flow.header, flow.entry);
    for (const TagReport& rep : r.reports) sampled.push_back(rep);
  }
  ASSERT_FALSE(sampled.empty());

  // The config moves on: blackhole one destination, rebuild.
  c.add_rule(1, 1000, Match::dst_prefix(Prefix{Ipv4::of(10, 0, 2, 1), 32}),
             Action::drop());
  ConfigTransferProvider p1(space, topo, c.logical_configs());
  PathTable after = PathTableBuilder(space, topo, p1, 16).build();

  const EpochTables::Range ring[] = {{10, 19, &before}};
  EpochTables tables;
  tables.epoch_checking = true;
  tables.epoch = 30;
  tables.table_valid_from = 20;
  tables.table_valid_to = 30;  // failsafe ceiling: 31+ is ahead-of-table
  tables.grace_window = 8;
  tables.current = &after;
  tables.ring = ring;
  tables.ring_size = 1;

  std::vector<TagReport> stream;
  const std::uint32_t epochs[] = {
      15,  // ring-covered: verified against `before`
      25,  // current-covered: verified against `after`
      1,   // uncovered, outside grace: kStaleEpoch fallback
      28,  // grace-window region is below valid_from but covered here
      9,   // uncovered, inside grace of epoch 30? (30-9 > 8): stale
      14,  // ring-covered again (dup pressure on the ring bucket)
      31,  // ahead-of-table: pass conclusive, mismatch -> kStaleEpoch
      40,  // far ahead-of-table
  };
  for (const TagReport& rep : sampled) {
    for (const std::uint32_t e : epochs) {
      TagReport r = rep;
      r.epoch = e;
      stream.push_back(r);
      TagReport bad = r;  // mismatching tag in every region
      bad.tag |= BloomTag::of_hop(Hop{9, 99, 9}, bad.tag.bits());
      stream.push_back(bad);
    }
  }

  // Sanity: the stream really exercises the edge statuses.
  bool saw_stale = false, saw_ok = false, saw_fail = false;
  for (const TagReport& r : stream) {
    const Verdict v = verify_epoch_aware(r, tables);
    saw_stale |= v.status == VerifyStatus::kStaleEpoch;
    saw_ok |= v.ok();
    saw_fail |= v.failed();
  }
  EXPECT_TRUE(saw_stale);
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_fail);

  for (const std::size_t batch : {std::size_t{5}, std::size_t{64}}) {
    VerifyMemo a, b;
    differential(stream, tables, batch, &a, &b);
  }
  differential(stream, tables, 32, nullptr, nullptr);
}

TEST(BatchVerify, ServerVerifyBatchMatchesScalarServer) {
  // Two servers over the same controller, one fed scalar and one
  // batched: verdict statuses and the passed/stale/failed ledgers must
  // agree (matched pointers differ across tables, statuses cannot).
  Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Server scalar_server(c, Server::Mode::kFullRebuild);
  Server batch_server(c, Server::Mode::kFullRebuild);
  scalar_server.sync();
  batch_server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  Deployment d(fat_tree(4));  // stream source only
  const std::vector<TagReport> stream = mixed_stream(d, 21, 40);

  std::vector<Verdict> scalar(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i)
    scalar[i] = scalar_server.verify(stream[i]);

  ReportBatch soa;
  for (const TagReport& r : stream) soa.push(r);
  std::vector<Verdict> batched(stream.size());
  for (std::size_t base = 0; base < stream.size(); base += 48) {
    const std::size_t n = std::min<std::size_t>(48, stream.size() - base);
    batch_server.verify_batch(soa, base, n, batched.data() + base);
  }

  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(scalar[i].status, batched[i].status) << "lane " << i;
    EXPECT_EQ(scalar[i].epoch, batched[i].epoch) << "lane " << i;
  }
  EXPECT_EQ(scalar_server.reports_verified(), batch_server.reports_verified());
  EXPECT_EQ(scalar_server.reports_passed(), batch_server.reports_passed());
  EXPECT_EQ(scalar_server.reports_stale(), batch_server.reports_stale());
  EXPECT_EQ(scalar_server.reports_failed(), batch_server.reports_failed());
}

// Ingest-level equality: the same offer stream (valid, malformed,
// duplicate-seq and overflow datagrams) through the production ingest,
// drained in uneven process(16) / process(64) chunks, and through a
// scalar reference written out here (one Server::verify per admitted
// report, batch size 1) must produce the same health ledger —
// passed/stale/failed AND shed/quarantined/deduped — the same verdict
// sequence and the same failed reports, in order.
TEST(BatchVerify, IngestHealthIdenticalAcrossBatchSizes) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Network net(topo);
  c.deploy(net);

  // One shared stream of datagrams.
  Deployment d(fat_tree(4));
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::uint32_t seq = 1;
  for (const TagReport& rep : mixed_stream(d, 5, 30)) {
    TagReport r = rep;
    r.seq = seq++;
    datagrams.push_back(wire::encode_report(r));
    if (seq % 7 == 0) {  // duplicate seq from the same switch: deduped
      datagrams.push_back(wire::encode_report(r));
    }
    if (seq % 11 == 0) {  // truncated payload: quarantined
      std::vector<std::uint8_t> junk = datagrams.back();
      junk.resize(junk.size() / 2);
      datagrams.push_back(junk);
    }
  }

  IngestConfig icfg;
  icfg.capacity = 64;  // small: overflow forces shedding
  icfg.high_watermark = 32;
  // The reference dedups with an exact set, which matches the ingest's
  // windowed tracker only while no switch outgrows the window.
  ASSERT_LT(datagrams.size(), icfg.dedup_window);

  struct Run {
    IngestHealth health;
    std::vector<VerifyStatus> sunk;
    std::vector<std::uint32_t> failures;  ///< every failed report, by seq
  };

  auto production = [&] {
    Server server(c, Server::Mode::kFullRebuild);
    server.sync();
    ReportIngest ingest(server, icfg);
    Run run;
    ingest.set_verdict_sink([&run](const TagReport& r, const Verdict& v) {
      run.sunk.push_back(v.status);
      if (v.failed()) run.failures.push_back(r.seq);
    });
    for (const auto& dg : datagrams) {
      ingest.offer(dg);
      if (ingest.health().in_queue >= 48) (void)ingest.process(16);
    }
    while (ingest.process(64) > 0) {
    }
    run.health = ingest.health();
    return run;
  };

  // Scalar reference: quarantine, per-switch dedup and watermark
  // shedding written out longhand, then one Server::verify per admitted
  // report in arrival order.
  auto reference = [&] {
    Server server(c, Server::Mode::kFullRebuild);
    server.sync();
    Run run;
    IngestHealth& h = run.health;
    std::deque<TagReport> queue;
    std::set<std::pair<SwitchId, std::uint32_t>> seen;
    auto process = [&](std::size_t max) {
      std::size_t n = 0;
      for (; n < max && !queue.empty(); ++n) {
        const Verdict v = server.verify(queue.front());
        run.sunk.push_back(v.status);
        ++h.verified;
        if (v.ok()) {
          ++h.passed;
        } else if (v.status == VerifyStatus::kStaleEpoch) {
          ++h.stale;
        } else {
          ++h.failed;
          run.failures.push_back(queue.front().seq);
        }
        queue.pop_front();
      }
      return n;
    };
    for (const auto& dg : datagrams) {
      ++h.received;
      const auto r = wire::decode_report(dg);
      if (!r) {
        ++h.quarantined;
      } else if (r->seq != 0 && !seen.emplace(r->outport.sw, r->seq).second) {
        ++h.deduped;
      } else if (queue.size() >= icfg.capacity ||
                 (queue.size() >= icfg.high_watermark &&
                  r->seq % icfg.shed_modulus != 0)) {
        ++h.shed;
      } else {
        queue.push_back(*r);
      }
      if (queue.size() >= 48) (void)process(16);
    }
    while (process(64) > 0) {
    }
    return run;
  };

  const Run want = reference();
  const Run got = production();

  EXPECT_GT(want.health.shed, 0u) << "stream too small to trigger shedding";
  EXPECT_GT(want.health.quarantined, 0u);
  EXPECT_GT(want.health.deduped, 0u);
  EXPECT_GT(want.health.failed, 0u) << "the stream must fail some reports";
  EXPECT_EQ(got.health.received, want.health.received);
  EXPECT_EQ(got.health.verified, want.health.verified);
  EXPECT_EQ(got.health.passed, want.health.passed);
  EXPECT_EQ(got.health.stale, want.health.stale);
  EXPECT_EQ(got.health.failed, want.health.failed);
  EXPECT_EQ(got.health.shed, want.health.shed);
  EXPECT_EQ(got.health.quarantined, want.health.quarantined);
  EXPECT_EQ(got.health.deduped, want.health.deduped);
  EXPECT_TRUE(got.health.conserved());
  EXPECT_EQ(got.sunk, want.sunk);
  EXPECT_EQ(got.failures, want.failures);
}

TEST(BatchVerify, EvalPackedManyMatchesEvalWith) {
  // The lockstep multi-root BDD walk must agree with the scalar
  // membership test on every (path entry, header) pair — including the
  // remainder lanes when n is not a multiple of the lane width.
  Deployment d(fat_tree(4));

  std::vector<const PathEntry*> entries;
  d.table.for_each([&entries](PortKey, PortKey, const PathEntry& p) {
    entries.push_back(&p);
  });
  ASSERT_FALSE(entries.empty());

  std::vector<PacketHeader> headers;
  Rng rng(13);
  for (const auto& flow : workload::random_flows(d.topo, rng, 25))
    headers.push_back(flow.header);

  const BddManager* mgr = entries.front()->headers.manager();
  ASSERT_NE(mgr, nullptr);

  std::vector<BddRef> roots;
  std::vector<std::array<std::uint64_t, 2>> hdrs;
  std::vector<bool> expect;
  for (const PathEntry* p : entries) {
    if (p->headers.manager() != mgr) continue;  // one arena per call
    for (const PacketHeader& h : headers) {
      roots.push_back(p->headers.ref());
      hdrs.push_back(h.bits_packed());
      expect.push_back(p->headers.contains(h));
    }
  }
  // An odd total so the scalar remainder path runs too.
  if (roots.size() % BddManager::kEvalLanes == 0) {
    roots.pop_back();
    hdrs.pop_back();
    expect.pop_back();
  }

  std::vector<std::uint8_t> got(roots.size());
  mgr->eval_packed_many(roots.data(), hdrs.data(), roots.size(), got.data());
  for (std::size_t i = 0; i < roots.size(); ++i)
    EXPECT_EQ(got[i] != 0, expect[i]) << "pair " << i;
}

}  // namespace
}  // namespace veridp
