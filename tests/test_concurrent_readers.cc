// Concurrent const readers over PathTable / HeaderSet / BDD state
// (satellite of DESIGN.md §6; the per-layer thread-safety contract).
//
// The parallel server's workers rely on a layered guarantee: a fully
// built PathTable read through its const interface is race-free — which
// bottoms out in BDD membership evaluation (`eval`, `pick_one`,
// `pick_random`) never touching the manager's node store mutably, and
// `sat_count` guarding its lazily-built memo. These tests drive exactly
// those paths from many threads, with and without a concurrent snapshot
// swap, and are the primary targets of the TSan preset: a data race
// anywhere in the read path fails the `concurrency`-labelled run.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "controller/routing.hpp"
#include "testutil.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/verifier.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace {

/// Builds the path table of a shortest-path deployment in its own fresh
/// HeaderSpace (the snapshot-publication idiom: one BDD arena per
/// table, so builds never mutate nodes a reader is evaluating).
std::shared_ptr<const PathTable> build_table(const Controller& c) {
  HeaderSpace space;  // keeps its manager alive through the HeaderSets
  ConfigTransferProvider provider(space, c.topology(), c.logical_configs());
  PathTableBuilder builder(space, c.topology(), provider);
  return std::make_shared<const PathTable>(builder.build());
}

TEST(ConcurrentReaders, ManyThreadsVerifyAgainstSharedTable) {
  Topology topo = linear(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  const std::shared_ptr<const PathTable> table = build_table(c);

  Network net(topo);
  c.deploy(net);
  std::vector<TagReport> reports;
  for (const auto& f : workload::ping_all(topo)) {
    const auto r = net.inject(f.header, f.entry, 0.0);
    reports.insert(reports.end(), r.reports.begin(), r.reports.end());
  }
  ASSERT_GT(reports.size(), 0u);

  // Sequential ground truth first.
  std::uint64_t expect_passed = 0;
  for (const TagReport& r : reports)
    if (verify_report(r, *table).ok()) ++expect_passed;
  ASSERT_EQ(expect_passed, reports.size()) << "consistent plane passes";

  constexpr unsigned kThreads = 8;
  constexpr int kIters = 50;
  std::atomic<std::uint64_t> passed{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reports, &table, &passed] {
      std::uint64_t local = 0;
      for (int it = 0; it < kIters; ++it)
        for (const TagReport& r : reports)
          if (verify_report(r, *table).ok()) ++local;
      passed.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(passed.load(), expect_passed * kThreads * kIters);
}

// Membership evaluation (`contains` → BddManager::eval) and sat-picking
// (`sample`/`any_member` → pick_random/pick_one) from many threads over
// the same entries, racing a writer that swaps the published table
// pointer mid-stream. Each replacement table lives in a fresh arena, so
// the only shared mutable object is the atomic pointer itself.
TEST(ConcurrentReaders, MembershipAndSatPickRaceFreeAcrossSnapshotSwap) {
  Topology topo = linear(4);
  Controller c(topo);
  routing::install_shortest_paths(c);

  std::atomic<std::shared_ptr<const PathTable>> published{build_table(c)};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> evals{0};

  constexpr unsigned kReaders = 6;
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kReaders; ++t) {
    readers.emplace_back([&published, &stop, &evals, t] {
      Rng rng(0x9e3779b9ULL + t);  // sat-pick RNG is per-thread state
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const PathTable> table =
            published.load(std::memory_order_acquire);
        table->for_each([&rng, &local](PortKey, PortKey,
                                       const PathEntry& e) {
          if (const auto h = e.headers.sample(rng)) {
            if (e.headers.contains(*h)) ++local;  // always true
          }
          if (const auto h = e.headers.any_member())
            local += e.headers.contains(*h) ? 1 : 0;
          local += e.headers.bdd_size() > 0 ? 1 : 0;
        });
      }
      evals.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // Writer: five config changes, each publishing a fresh-arena rebuild.
  const auto& subnets = topo.subnets();
  ASSERT_FALSE(subnets.empty());
  for (int i = 0; i < 5; ++i) {
    const auto& [dst_port, subnet] =
        subnets[static_cast<std::size_t>(i) % subnets.size()];
    c.add_rule(dst_port.sw, 5000 + i, Match::dst_prefix(subnet),
               Action::drop());
    published.store(build_table(c), std::memory_order_release);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(evals.load(), 0u);
}

// `HeaderSet::count` memoizes inside the shared BddManager — the one
// lazily-mutated cache on the read side. The guard must make concurrent
// counts race-free AND value-identical.
TEST(ConcurrentReaders, ConcurrentSatCountIsGuardedAndDeterministic) {
  Topology topo = linear(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  const std::shared_ptr<const PathTable> table = build_table(c);

  std::vector<HeaderSet> sets;
  table->for_each([&sets](PortKey, PortKey, const PathEntry& e) {
    sets.push_back(e.headers);
  });
  ASSERT_GT(sets.size(), 1u);

  // Ground truth on a cold cache equals re-counts on a warm one.
  std::vector<double> expect;
  expect.reserve(sets.size());
  for (const HeaderSet& s : sets) expect.push_back(s.count());

  constexpr unsigned kThreads = 8;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&sets, &got, t] {
      for (const HeaderSet& s : sets) got[t].push_back(s.count());
    });
  }
  for (std::thread& t : pool) t.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expect);
}


// First use of a published table's classifiers (path_table.hpp): 8
// threads run the batched kernel over one freshly published table of `c`
// at once, so they race to build and install the same slots; a writer
// swaps in a fresh table mid-run and the race repeats on it. Every lane
// must equal verify_report on the table the thread loaded.
void expect_first_use_race_free(Controller& c, const ReportBatch& batch) {
  ASSERT_GT(batch.size(), 0u);
  std::atomic<std::shared_ptr<const PathTable>> published{build_table(c)};
  ASSERT_EQ(published.load()->classifiers_built(), 0u);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> lanes{0};

  constexpr unsigned kThreads = 8;
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      std::vector<Verdict> out(batch.size());
      std::uint64_t bad = 0, done = 0;
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
      }
      // Until stopped, and at least one pass over the final table.
      std::shared_ptr<const PathTable> table;
      do {
        table = published.load(std::memory_order_acquire);
        EpochTables tables;
        tables.current = table.get();
        verify_epoch_aware_batch(batch, 0, batch.size(), tables, nullptr,
                                 out.data());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const Verdict want = verify_report(batch.report(i), *table);
          bad += want.status != out[i].status || want.matched != out[i].matched;
        }
        done += batch.size();
      } while (!stop.load(std::memory_order_acquire) ||
               table != published.load(std::memory_order_acquire));
      mismatches.fetch_add(bad, std::memory_order_acq_rel);
      lanes.fetch_add(done, std::memory_order_acq_rel);
    });
  }

  while (ready.load(std::memory_order_acquire) < kThreads) {
  }
  const auto& [dst_port, subnet] = c.topology().subnets().front();
  c.add_rule(dst_port.sw, 5000, Match::dst_prefix(subnet), Action::drop());
  published.store(build_table(c), std::memory_order_release);
  std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(lanes.load(), batch.size() * kThreads);
}

/// The reports of every ping between `topo`'s hosts on a deployment of `c`.
std::vector<TagReport> ping_reports(const Topology& topo,
                                    const Controller& c) {
  Network net(topo);
  c.deploy(net);
  std::vector<TagReport> reports;
  for (const auto& f : workload::ping_all(topo)) {
    const auto r = net.inject(f.header, f.entry, 0.0);
    reports.insert(reports.end(), r.reports.begin(), r.reports.end());
  }
  return reports;
}

TEST(ConcurrentReaders, FirstUseClassifierBuildRaceFreeAcrossSnapshotSwap) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  ReportBatch batch;
  for (const TagReport& r : ping_reports(topo, c)) batch.push(r);
  expect_first_use_race_free(c, batch);
}

// The same race on ACL'd inports: their builds have a src stage, and the
// lanes from inside a deny's src prefix evaluate dst_port residuals.
TEST(ConcurrentReaders, FirstUseSrcClassBuildRaceFreeWithEdgeAcls) {
  Topology topo = fat_tree(4);
  Controller c(topo);
  routing::install_shortest_paths(c);
  Rng rng(41);
  ASSERT_EQ(workload::add_edge_acls(c, rng, 12), 12u);
  ReportBatch batch;
  for (const TagReport& r : ping_reports(topo, c)) {
    batch.push(r);
    for (const AclEntry& a :
         c.logical(r.inport.sw).in_acl(r.inport.port).entries()) {
      if (a.permit || !a.match.dst_port) continue;
      TagReport in_prefix = r;  // allowed: another dst_port
      in_prefix.header.src_ip = Ipv4{a.match.src.addr};
      batch.push(in_prefix);
      in_prefix.header.dst_port = *a.match.dst_port;  // denied
      batch.push(in_prefix);
    }
  }
  // Some lane's interval holds a candidate whose residual it evaluates.
  const std::shared_ptr<const PathTable> probe = build_table(c);
  bool residual_lane = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const InportClassifier* cl = probe->inport(batch.inport[i]).classifier();
    ASSERT_NE(cl, nullptr);
    const PacketHeader& h = batch.header[i];
    for (const IntervalCandidate* x =
             &cl->dst_map(h.src_ip.value).at(h.dst_ip.value);
         x != nullptr; x = cl->next(*x))
      residual_lane = residual_lane || (x->entry && x->residual != 0);
  }
  EXPECT_TRUE(residual_lane);
  expect_first_use_race_free(c, batch);
}

}  // namespace
}  // namespace veridp
