// BDD-core benchmark — the perf trajectory of the cache-conscious engine:
// flat node pool with the open-addressing full-triple unique table,
// bounded direct-mapped apply cache, per-build transfer memo, and the
// per-snapshot VerifyMemo fast path.
//
// Three measurements:
//   * build        — full path-table construction on fat-tree(8) and the
//                    Stanford-like backbone (the §6.2 workhorse tables);
//   * incremental  — per-rule §4.4 flow-forest updates on Internet2;
//   * verify       — per-report verification throughput over the FT(8)
//                    table, on a unique stream (memo-neutral: every probe
//                    misses) and on a duplicate-heavy stream (Fig-9-style
//                    resampling of hot flows, where the memo pays off),
//                    scalar and batched.
//
// The JSON also keeps, frozen under "previous", the last measurement of
// the pre-rewrite configuration (unordered_map tables, no transfer memo,
// no verify memo), which was deleted once the rewrite had replaced it.
//
// Results land in BENCH_bdd_core.json (override the path with the
// VERIDP_BENCH_JSON env var).
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_common.hpp"
#include "veridp/incremental.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

constexpr int kTagBits = 16;
// Duplicate-heavy stream shape (Fig-9-style hot-flow resampling): the
// sampler keeps re-reporting a hot working set of flows, so the stream
// draws kDupStream reports at random from kHotFlows distinct ones. The
// hot set fits the default VerifyMemo geometry (1<<12 entries) the way a
// production working set is meant to.
constexpr std::size_t kHotFlows = 1500;
constexpr std::size_t kDupStream = 120000;

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct BuildPoint {
  std::string setup;
  double build_s = 0.0;
  std::size_t paths = 0;
  std::size_t live_nodes = 0;
};

BuildPoint measure_build(Setup& s) {
  HeaderSpace space;
  space.reserve(1u << 18);
  ConfigTransferProvider provider(space, s.topo,
                                  s.controller.logical_configs());
  PathTableBuilder builder(space, s.topo, provider, kTagBits);
  const auto t0 = std::chrono::steady_clock::now();
  PathTable table = builder.build();
  BuildPoint p;
  p.setup = s.name;
  p.build_s = now_minus(t0);
  p.paths = table.stats().num_paths;
  p.live_nodes = space.manager().node_count();
  std::printf("%-12s  build %.3f s   (%zu paths, %zu live nodes)\n",
              p.setup.c_str(), p.build_s, p.paths, p.live_nodes);
  return p;
}

struct IncrementalPoint {
  std::size_t rules = 0;
  double mean_ms = 0.0;
};

/// fig14-shaped: populate all but the last Internet2 router, then install
/// the held-back rules one by one through the flow forest.
IncrementalPoint measure_incremental() {
  Topology topo = internet2_like(6 * scale());
  const SwitchId last = static_cast<SwitchId>(topo.num_switches() - 1);
  Controller full(topo);
  routing::install_shortest_paths(full);
  Rng rng(4004);
  workload::add_specific_rules(full, rng,
                               2000 * static_cast<std::size_t>(scale()));
  workload::add_specific_rules_at(full, last, rng,
                                  1500 * static_cast<std::size_t>(scale()));

  std::vector<SwitchConfig> initial(topo.num_switches());
  std::vector<FlowRule> held_back;
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    for (const FlowRule& r : full.logical(s).table.rules()) {
      if (s == last)
        held_back.push_back(r);
      else
        initial[static_cast<std::size_t>(s)].table.add(r);
    }

  HeaderSpace space;
  IncrementalUpdater updater(space, topo);
  updater.initialize(initial);
  const auto t0 = std::chrono::steady_clock::now();
  for (const FlowRule& r : held_back)
    updater.apply(RuleEvent{RuleEvent::Kind::kAdd, last, r});

  IncrementalPoint p;
  p.rules = held_back.size();
  p.mean_ms = now_minus(t0) * 1000.0 / static_cast<double>(p.rules);
  std::printf("Internet2     %.3f ms/rule   (%zu rules)\n", p.mean_ms,
              p.rules);
  return p;
}

struct VerifyPoint {
  std::size_t reports = 0;       ///< unique reports (one per path)
  std::size_t hot_flows = 0;     ///< distinct flows in the dup stream
  std::size_t dup_stream = 0;    ///< duplicate-heavy stream length
  double unique_memo_rps = 0.0;  ///< memo on, every probe misses
  double unique_batch_rps = 0.0; ///< batched pipeline, memo on, all miss
  double dup_memo_rps = 0.0;     ///< memo on, duplicates hit
  double dup_batch_rps = 0.0;    ///< batched pipeline on the dup stream
  double memo_hit_rate = 0.0;    ///< hits/lookups on the duplicate stream
  std::size_t batch_size = 0;    ///< lanes per verify_epoch_aware_batch
};

double measure_verify_rate(const std::vector<TagReport>& stream,
                           const EpochTables& tables, VerifyMemo* memo) {
  std::size_t passed = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const TagReport& r : stream)
    if (verify_epoch_aware(r, tables, memo).ok()) ++passed;
  const double dt = now_minus(t0);
  if (passed != stream.size())
    std::printf("  (UNEXPECTED: %zu of %zu reports did not pass!)\n",
                stream.size() - passed, stream.size());
  return static_cast<double>(stream.size()) / dt;
}

/// The batched pipeline's rate on the same stream, honestly including
/// the SoA materialization: each timed iteration pushes batch_size
/// reports into the ReportBatch columns (bits_packed and all) before
/// verify_epoch_aware_batch fills the verdict column.
double measure_verify_batch_rate(const std::vector<TagReport>& stream,
                                 const EpochTables& tables, VerifyMemo* memo,
                                 std::size_t batch_size) {
  ReportBatch batch;
  batch.reserve(batch_size);
  std::vector<Verdict> verdicts(batch_size);
  std::size_t passed = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.size();) {
    const std::size_t n = std::min(batch_size, stream.size() - i);
    batch.clear();
    for (std::size_t k = 0; k < n; ++k) batch.push(stream[i + k]);
    verify_epoch_aware_batch(batch, 0, n, tables, memo, verdicts.data());
    for (std::size_t k = 0; k < n; ++k)
      if (verdicts[k].ok()) ++passed;
    i += n;
  }
  const double dt = now_minus(t0);
  if (passed != stream.size())
    std::printf("  (UNEXPECTED: %zu of %zu reports did not pass!)\n",
                stream.size() - passed, stream.size());
  return static_cast<double>(stream.size()) / dt;
}

VerifyPoint measure_verify(Setup& s) {
  ConfigTransferProvider provider(s.space, s.topo,
                                  s.controller.logical_configs());
  PathTable table = PathTableBuilder(s.space, s.topo, provider, kTagBits).build();
  EpochTables tables;
  tables.current = &table;

  std::vector<TagReport> unique;
  Rng rng(808);
  table.for_each([&unique, &rng](PortKey in, PortKey out, const PathEntry& e) {
    if (auto h = e.headers.sample(rng))
      unique.push_back(TagReport{in, out, *h, e.tag});
  });
  std::vector<TagReport> dup;
  dup.reserve(kDupStream);
  const std::size_t hot = std::min(kHotFlows, unique.size());
  for (std::size_t i = 0; i < kDupStream; ++i) {
    TagReport r = unique[rng.index(hot)];
    r.seq = static_cast<std::uint32_t>(i);
    dup.push_back(r);
  }

  VerifyPoint p;
  p.reports = unique.size();
  p.hot_flows = hot;
  p.dup_stream = dup.size();
  p.batch_size = autotuned_batch_size();
  {
    VerifyMemo memo;
    p.unique_memo_rps = measure_verify_rate(unique, tables, &memo);
  }
  {
    VerifyMemo memo;
    p.unique_batch_rps =
        measure_verify_batch_rate(unique, tables, &memo, p.batch_size);
  }
  {
    VerifyMemo memo;
    p.dup_memo_rps = measure_verify_rate(dup, tables, &memo);
    p.memo_hit_rate = static_cast<double>(memo.hits()) /
                      static_cast<double>(memo.lookups());
  }
  {
    VerifyMemo memo;
    p.dup_batch_rps =
        measure_verify_batch_rate(dup, tables, &memo, p.batch_size);
  }
  std::printf("%-12s  unique: memo %.0f/s batch %.0f/s (%.2fx)\n"
              "              hot %zu/%zu: memo %.0f/s (hit rate %.2f) "
              "batch %.0f/s\n",
              s.name.c_str(), p.unique_memo_rps, p.unique_batch_rps,
              p.unique_batch_rps / p.unique_memo_rps, p.hot_flows,
              p.dup_stream, p.dup_memo_rps, p.memo_hit_rate,
              p.dup_batch_rps);
  return p;
}

void write_json(const std::vector<BuildPoint>& builds,
                const IncrementalPoint& inc, const VerifyPoint& vp) {
  const char* path = std::getenv("VERIDP_BENCH_JSON");
  if (!path) path = "BENCH_bdd_core.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::printf("cannot write %s\n", path);
    return;
  }
  // Last run of the deleted pre-rewrite configuration, same workloads,
  // 1-core container.
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"bdd_core\",\n"
      "  \"previous\": [\n"
      "    {\"label\": \"legacy engine (unordered_map unique table, "
      "unbounded op cache), transfer reuse off, no verify memo\",\n"
      "     \"build\": [{\"setup\": \"FT(k=8)\", \"old_s\": 0.0095}, "
      "{\"setup\": \"Stanford\", \"old_s\": 2.8843}],\n"
      "     \"incremental\": {\"setup\": \"Internet2\", \"rules\": 1758, "
      "\"old_mean_ms\": 0.2359},\n"
      "     \"verify\": {\"setup\": \"FT(k=8)\", "
      "\"unique_old_reports_per_s\": 3659411, "
      "\"dup_old_reports_per_s\": 4404652}}\n"
      "  ],\n"
      "  \"build\": [\n");
  for (std::size_t i = 0; i < builds.size(); ++i) {
    const BuildPoint& b = builds[i];
    std::fprintf(f,
                 "    {\"setup\": \"%s\", \"build_s\": %.4f, "
                 "\"paths\": %zu, \"live_nodes\": %zu}%s\n",
                 b.setup.c_str(), b.build_s, b.paths, b.live_nodes,
                 i + 1 < builds.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"incremental\": {\"setup\": \"Internet2\", \"rules\": %zu, "
               "\"mean_ms\": %.4f},\n",
               inc.rules, inc.mean_ms);
  std::fprintf(
      f,
      "  \"verify\": {\"setup\": \"FT(k=8)\", \"reports\": %zu, "
      "\"hot_flows\": %zu, \"dup_stream\": %zu, \"batch_size\": %zu,\n"
      "    \"unique_memo_reports_per_s\": %.0f, "
      "\"unique_batch_reports_per_s\": %.0f,\n"
      "    \"dup_memo_reports_per_s\": %.0f, "
      "\"dup_batch_reports_per_s\": %.0f, \"memo_hit_rate\": %.4f}\n"
      "}\n",
      vp.reports, vp.hot_flows, vp.dup_stream, vp.batch_size,
      vp.unique_memo_rps, vp.unique_batch_rps, vp.dup_memo_rps,
      vp.dup_batch_rps, vp.memo_hit_rate);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  rule_header("BDD core: build / update / verify");

  std::vector<BuildPoint> builds;
  {
    Setup ft = make_fat_tree(8);
    builds.push_back(measure_build(ft));
  }
  {
    Setup st = make_stanford();
    builds.push_back(measure_build(st));
  }

  const IncrementalPoint inc = measure_incremental();

  Setup ft = make_fat_tree(8);
  const VerifyPoint vp = measure_verify(ft);

  write_json(builds, inc, vp);
  return 0;
}
