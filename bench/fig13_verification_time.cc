// Figure 13 — time to verify a single tag report on the VeriDP server.
//
// Setup (§6.4): one test packet per path in the path table; each report
// is verified repeatedly and the mean time reported. Paper: 2-3 μs per
// report (~5x10^5 reports/s, single-threaded).
//
// Uses google-benchmark for the measurement loop. `Verify` is Algorithm 3
// one report at a time (verify_report: the pair probe and the BDD walk);
// `VerifyBatch` is the server's batched kernel (verify_epoch_aware_batch,
// 256 lanes, no memo), which decides each lane by its inport's
// classifier: a src class, a dst interval and the candidates' residuals.
// Stanford's batched row is split by inport: `DstOnly` holds the reports
// of inports without an ingress ACL (one class, no residual), `Acl` those
// of the ACL'd inports (src classes, dst_port residuals). Each row cycles
// through its reports; time is per report.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

// Builds the setup once per topology and synthesizes one report per path
// (the report a consistent data plane would send).
struct Fixture {
  std::unique_ptr<Setup> setup;
  PathTable table;
  std::vector<TagReport> reports;
  ReportBatch batch;      // `reports`, column-wise
  ReportBatch dst_batch;  // those on inports without an ingress ACL
  ReportBatch acl_batch;  // those on inports with one

  explicit Fixture(Setup&& s_in) : setup(new Setup(std::move(s_in))) {
    auto [t, secs] = timed_build(*setup);
    (void)secs;
    table = std::move(t);
    Rng rng(99);
    table.for_each([this, &rng](PortKey in, PortKey out, const PathEntry& e) {
      if (auto h = e.headers.sample(rng))
        reports.push_back(TagReport{in, out, *h, e.tag});
    });
    for (const TagReport& r : reports) {
      batch.push(r);
      const SwitchConfig& cfg = setup->controller.logical(r.inport.sw);
      (cfg.in_acl(r.inport.port).entries().empty() ? dst_batch : acl_batch)
          .push(r);
      // Built lazily on first use; build them here so a short run times
      // verification, not the one-off builds.
      (void)table.inport(r.inport).classifier();
    }
  }
};

Fixture& stanford() {
  static Fixture f(make_stanford());
  return f;
}
Fixture& internet2() {
  static Fixture f(make_internet2());
  return f;
}

void bm_verify(benchmark::State& state, Fixture& f) {
  std::size_t i = 0;
  std::size_t failed = 0;
  for (auto _ : state) {
    const Verdict verdict = verify_report(f.reports[i], f.table);
    benchmark::DoNotOptimize(verdict);
    if (!verdict.ok()) ++failed;
    i = (i + 1) % f.reports.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (failed != 0) state.SkipWithError("unexpected verification failure");
}

void bm_verify_batch(benchmark::State& state, Fixture& f,
                     const ReportBatch& batch) {
  constexpr std::size_t kLanes = 256;
  EpochTables tables;
  tables.current = &f.table;
  std::vector<Verdict> out(kLanes);
  std::size_t first = 0;
  std::size_t failed = 0;
  std::int64_t lanes = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kLanes, batch.size() - first);
    verify_epoch_aware_batch(batch, first, n, tables, nullptr, out.data());
    for (std::size_t k = 0; k < n; ++k)
      if (!out[k].ok()) ++failed;
    benchmark::DoNotOptimize(out.data());
    lanes += static_cast<std::int64_t>(n);
    first = first + n == batch.size() ? 0 : first + n;
  }
  state.SetItemsProcessed(lanes);
  // Seconds per report: one iteration verifies up to kLanes reports.
  state.counters["per_report"] = benchmark::Counter(
      static_cast<double>(lanes),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  if (failed != 0) state.SkipWithError("unexpected verification failure");
}

void BM_Verify_Stanford(benchmark::State& state) { bm_verify(state, stanford()); }
void BM_Verify_Internet2(benchmark::State& state) { bm_verify(state, internet2()); }
void BM_VerifyBatch_Stanford_DstOnly(benchmark::State& state) {
  bm_verify_batch(state, stanford(), stanford().dst_batch);
}
void BM_VerifyBatch_Stanford_Acl(benchmark::State& state) {
  bm_verify_batch(state, stanford(), stanford().acl_batch);
}
void BM_VerifyBatch_Internet2(benchmark::State& state) {
  bm_verify_batch(state, internet2(), internet2().batch);
}

BENCHMARK(BM_Verify_Stanford)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Verify_Internet2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerifyBatch_Stanford_DstOnly)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerifyBatch_Stanford_Acl)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerifyBatch_Internet2)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  rule_header("Figure 13: tag-report verification time");
  std::printf("paper: 2-3 us per report (Stanford & Internet2), "
              "~5x10^5 reports/s single-threaded\n");
  std::printf("Stanford reports: %zu (%zu on ACL'd inports), "
              "Internet2 reports: %zu\n",
              stanford().reports.size(), stanford().acl_batch.size(),
              internet2().reports.size());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
