// Figure 13 — time to verify a single tag report on the VeriDP server.
//
// Setup (§6.4): one test packet per path in the path table; each report
// is verified repeatedly and the mean time reported. Paper: 2-3 μs per
// report (~5x10^5 reports/s, single-threaded).
//
// Uses google-benchmark for the measurement loop; one benchmark per
// topology plus a throughput variant cycling through all reports.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
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

  explicit Fixture(Setup&& s_in) : setup(new Setup(std::move(s_in))) {
    auto [t, secs] = timed_build(*setup);
    (void)secs;
    table = std::move(t);
    Rng rng(99);
    table.for_each([this, &rng](PortKey in, PortKey out, const PathEntry& e) {
      if (auto h = e.headers.sample(rng))
        reports.push_back(TagReport{in, out, *h, e.tag});
    });
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

void BM_Verify_Stanford(benchmark::State& state) { bm_verify(state, stanford()); }
void BM_Verify_Internet2(benchmark::State& state) { bm_verify(state, internet2()); }

BENCHMARK(BM_Verify_Stanford)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Verify_Internet2)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  rule_header("Figure 13: tag-report verification time");
  std::printf("paper: 2-3 us per report (Stanford & Internet2), "
              "~5x10^5 reports/s single-threaded\n");
  std::printf("Stanford reports: %zu, Internet2 reports: %zu\n",
              stanford().reports.size(), internet2().reports.size());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
