// Batched-verify benchmark — the scalar-vs-batched memo-miss comparison
// the CI perf-smoke job gates on (DESIGN.md §11).
//
// Single-thread verify throughput on a unique (memo-miss) stream over
// the FT(k) path table, scalar verify_epoch_aware vs
// verify_epoch_aware_batch, with a batch-size sweep around the
// autotuned default. Every batched rate honestly includes the SoA push
// (bits_packed materialization and all) inside the timed region.
//
// The JSON also keeps, frozen under "previous", the last measurement of
// the hash/Bloom/wire-decode column kernels. They were deleted because
// none beat its scalar twin.
//
// Results land in BENCH_batch_kernels.json (override the path with
// VERIDP_BENCH_JSON). VERIDP_BENCH_QUICK=1 shrinks the topology and
// repetitions for CI smoke runs — the speedup ratio survives, the
// absolute rates are not comparable to full runs.
#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

constexpr int kTagBits = 16;

bool quick() { return std::getenv("VERIDP_BENCH_QUICK") != nullptr; }

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepPoint {
  std::size_t batch_size = 0;
  double reports_per_s = 0.0;
};

struct VerifyGate {
  std::string setup;
  std::size_t reports = 0;          ///< unique (memo-miss) stream length
  std::size_t batch_size = 0;       ///< autotuned default
  double scalar_rps = 0.0;          ///< memoized scalar verify_epoch_aware
  double batch_rps = 0.0;           ///< batched pipeline at the default
  std::vector<SweepPoint> sweep;
  [[nodiscard]] double speedup() const { return batch_rps / scalar_rps; }
};

/// Passes per timed repetition: the quick-mode FT(4) stream is only a
/// few hundred reports, far too short to time once, so each timed
/// region replays the stream until it has verified ~this many reports.
std::size_t target_reports() { return quick() ? 100000 : 400000; }

/// Best-of-`reps` scalar rate; each timed region runs several passes
/// over the stream, each with a fresh memo so every probe misses (the
/// memo-miss regime under measurement).
double scalar_rate(const std::vector<TagReport>& stream,
                   const EpochTables& tables, int reps) {
  const std::size_t passes =
      std::max<std::size_t>(1, target_reports() / stream.size());
  const std::size_t total = stream.size() * passes;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    std::size_t passed = 0;
    double elapsed = 0.0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      // The memo is rebuilt per pass so every probe misses, but its
      // construction (a once-per-deployment cost) stays untimed.
      VerifyMemo memo;
      const auto t0 = std::chrono::steady_clock::now();
      for (const TagReport& rep : stream)
        if (verify_epoch_aware(rep, tables, &memo).ok()) ++passed;
      elapsed += now_minus(t0);
    }
    best = std::max(best, static_cast<double>(total) / elapsed);
    if (passed != total)
      std::printf("  (UNEXPECTED: %zu of %zu reports did not pass!)\n",
                  total - passed, total);
  }
  return best;
}

/// Best-of-`reps` batched rate; the SoA push runs inside the timer.
double batch_rate(const std::vector<TagReport>& stream,
                  const EpochTables& tables, std::size_t batch_size,
                  int reps) {
  const std::size_t passes =
      std::max<std::size_t>(1, target_reports() / stream.size());
  const std::size_t total = stream.size() * passes;
  double best = 0.0;
  ReportBatch batch;
  batch.reserve(batch_size);
  std::vector<Verdict> verdicts(batch_size);
  for (int r = 0; r < reps; ++r) {
    std::size_t passed = 0;
    double elapsed = 0.0;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      VerifyMemo memo;  // fresh per pass, constructed untimed (as scalar)
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < stream.size();) {
        const std::size_t n = std::min(batch_size, stream.size() - i);
        batch.clear();
        for (std::size_t k = 0; k < n; ++k) batch.push(stream[i + k]);
        verify_epoch_aware_batch(batch, 0, n, tables, &memo, verdicts.data());
        for (std::size_t k = 0; k < n; ++k)
          if (verdicts[k].ok()) ++passed;
        i += n;
      }
      elapsed += now_minus(t0);
    }
    best = std::max(best, static_cast<double>(total) / elapsed);
    if (passed != total)
      std::printf("  (UNEXPECTED: %zu of %zu reports did not pass!)\n",
                  total - passed, total);
  }
  return best;
}

VerifyGate measure_verify_gate(Setup& s, int reps) {
  ConfigTransferProvider provider(s.space, s.topo,
                                  s.controller.logical_configs());
  PathTable table =
      PathTableBuilder(s.space, s.topo, provider, kTagBits).build();
  EpochTables tables;
  tables.current = &table;

  std::vector<TagReport> unique;
  Rng rng(808);
  table.for_each([&unique, &rng](PortKey in, PortKey out, const PathEntry& e) {
    if (auto h = e.headers.sample(rng))
      unique.push_back(TagReport{in, out, *h, e.tag});
  });

  VerifyGate g;
  g.setup = s.name;
  g.reports = unique.size();
  g.batch_size = autotuned_batch_size();
  g.scalar_rps = scalar_rate(unique, tables, reps);
  g.batch_rps = batch_rate(unique, tables, g.batch_size, reps);
  std::printf("%-12s  memo-miss: scalar %.0f/s   batch(%zu) %.0f/s   %.2fx"
              "   (%zu reports)\n",
              g.setup.c_str(), g.scalar_rps, g.batch_size, g.batch_rps,
              g.speedup(), g.reports);

  const std::size_t sizes[] = {8, 32, 64, 128, 256, 512};
  for (const std::size_t bs : sizes) {
    SweepPoint pt;
    pt.batch_size = bs;
    pt.reports_per_s =
        bs == g.batch_size ? g.batch_rps : batch_rate(unique, tables, bs, reps);
    g.sweep.push_back(pt);
    std::printf("  batch %4zu  %.0f/s (%.2fx scalar)\n", pt.batch_size,
                pt.reports_per_s, pt.reports_per_s / g.scalar_rps);
  }
  return g;
}

void write_json(const VerifyGate& gate) {
  const char* path = std::getenv("VERIDP_BENCH_JSON");
  if (!path) path = "BENCH_batch_kernels.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::printf("cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"batch_kernels\",\n"
               "  \"quick\": %s,\n"
               "  \"hardware_concurrency\": %u,\n",
               quick() ? "true" : "false",
               std::thread::hardware_concurrency());
  // Last full run of the deleted column kernels on a 1-core container:
  // items/s of each scalar routine vs its batched twin.
  std::fprintf(
      f,
      "  \"previous\": [\n"
      "    {\"label\": \"column kernels, deleted for losing to scalar\", "
      "\"kernels\": [\n"
      "      {\"name\": \"murmur3_12B\", \"items\": 131072, "
      "\"scalar_per_s\": 231614732, \"batch_per_s\": 230198797, "
      "\"speedup\": 0.994},\n"
      "      {\"name\": \"bloom_of_hop\", \"items\": 131072, "
      "\"scalar_per_s\": 110306983, \"batch_per_s\": 107302171, "
      "\"speedup\": 0.973},\n"
      "      {\"name\": \"membership\", \"items\": 131072, "
      "\"scalar_per_s\": 105635518, \"batch_per_s\": 96782005, "
      "\"speedup\": 0.916},\n"
      "      {\"name\": \"wire_decode\", \"items\": 16384, "
      "\"scalar_per_s\": 34251600, \"batch_per_s\": 32746362, "
      "\"speedup\": 0.956}]}\n"
      "  ],\n");
  std::fprintf(f,
               "  \"verify_memo_miss\": {\"setup\": \"%s\", "
               "\"reports\": %zu, \"batch_size\": %zu,\n"
               "    \"scalar_reports_per_s\": %.0f, "
               "\"batch_reports_per_s\": %.0f, \"speedup\": %.3f,\n"
               "    \"sweep\": [",
               gate.setup.c_str(), gate.reports, gate.batch_size,
               gate.scalar_rps, gate.batch_rps, gate.speedup());
  for (std::size_t i = 0; i < gate.sweep.size(); ++i)
    std::fprintf(f, "%s{\"batch_size\": %zu, \"reports_per_s\": %.0f}",
                 i ? ", " : "", gate.sweep[i].batch_size,
                 gate.sweep[i].reports_per_s);
  std::fprintf(f, "]}\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  rule_header(quick()
                  ? "Batched verify: scalar vs batched (QUICK — ratio only)"
                  : "Batched verify: scalar vs batched");

  const int verify_reps = quick() ? 2 : 3;
  Setup ft = quick() ? make_fat_tree(4) : make_fat_tree(8);
  write_json(measure_verify_gate(ft, verify_reps));
  std::printf("\ntarget: batched memo-miss verify >= 1.5x memoized scalar "
              "(CI gate), >= 5M reports/s full run\n");
  return 0;
}
