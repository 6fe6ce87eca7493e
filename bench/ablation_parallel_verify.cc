// Ablation: multi-threaded verification — §6.4's closing remark: "the
// verification is still single-threaded without optimization, we expect
// a higher throughput with multi-threading in the future."
//
// Two measurements per thread count over the Stanford-like table:
//
//   * raw      — verify_report on every worker over a shared
//                const table: the scaling ceiling of the read path;
//   * pipeline — the production path: reports submitted through the
//                shard-affine lanes, then start()→drain() timed. Lanes
//                are pre-filled BEFORE the pool starts so the number is
//                pure worker-side scaling, not producer interference.
//
// Two input streams exercise the dispatch:
//
//   * uniform_memo_miss — headers re-sampled every round, reports
//     spread across every switch: worst case for the verify memo,
//     best case for lane balance;
//   * zipf_skewed — switch IDs drawn Zipf(1.2): most reports hammer a
//     few lanes, so the curve measures work stealing, not luck.
//
// Honesty on small hosts: wall-clock speedup cannot exceed the local
// core count — hardware_concurrency is recorded in the JSON, and on a
// single-core host the wall columns measure overhead only. The bench
// therefore also derives a LOAD-BALANCE PROJECTION from measured
// per-worker thread-CPU time (CLOCK_THREAD_CPUTIME_ID excludes blocked
// and preempted time):
//
//   projected_speedup(n) = max_worker_cpu_ns(1) / max_worker_cpu_ns(n)
//
// i.e. the critical-path shrinkage if each worker had its own core.
// Perfect distribution gives ~n; a single hot lane without stealing
// gives ~1. It is a measured property of the dispatch, not a simulation
// — but it assumes n idle cores, so the multi-core CI smoke job gates
// on the wall metric instead (tools/check_scaling.py).
//
// Results land in BENCH_parallel_verify.json (override the path with
// VERIDP_BENCH_JSON; VERIDP_BENCH_QUICK=1 shrinks rounds and the sweep
// for the CI smoke job).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "common/scal_profiler.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

constexpr int kTagBits = 16;

bool quick() { return std::getenv("VERIDP_BENCH_QUICK") != nullptr; }
std::size_t rounds() { return quick() ? 5 : 20; }
std::vector<unsigned> sweep() {
  if (quick()) return {1u, 4u};
  return {1u, 2u, 4u, 8u};
}

struct Point {
  unsigned threads = 0;
  double raw_rate = 0.0;
  double raw_speedup = 0.0;
  double pipe_rate = 0.0;
  double pipe_speedup = 0.0;
  double projected_speedup = 0.0;
  std::uint64_t max_worker_cpu_ns = 0;
  ScalTotals prof;
  std::string prof_json;
};

double measure_raw(const PathTable& table,
                   const std::vector<TagReport>& reports, unsigned n) {
  std::atomic<std::uint64_t> verified{0};
  std::atomic<bool> any_failure{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < n; ++w) {
    workers.emplace_back([&table, &reports, &verified, &any_failure] {
      for (std::size_t round = 0; round < rounds(); ++round)
        for (const TagReport& r : reports)
          if (!verify_report(r, table).ok()) any_failure = true;
      verified += rounds() * reports.size();
    });
  }
  for (auto& t : workers) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double dt = std::chrono::duration<double>(t1 - t0).count();
  if (any_failure) std::printf("  (UNEXPECTED verification failure!)\n");
  return static_cast<double>(verified.load()) / dt;
}

/// The production pipeline, producer interference excluded: pre-fill
/// the lanes while the pool is stopped (capacity is sized so nothing
/// sheds, even with every report in one lane), then time
/// start()→drain(). Fills `p`'s pipeline + profiler columns.
void measure_pipeline(ParallelServer& ps, const std::vector<TagReport>& stream,
                      unsigned n, Point& p) {
  ps.profiler().reset();
  const IngestHealth before = ps.health();
  std::size_t accepted = 0;
  for (const TagReport& r : stream) accepted += ps.submit(r) ? 1 : 0;
  if (accepted != stream.size())
    std::printf("  (UNEXPECTED: %zu of %zu reports shed at submit!)\n",
                stream.size() - accepted, stream.size());
  const auto t0 = std::chrono::steady_clock::now();
  ps.start();
  ps.drain();
  const auto t1 = std::chrono::steady_clock::now();
  ps.stop();  // workers flush their cpu_ns slot on exit
  const IngestHealth after = ps.health();
  if (after.passed - before.passed != accepted)
    std::printf("  (UNEXPECTED: %llu of %zu pipeline reports did not pass!)\n",
                static_cast<unsigned long long>(accepted -
                                                (after.passed - before.passed)),
                accepted);
  const double dt = std::chrono::duration<double>(t1 - t0).count();
  p.pipe_rate = static_cast<double>(accepted) / dt;
  p.prof = ps.profiler().totals();
  p.prof_json = ps.profiler().to_json(/*indent=*/2, /*depth=*/5);
  p.max_worker_cpu_ns = 0;
  for (unsigned i = 0; i < n; ++i)
    p.max_worker_cpu_ns =
        std::max(p.max_worker_cpu_ns, ps.profiler().slot_totals(i).cpu_ns);
}

/// Uniform memo-miss stream: every round re-samples each path entry's
/// header, so consecutive rounds rarely repeat a (ports, header) memo
/// key; reports cover every reporting switch. seq=0 bypasses dedup —
/// the bench measures verification, not ingest bookkeeping.
std::vector<TagReport> make_uniform_stream(const PathTable& table) {
  std::vector<TagReport> stream;
  Rng rng(707);
  for (std::size_t round = 0; round < rounds(); ++round)
    table.for_each([&stream, &rng](PortKey in, PortKey out,
                                   const PathEntry& e) {
      if (auto h = e.headers.sample(rng))
        stream.push_back(TagReport{in, out, *h, e.tag});
    });
  return stream;
}

/// Zipf-skewed stream: same length as `uniform`, but the reporting
/// switch is drawn Zipf(s=1.2) over the switch rank — the hottest
/// switch takes the lion's share, so its lane floods while most lanes
/// starve unless the workers steal.
std::vector<TagReport> make_zipf_stream(
    const std::vector<TagReport>& uniform) {
  std::unordered_map<SwitchId, std::vector<const TagReport*>> by_switch;
  for (const TagReport& r : uniform) by_switch[r.outport.sw].push_back(&r);
  std::vector<SwitchId> switches;
  switches.reserve(by_switch.size());
  for (const auto& [sw, v] : by_switch) switches.push_back(sw);
  std::sort(switches.begin(), switches.end());

  std::vector<double> cdf(switches.size());
  double acc = 0.0;
  for (std::size_t rank = 0; rank < switches.size(); ++rank) {
    acc += 1.0 / std::pow(static_cast<double>(rank + 1), 1.2);
    cdf[rank] = acc;
  }
  for (double& c : cdf) c /= acc;

  Rng rng(808);
  std::vector<TagReport> stream;
  stream.reserve(uniform.size());
  std::unordered_map<SwitchId, std::size_t> cursor;
  for (std::size_t i = 0; i < uniform.size(); ++i) {
    const double u = rng.real();
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const SwitchId sw = switches[rank < switches.size() ? rank : 0];
    const auto& bucket = by_switch[sw];
    stream.push_back(*bucket[cursor[sw]++ % bucket.size()]);
  }
  return stream;
}

struct StreamResult {
  std::string name;
  std::vector<Point> points;
};

void write_json(const Setup& s, std::size_t reports, unsigned hw,
                const std::vector<StreamResult>& streams) {
  const char* path = std::getenv("VERIDP_BENCH_JSON");
  if (!path) path = "BENCH_parallel_verify.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::printf("cannot write %s\n", path);
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"parallel_verify\",\n"
      "  \"setup\": \"%s\",\n"
      "  \"reports\": %zu,\n"
      "  \"rounds\": %zu,\n"
      "  \"quick\": %s,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"methodology\": \"pipeline = lanes pre-filled before start(), "
      "start->drain timed (worker-side scaling only). Wall speedups are "
      "bounded by hardware_concurrency; projected_speedup = "
      "max_worker_cpu_ns(1)/max_worker_cpu_ns(n) from per-thread CPU "
      "time (CLOCK_THREAD_CPUTIME_ID) measures dispatch balance + "
      "coordination overhead as if each worker had a core. Gate on wall "
      "speedup on multi-core hosts (tools/check_scaling.py).\",\n",
      s.name.c_str(), reports, rounds(), quick() ? "true" : "false", hw);
  // The pre-lane trajectory (EXPERIMENTS.md §6.4): single BoundedMpmcQueue
  // funnel, rates of the chunked fan-out ("stream") path on the same
  // single-core container; then the last run of the stream column before
  // that path was deleted (same container, full sweep).
  std::fprintf(
      f,
      "  \"previous\": [\n"
      "    {\"label\": \"2026-08-05 single-queue funnel\", \"metric\": "
      "\"stream\", \"points\": [\n"
      "      {\"threads\": 1, \"server_reports_per_s\": 1160000, "
      "\"server_speedup\": 1.00},\n"
      "      {\"threads\": 2, \"server_reports_per_s\": 1310000, "
      "\"server_speedup\": 1.13},\n"
      "      {\"threads\": 4, \"server_reports_per_s\": 1400000, "
      "\"server_speedup\": 1.21},\n"
      "      {\"threads\": 8, \"server_reports_per_s\": 1380000, "
      "\"server_speedup\": 1.19}]},\n"
      "    {\"label\": \"2026-08-05 post-bdd-rewrite funnel\", \"metric\": "
      "\"stream\", \"points\": [\n"
      "      {\"threads\": 1, \"server_reports_per_s\": 1530000, "
      "\"server_speedup\": 1.00},\n"
      "      {\"threads\": 2, \"server_reports_per_s\": 1650000, "
      "\"server_speedup\": 1.08},\n"
      "      {\"threads\": 4, \"server_reports_per_s\": 1450000, "
      "\"server_speedup\": 0.95},\n"
      "      {\"threads\": 8, \"server_reports_per_s\": 1550000, "
      "\"server_speedup\": 1.01}]},\n"
      "    {\"label\": \"stream column, deleted: the lanes are the one "
      "verify path\", \"metric\": \"stream\", \"streams\": [\n"
      "      {\"name\": \"uniform_memo_miss\", \"points\": [\n"
      "        {\"threads\": 1, \"stream_reports_per_s\": 2030762, "
      "\"stream_speedup\": 1.000},\n"
      "        {\"threads\": 2, \"stream_reports_per_s\": 2359927, "
      "\"stream_speedup\": 1.162},\n"
      "        {\"threads\": 4, \"stream_reports_per_s\": 2247386, "
      "\"stream_speedup\": 1.107},\n"
      "        {\"threads\": 8, \"stream_reports_per_s\": 2474154, "
      "\"stream_speedup\": 1.218}]},\n"
      "      {\"name\": \"zipf_skewed\", \"points\": [\n"
      "        {\"threads\": 1, \"stream_reports_per_s\": 2227526, "
      "\"stream_speedup\": 1.000},\n"
      "        {\"threads\": 2, \"stream_reports_per_s\": 2026168, "
      "\"stream_speedup\": 0.910},\n"
      "        {\"threads\": 4, \"stream_reports_per_s\": 2018919, "
      "\"stream_speedup\": 0.906},\n"
      "        {\"threads\": 8, \"stream_reports_per_s\": 1907826, "
      "\"stream_speedup\": 0.856}]}]}\n"
      "  ],\n"
      "  \"streams\": [\n");
  for (std::size_t si = 0; si < streams.size(); ++si) {
    const StreamResult& sr = streams[si];
    std::fprintf(f,
                 "    {\"name\": \"%s\",\n"
                 "     \"points\": [\n",
                 sr.name.c_str());
    for (std::size_t i = 0; i < sr.points.size(); ++i) {
      const Point& p = sr.points[i];
      std::fprintf(
          f,
          "      {\"threads\": %u,\n"
          "       \"raw_reports_per_s\": %.0f, \"raw_speedup\": %.3f,\n"
          "       \"pipeline_reports_per_s\": %.0f, "
          "\"pipeline_wall_speedup\": %.3f,\n"
          "       \"projected_speedup\": %.3f, \"max_worker_cpu_ns\": "
          "%llu,\n"
          "       \"profile\": %s}%s\n",
          p.threads, p.raw_rate, p.raw_speedup, p.pipe_rate, p.pipe_speedup,
          p.projected_speedup,
          static_cast<unsigned long long>(p.max_worker_cpu_ns),
          p.prof_json.c_str(), i + 1 < sr.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", si + 1 < streams.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  rule_header("Ablation: parallel tag-report verification (6.4)");

  Setup s = make_stanford();
  auto [table, secs] = timed_build(s, kTagBits);
  (void)secs;

  const std::vector<TagReport> uniform = make_uniform_stream(table);
  const std::vector<TagReport> zipf = make_zipf_stream(uniform);
  const std::size_t per_round = uniform.size() / rounds();
  std::printf("%zu reports/round over the Stanford-like path table, "
              "%zu rounds -> %zu-report streams\n",
              per_round, rounds(), uniform.size());

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware_concurrency: %u%s\n\n", hw,
              hw == 1 ? "  (wall speedups bounded at 1x here; see "
                        "projected_speedup)"
                      : "");

  std::vector<StreamResult> results;
  for (const char* stream_name : {"uniform_memo_miss", "zipf_skewed"}) {
    const bool is_uniform = results.empty();
    const std::vector<TagReport>& stream = is_uniform ? uniform : zipf;
    StreamResult sr;
    sr.name = stream_name;
    std::printf("--- stream: %s ---\n", stream_name);
    std::printf("threads   raw rep/s   pipeline rep/s   "
                "wall-x   proj-x   stolen   wait%%\n");
    for (unsigned n : sweep()) {
      Point p;
      p.threads = n;
      // Fresh server per worker count: lane fan-out is fixed at
      // construction (one lane per worker). Capacity is per-lane after
      // the split, so size it for the whole stream landing in ONE lane
      // (the Zipf hot switch) times the lane count.
      ParallelConfig cfg;
      cfg.workers = n;
      cfg.queue_capacity = stream.size() * 2 * n;
      cfg.high_watermark = cfg.queue_capacity - 1;
      ParallelServer ps(s.controller, cfg, kTagBits);
      ps.sync();

      if (is_uniform) p.raw_rate = measure_raw(table, stream, n);
      measure_pipeline(ps, stream, n, p);

      const Point* base = sr.points.empty() ? &p : &sr.points.front();
      p.raw_speedup = base->raw_rate > 0 ? p.raw_rate / base->raw_rate : 1.0;
      p.pipe_speedup = p.pipe_rate / base->pipe_rate;
      p.projected_speedup =
          p.max_worker_cpu_ns
              ? static_cast<double>(base->max_worker_cpu_ns) /
                    static_cast<double>(p.max_worker_cpu_ns)
              : 0.0;
      std::printf("%7u   %9.0f   %14.0f   %5.2fx   %5.2fx   %6llu   %4.1f\n",
                  n, p.raw_rate, p.pipe_rate, p.pipe_speedup,
                  p.projected_speedup,
                  static_cast<unsigned long long>(p.prof.stolen_items),
                  100.0 * p.prof.wait_fraction());
      sr.points.push_back(std::move(p));
    }
    std::printf("\n");
    results.push_back(std::move(sr));
  }

  write_json(s, per_round, hw, results);
  std::printf("paper: ~5x10^5 reports/s single-threaded; shard-affine "
              "lanes + stealing keep workers on private state so "
              "throughput scales with cores\n");
  return 0;
}
