#include "fuzz/scorecard.hpp"

#include <chrono>
#include <cstdio>

#include "fuzz/scheduler.hpp"

namespace veridp {
namespace fuzz {

namespace {

std::string fmt_rate(std::uint64_t num, std::uint64_t den) {
  char buf[32];
  const double r = den == 0 ? 0.0 : static_cast<double>(num) /
                                        static_cast<double>(den);
  std::snprintf(buf, sizeof buf, "%.3f", r);
  return buf;
}

std::string fmt_avg(std::int64_t sum, std::uint32_t count) {
  char buf[32];
  const double r =
      count == 0 ? -1.0 : static_cast<double>(sum) / count;
  std::snprintf(buf, sizeof buf, "%.3f", r);
  return buf;
}

std::string run_name(std::uint64_t seed, int index) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "seed%llu_run%02d",
                static_cast<unsigned long long>(seed), index);
  return buf;
}

}  // namespace

void Scorecard::add_run(const RunResult& r) {
  ++runs;
  false_positives += r.false_positives;
  if (!r.conserved) ++conservation_violations;
  if (!r.parallel_match) ++parallel_mismatches;

  // Distinct scheduled classes.
  bool scheduled[kNumMutationClasses] = {};
  for (const FuzzAction& a : r.schedule.actions)
    scheduled[static_cast<std::size_t>(a.cls)] = true;
  for (std::size_t i = 0; i < kNumMutationClasses; ++i)
    if (scheduled[i]) ++per_class[i].scheduled_runs;

  int harmful_classes = 0;
  std::size_t sole = kNumMutationClasses;
  for (const MutationClass c : r.effectful_classes) {
    ++per_class[static_cast<std::size_t>(c)].effectful_runs;
    if (is_harmful(c)) {
      ++harmful_classes;
      sole = static_cast<std::size_t>(c);
    }
  }

  for (const SwitchId b : r.blamed) {
    ++blamed_total;
    for (const SwitchId f : r.faulty_switches)
      if (b == f) {
        ++blamed_correct;
        break;
      }
  }

  if (r.harmful_effectful == 0) return;
  ++harmful_runs;
  if (!r.detected) return;
  ++detected_runs;
  if (r.localized) ++localized_runs;
  const int ttd = r.time_to_detection();
  if (ttd >= 0) {
    ttd_sum += ttd;
    ++ttd_count;
  }
  if (harmful_classes == 1) {
    ClassScore& cs = per_class[sole];
    ++cs.detected;
    if (r.localized) ++cs.localized;
    if (ttd >= 0) {
      cs.ttd_sum += ttd;
      ++cs.ttd_count;
    }
  }
}

std::string to_json(const Scorecard& card) {
  std::string out;
  out += "{\n";
  out += "  \"version\": 1,\n";
  out += "  \"seeds\": [";
  for (std::size_t i = 0; i < card.seeds.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(card.seeds[i]);
  }
  out += "],\n";
  out += "  \"runs\": " + std::to_string(card.runs) + ",\n";
  out += "  \"harmful_runs\": " + std::to_string(card.harmful_runs) + ",\n";
  out += "  \"detected_runs\": " + std::to_string(card.detected_runs) + ",\n";
  out += "  \"detection_rate\": " +
         fmt_rate(card.detected_runs, card.harmful_runs) + ",\n";
  out += "  \"false_positives\": " + std::to_string(card.false_positives) +
         ",\n";
  out += "  \"conservation_violations\": " +
         std::to_string(card.conservation_violations) + ",\n";
  out += "  \"parallel_mismatches\": " +
         std::to_string(card.parallel_mismatches) + ",\n";
  out += "  \"localized_runs\": " + std::to_string(card.localized_runs) +
         ",\n";
  out += "  \"localization_rate\": " +
         fmt_rate(card.localized_runs, card.detected_runs) + ",\n";
  out += "  \"blamed_total\": " + std::to_string(card.blamed_total) + ",\n";
  out += "  \"blamed_correct\": " + std::to_string(card.blamed_correct) +
         ",\n";
  out += "  \"localization_precision\": " +
         fmt_rate(card.blamed_correct, card.blamed_total) + ",\n";
  out += "  \"ttd_rounds_avg\": " + fmt_avg(card.ttd_sum, card.ttd_count) +
         ",\n";
  out += "  \"coverage_keys\": " + std::to_string(card.coverage_keys) + ",\n";
  out += "  \"corpus_new\": " + std::to_string(card.corpus_new) + ",\n";
  out += "  \"per_class\": [\n";
  for (std::size_t i = 0; i < kNumMutationClasses; ++i) {
    const ClassScore& cs = card.per_class[i];
    out += "    {\"class\": \"";
    out += to_string(static_cast<MutationClass>(i));
    out += "\", \"scheduled_runs\": " + std::to_string(cs.scheduled_runs);
    out += ", \"effectful_runs\": " + std::to_string(cs.effectful_runs);
    out += ", \"detected\": " + std::to_string(cs.detected);
    out += ", \"localized\": " + std::to_string(cs.localized);
    out += ", \"ttd_avg\": " + fmt_avg(cs.ttd_sum, cs.ttd_count);
    out += "}";
    if (i + 1 < kNumMutationClasses) out += ",";
    out += "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

CampaignOutcome run_campaign(const CampaignOptions& opts) {
  CampaignOutcome outcome;
  outcome.card.seeds = opts.seeds;
  const CampaignRunner runner(opts.knobs);

  const auto run_one = [&outcome, &runner](const ScheduleGenerator& gen,
                                           std::uint64_t seed, int index) {
    FuzzSchedule schedule;
    // Past the deterministic sweep (single-class runs + benign flood),
    // odd indices work the corpus instead of generating fresh — that's
    // the "guided" part. Every fourth index cross-breeds two distinct
    // coverage-advancing entries; the other odd indices mutate one.
    const bool corpus_slot = index > kNumSweepClasses &&
                             (index % 2 == 1) &&
                             !outcome.interesting.empty();
    if (corpus_slot) {
      const std::size_t n = outcome.interesting.size();
      const std::size_t bi = static_cast<std::size_t>(index) % n;
      const CorpusEntry& base = outcome.interesting[bi];
      if (n >= 2 && index % 4 == 3) {
        const CorpusEntry& other = outcome.interesting[(bi + 1) % n];
        schedule = gen.crossover(base.schedule, other.schedule, index);
      } else {
        schedule = gen.mutate(base.schedule, index);
      }
    } else {
      schedule = gen.generate(index);
    }

    RunResult r = runner.run(schedule);
    outcome.card.add_run(r);
    const std::size_t fresh = outcome.coverage.add_run(
        r.schedule, r.verdict_kinds_seen, r.regimes_seen);
    if (fresh > 0) {
      CorpusEntry entry;
      entry.name = run_name(seed, index);
      entry.schedule = r.schedule;
      entry.digest = r.digest;
      outcome.interesting.push_back(entry);
      ++outcome.card.corpus_new;
    }
    outcome.runs.push_back(std::move(r));
  };

  if (opts.budget_seconds > 0) {
    // Wall-clock mode: round-robin the seeds at increasing index until
    // the deadline. The deadline is only checked between runs, so the
    // in-flight run always completes and every recorded run remains
    // individually replayable.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(opts.budget_seconds);
    std::vector<ScheduleGenerator> gens;
    gens.reserve(opts.seeds.size());
    for (const std::uint64_t seed : opts.seeds) gens.emplace_back(seed);
    bool expired = false;
    for (int index = 0; !expired; ++index) {
      for (std::size_t si = 0; si < opts.seeds.size(); ++si) {
        if (std::chrono::steady_clock::now() >= deadline) {
          expired = true;
          break;
        }
        run_one(gens[si], opts.seeds[si], index);
      }
    }
  } else {
    for (std::size_t si = 0; si < opts.seeds.size(); ++si) {
      const ScheduleGenerator gen(opts.seeds[si]);
      for (int index = 0; index < opts.budget_per_seed; ++index)
        run_one(gen, opts.seeds[si], index);
    }
  }
  outcome.card.coverage_keys = outcome.coverage.size();
  return outcome;
}

}  // namespace fuzz
}  // namespace veridp
