// Campaign + oracle tests: the coverage-guided campaign exercises every
// mutation class, detects and localizes what it breaks, and never
// reports a false positive, a conservation violation, or a
// sequential/parallel verdict divergence.
#include "fuzz/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/coverage.hpp"
#include "fuzz/scheduler.hpp"
#include "fuzz/scorecard.hpp"

namespace veridp {
namespace fuzz {
namespace {

TEST(FuzzCampaign, SingleSeedSweepCoversAllClassesCleanly) {
  CampaignOptions opts;
  opts.seeds = {1};
  opts.budget_per_seed = 17;  // 15 single-class + flood + one composition
  const CampaignOutcome outcome = run_campaign(opts);
  const Scorecard& card = outcome.card;

  ASSERT_EQ(outcome.runs.size(), 17u);
  EXPECT_TRUE(card.clean()) << to_json(card);
  EXPECT_EQ(card.false_positives, 0u);
  EXPECT_EQ(card.conservation_violations, 0u);
  EXPECT_EQ(card.parallel_mismatches, 0u);

  // Every mutation class was scheduled at least once...
  for (std::size_t i = 0; i < kNumMutationClasses; ++i)
    EXPECT_GE(card.per_class[i].scheduled_runs, 1u)
        << to_string(static_cast<MutationClass>(i));
  // ...every harmful class produced at least one probe-visible fault...
  for (std::size_t i = 0; i < kNumMutationClasses; ++i) {
    if (is_harmful(static_cast<MutationClass>(i))) {
      EXPECT_GE(card.per_class[i].effectful_runs, 1u)
          << to_string(static_cast<MutationClass>(i));
    }
  }
  // ...and every effectful harmful run was detected and localized.
  EXPECT_GT(card.harmful_runs, 0u);
  EXPECT_EQ(card.detected_runs, card.harmful_runs) << to_json(card);
  EXPECT_EQ(card.localized_runs, card.detected_runs) << to_json(card);
  EXPECT_EQ(card.blamed_correct, card.blamed_total);

  EXPECT_GT(card.coverage_keys, 0u);
  EXPECT_EQ(card.coverage_keys, outcome.coverage.size());
  EXPECT_FALSE(outcome.interesting.empty());
}

TEST(FuzzCampaign, BenignRunsNeverDetectAnything) {
  const ScheduleGenerator gen(1);
  const CampaignRunner runner;
  // Indices 9..14 are the single-class transport/churn schedules, 15 is
  // the heavy benign flood.
  for (int index = 9; index <= 15; ++index) {
    const RunResult r = runner.run(gen.generate(index));
    EXPECT_EQ(r.harmful_effectful, 0) << "index " << index;
    EXPECT_FALSE(r.detected) << "index " << index;
    EXPECT_EQ(r.false_positives, 0u) << "index " << index;
    EXPECT_EQ(r.failed_verdicts, 0u) << "index " << index;
    EXPECT_TRUE(r.conserved);
    EXPECT_TRUE(r.parallel_match);
    EXPECT_TRUE(r.verdict_kinds_seen & kSawOk);
  }
}

TEST(FuzzCampaign, HarmfulRunCarriesGroundTruthAndBlame) {
  const RunResult r =
      CampaignRunner().run(ScheduleGenerator(1).generate(0));  // drop_rule
  ASSERT_GT(r.harmful_effectful, 0);
  ASSERT_TRUE(r.detected);
  EXPECT_GE(r.detect_round, 0);
  EXPECT_GE(r.first_effectful_round, 0);
  EXPECT_GE(r.time_to_detection(), 0);
  ASSERT_FALSE(r.faulty_switches.empty());
  ASSERT_FALSE(r.blamed.empty());
  EXPECT_TRUE(r.localized);
  // A failure observation set the mismatch/no-path coverage bits.
  EXPECT_NE(r.verdict_kinds_seen & (kSawNoPath | kSawTagMismatch), 0);
  EXPECT_TRUE(r.regimes_seen & kSawNormal);
}

// The controller-side classes change the path table the server judges
// by (an ACL'd inport, a rule outside §4.4's fragment), in both planes
// at once, so they must never fail a report. Each runs twice: an ACL
// added then removed at one port; a rule above its route, then one
// below.
TEST(FuzzCampaign, ControlChurnClassesAreBenign) {
  struct Case {
    const char* topo;
    FuzzAction first, second;
    const char* first_says;
    const char* second_says;
  };
  const Case cases[] = {
      {"linear",
       {1, MutationClass::kAclChurn, 3, 0, 0, 0},
       {3, MutationClass::kAclChurn, 3, 1, 0, 0}, " added", " removed"},
      {"internet2",
       {1, MutationClass::kOddPriority, 2, 1, 0, 0},
       {3, MutationClass::kOddPriority, 5, 4, 0, 0}, "priority=50001",
       "priority=1"},
  };
  for (const Case& c : cases) {
    FuzzSchedule s;
    s.seed = 27;
    s.topo = c.topo;
    s.actions = {c.first, c.second};
    const RunResult r = CampaignRunner().run(s);
    EXPECT_EQ(r.applied, 2) << r.trace;
    EXPECT_NE(r.trace.find(c.first_says), std::string::npos) << r.trace;
    EXPECT_NE(r.trace.find(c.second_says), std::string::npos) << r.trace;
    EXPECT_EQ(r.harmful_effectful, 0);
    EXPECT_EQ(r.failed_verdicts, 0u) << r.trace;
    EXPECT_EQ(r.false_positives, 0u);
    EXPECT_GT(r.passed, 0u);
    EXPECT_TRUE(r.conserved);
    EXPECT_TRUE(r.parallel_match);
  }
}

TEST(FuzzCampaign, MalformedScheduleValuesAreClampedNotFatal) {
  // A mutated schedule may carry out-of-range knobs; the runner clamps
  // rather than crashing or hanging.
  FuzzSchedule s;
  s.seed = 3;
  s.topo = "no_such_topo";  // falls back to linear
  s.rounds = 10000;
  s.copies = 10000;
  s.probe_stride = 0;
  s.actions.push_back({-5, MutationClass::kDropRule, 1000, 1000, 1000, 0});
  const RunResult r = CampaignRunner().run(s);
  // The schedule is kept verbatim (replay fidelity), but the run obeys
  // the clamps: count executed rounds in the trace.
  int rounds_run = r.trace.rfind("round ", 0) == 0 ? 1 : 0;
  for (std::size_t at = r.trace.find("\nround "); at != std::string::npos;
       at = r.trace.find("\nround ", at + 1))
    ++rounds_run;
  EXPECT_GT(rounds_run, 0);
  EXPECT_LE(rounds_run, 32);
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.false_positives, 0u);
}

TEST(FuzzCoverage, KeysFoldClassTopoVerdictRegime) {
  CoverageMap map;
  FuzzSchedule s;
  s.topo = "fat4";
  s.actions.push_back({1, MutationClass::kDropRule, 0, 0, 0, 0});
  s.actions.push_back({2, MutationClass::kDropRule, 1, 0, 0, 0});  // dup class
  s.actions.push_back({2, MutationClass::kChurn, 0, 0, 0, 0});

  // 2 distinct classes x 2 verdict bits x 1 regime bit = 4 keys.
  EXPECT_EQ(map.add_run(s, kSawOk | kSawTagMismatch, kSawNormal), 4u);
  EXPECT_EQ(map.size(), 4u);
  // Same observations again: nothing fresh.
  EXPECT_EQ(map.add_run(s, kSawOk | kSawTagMismatch, kSawNormal), 0u);
  // A new regime doubles the key set.
  EXPECT_EQ(map.add_run(s, kSawOk | kSawTagMismatch, kSawSoft), 4u);
  // Different topology, same everything else: fresh keys.
  s.topo = "linear";
  EXPECT_GT(map.add_run(s, kSawOk, kSawNormal), 0u);
}

TEST(FuzzCampaign, GuidedMutationSlotsDrawFromTheCorpus) {
  CampaignOptions opts;
  opts.seeds = {1};
  opts.budget_per_seed = 20;  // indices 17 and 19 are mutation slots
  const CampaignOutcome outcome = run_campaign(opts);
  ASSERT_EQ(outcome.runs.size(), 20u);
  // A mutated schedule derives its seed from its base via "/mut/", so
  // it cannot collide with any generate() seed; detecting one is enough
  // to prove the guided path executed.
  const ScheduleGenerator gen(1);
  bool saw_mutation = false;
  for (int index : {17, 19}) {
    const auto& run = outcome.runs[static_cast<std::size_t>(index)];
    if (!(run.schedule == gen.generate(index))) saw_mutation = true;
  }
  EXPECT_TRUE(saw_mutation);
  EXPECT_TRUE(outcome.card.clean()) << to_json(outcome.card);
}

TEST(FuzzScheduler, CrossoverIsDeterministicAndSplices) {
  const ScheduleGenerator gen(5);
  const FuzzSchedule a = gen.generate(16);  // multi-fault compositions
  const FuzzSchedule b = gen.generate(17);
  ASSERT_FALSE(a.actions.empty());
  ASSERT_FALSE(b.actions.empty());

  const FuzzSchedule x1 = gen.crossover(a, b, 23);
  const FuzzSchedule x2 = gen.crossover(a, b, 23);
  EXPECT_EQ(serialize(x1), serialize(x2)) << "crossover must be pure";
  EXPECT_TRUE(x1 == x2);

  // Different indices draw different cut points (eventually).
  bool varied = false;
  for (int index = 24; index < 40 && !varied; ++index)
    varied = !(gen.crossover(a, b, index) == x1);
  EXPECT_TRUE(varied);

  // The child runs parent A's environment, derives a fresh seed, and
  // every action is a verbatim splice from one of the parents (modulo
  // the round clamp into A's window).
  EXPECT_EQ(x1.topo, a.topo);
  EXPECT_EQ(x1.rounds, a.rounds);
  EXPECT_NE(x1.seed, a.seed);
  EXPECT_NE(x1.seed, b.seed);
  for (const FuzzAction& act : x1.actions) {
    const auto matches = [&act](const FuzzAction& p) {
      return p.cls == act.cls && p.a == act.a && p.b == act.b;
    };
    const bool from_a =
        std::any_of(a.actions.begin(), a.actions.end(), matches);
    const bool from_b =
        std::any_of(b.actions.begin(), b.actions.end(), matches);
    EXPECT_TRUE(from_a || from_b);
    // A's prefix is copied verbatim (whatever rounds A used); B's
    // suffix is clamped into A's mutation window — so nothing may land
    // beyond A's rounds.
    EXPECT_LE(act.round, a.rounds);
  }
}

TEST(FuzzCampaign, CrossoverSlotsRunAndReplayExactly) {
  CampaignOptions opts;
  opts.seeds = {1};
  opts.budget_per_seed = 20;  // index 19 is the crossover slot (19 % 4 == 3)
  const CampaignOutcome a = run_campaign(opts);
  const CampaignOutcome b = run_campaign(opts);
  ASSERT_EQ(a.runs.size(), 20u);
  // Campaign-level determinism with the crossover slot in play.
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].digest, b.runs[i].digest) << "run " << i;
    EXPECT_TRUE(a.runs[i].schedule == b.runs[i].schedule);
  }
  EXPECT_TRUE(a.card.clean()) << to_json(a.card);
}

TEST(FuzzCampaign, WallClockBudgetModeTerminatesAndStaysClean) {
  CampaignOptions opts;
  opts.seeds = {1, 2};
  opts.budget_seconds = 1;
  opts.budget_per_seed = 0;  // ignored in wall-clock mode
  const CampaignOutcome outcome = run_campaign(opts);
  // At least one full round-robin sweep fits a 1 s budget (a run takes
  // milliseconds), and the deadline stops the campaign promptly.
  EXPECT_GE(outcome.runs.size(), 2u);
  EXPECT_TRUE(outcome.card.clean()) << to_json(outcome.card);
  // Every recorded run is individually replayable: re-running its
  // schedule reproduces the digest (wall-clock mode only changes how
  // many runs happen, never what each run does).
  const CampaignRunner runner;
  const RunResult& last = outcome.runs.back();
  EXPECT_EQ(runner.run(last.schedule).digest, last.digest);
}

}  // namespace
}  // namespace fuzz
}  // namespace veridp
