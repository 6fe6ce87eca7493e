// Determinism regression: a campaign run is a pure function of its
// schedule. The same seed + budget must reproduce byte-identical
// campaign traces and scorecards — including the parallel-server
// equality oracle, whose worker scheduling must never leak into the
// result. Also replays every checked-in corpus entry and diffs its
// recorded trace digest (the same check `veridp_cli fuzz --replay`
// enforces in CI).
#include <gtest/gtest.h>

#include "fuzz/campaign.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/scheduler.hpp"
#include "fuzz/scorecard.hpp"

namespace veridp {
namespace fuzz {
namespace {

TEST(FuzzReplay, RunIsByteIdenticalAcrossRunnerInstances) {
  const ScheduleGenerator gen(7);
  // One harmful single-class run, the benign flood, one multi-fault mix.
  for (const int index : {2, 15, 16}) {
    const FuzzSchedule s = gen.generate(index);
    const RunResult a = CampaignRunner().run(s);
    const RunResult b = CampaignRunner().run(s);
    ASSERT_EQ(a.trace, b.trace) << "index " << index;
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.blamed, b.blamed);
    EXPECT_EQ(a.false_positives, 0u);
    EXPECT_TRUE(a.conserved);
    EXPECT_TRUE(a.parallel_match) << "parallel verdicts diverged";
  }
}

TEST(FuzzReplay, ParallelOracleDoesNotPerturbTheTrace) {
  // Worker count and even disabling the parallel check must not change
  // the sequential trace: the oracle replays the captured stream, it
  // does not participate in producing it.
  const FuzzSchedule s = ScheduleGenerator(11).generate(16);
  CampaignKnobs one;
  one.parallel_workers = 1;
  CampaignKnobs four;
  four.parallel_workers = 4;
  CampaignKnobs off;
  off.check_parallel = false;
  const RunResult r1 = CampaignRunner(one).run(s);
  const RunResult r4 = CampaignRunner(four).run(s);
  const RunResult r0 = CampaignRunner(off).run(s);
  EXPECT_TRUE(r1.parallel_match);
  EXPECT_TRUE(r4.parallel_match);
  // Traces match except the final parallel line, which the disabled run
  // omits; digest equality across worker counts is the strong check.
  EXPECT_EQ(r1.trace, r4.trace);
  EXPECT_EQ(r1.digest, r4.digest);
  EXPECT_EQ(r0.trace.substr(0, r0.trace.size()),
            r1.trace.substr(0, r0.trace.size()));
}

TEST(FuzzReplay, CampaignScorecardIsDeterministic) {
  CampaignOptions opts;
  opts.seeds = {5};
  opts.budget_per_seed = 6;
  const CampaignOutcome a = run_campaign(opts);
  const CampaignOutcome b = run_campaign(opts);
  EXPECT_EQ(to_json(a.card), to_json(b.card));
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i)
    EXPECT_EQ(a.runs[i].digest, b.runs[i].digest) << "run " << i;
  ASSERT_EQ(a.interesting.size(), b.interesting.size());
  for (std::size_t i = 0; i < a.interesting.size(); ++i)
    EXPECT_EQ(serialize_entry(a.interesting[i]),
              serialize_entry(b.interesting[i]));
}

TEST(FuzzReplay, CheckedInCorpusReplaysWithoutDivergence) {
  const auto paths = list_corpus(VERIDP_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(paths.empty())
      << "no corpus entries under " << VERIDP_FUZZ_CORPUS_DIR;
  const CampaignRunner runner;
  for (const std::string& path : paths) {
    const auto entry = load_entry(path);
    ASSERT_TRUE(entry.has_value()) << path;
    const RunResult r = runner.run(entry->schedule);
    EXPECT_EQ(r.digest, entry->digest)
        << entry->name << " diverged from its recorded trace";
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace veridp
