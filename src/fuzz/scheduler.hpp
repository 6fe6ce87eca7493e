// Seeded schedule generation + corpus mutation (DESIGN.md §10).
//
// The generator is a pure function of (campaign seed, run index): the
// same seed always yields the same sequence of schedules, which is what
// makes a whole campaign — and its scorecard — replayable. The sequence
// is structured for coverage first, depth second:
//
//   * runs 0..14   — one single-class schedule per fault, transport
//                    and churn class (kNumSweepClasses), so every fault
//                    class is exercised (and scored in isolation:
//                    detection/localization attribution is only
//                    unambiguous in single-harmful-class runs);
//   * run  15      — a benign-only transport + churn flood (regime
//                    coverage and the zero-false-positive check under
//                    maximum pressure), which also carries the two
//                    controller-side classes (an ACL added or removed
//                    after sync, a rule at a priority other than its
//                    prefix length);
//   * runs 16+     — seeded multi-fault compositions (2-4 harmful
//                    classes plus transport/churn noise), or mutations
//                    of interesting corpus schedules when the driver
//                    asks for one.
//
// Class-aware topology choice: kPriorityShuffle needs nested/overlapping
// rules to be non-inert, and fat4's /32 host subnets offer none — the
// generator steers priority-sensitive schedules to the other shapes.
// kInstallLoss redeploys the network (repairing other switch-state
// faults), so generated schedules never mix it with other harmful
// classes; the minimizer may of course create such mixes while
// shrinking, which the campaign tolerates.
#pragma once

#include <cstdint>

#include "fuzz/schedule.hpp"

namespace veridp {
namespace fuzz {

class ScheduleGenerator {
 public:
  explicit ScheduleGenerator(std::uint64_t campaign_seed)
      : seed_(campaign_seed) {}

  /// The index-th schedule of this campaign (pure in (seed, index)).
  [[nodiscard]] FuzzSchedule generate(int index) const;

  /// A small deterministic perturbation of `base` (pure in (seed, index,
  /// base)): tweaks one action's ordinals, re-rounds one action, or
  /// appends one compatible action.
  [[nodiscard]] FuzzSchedule mutate(const FuzzSchedule& base,
                                    int index) const;

  /// Cross-breeds two corpus entries (pure in (seed, index, a, b)):
  /// a prefix of `a`'s action list spliced with a suffix of `b`'s,
  /// under `a`'s environment (topology, rounds, probe knobs). Spliced
  /// rounds are clamped into `a`'s round range. Like the minimizer,
  /// crossover may produce class mixes the generator itself avoids
  /// (e.g. kInstallLoss beside other harmful classes); the campaign
  /// tolerates those — inert actions are simply never ground truth.
  [[nodiscard]] FuzzSchedule crossover(const FuzzSchedule& a,
                                       const FuzzSchedule& b,
                                       int index) const;

 private:
  std::uint64_t seed_;
};

}  // namespace fuzz
}  // namespace veridp
