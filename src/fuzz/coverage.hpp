// Coverage map for the fuzzing campaign: the scheduler's notion of
// "interesting" (DESIGN.md §10).
//
// A coverage key is one observed combination of
//
//   (mutation class, topology shape, verdict kind, admission regime)
//
// — i.e. "a drop_rule schedule on fat4 produced a tag_mismatch while the
// ingest was in kSoft". A run contributes the cross product of its
// schedule's mutation classes with the verdict kinds and regimes it
// actually observed; a run that lights up any previously unseen key is
// interesting and its schedule enters the corpus as a seed for further
// mutation. The space is small (17 classes x shapes x 4 verdict kinds x
// 3 regimes) by design: it is a scheduling heuristic, not a profile.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "fuzz/schedule.hpp"

namespace veridp {
namespace fuzz {

class CoverageMap {
 public:
  /// Coverage index of a topology shape name (unknown names share one
  /// "other" bucket — mutated schedules must still map somewhere).
  [[nodiscard]] static int topo_index(const std::string& name);
  static constexpr int kNumTopoIndices = 4;

  /// Packs one observation. `verdict` / `regime` are bit indices (0-3 /
  /// 0-2, matching the campaign's kSaw* observation bits).
  [[nodiscard]] static std::uint32_t key(MutationClass cls, int topo,
                                         int verdict, int regime);

  /// Records one key; returns true iff it was new.
  bool add(std::uint32_t k) { return keys_.insert(k).second; }
  [[nodiscard]] bool covers(std::uint32_t k) const {
    return keys_.count(k) != 0;
  }

  /// Folds one finished run in: every distinct mutation class of the
  /// schedule crossed with every verdict kind and regime the run
  /// observed. Returns how many keys were new (> 0 => interesting).
  std::size_t add_run(const FuzzSchedule& s, std::uint8_t verdict_bits,
                      std::uint8_t regime_bits);

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

 private:
  std::set<std::uint32_t> keys_;
};

}  // namespace fuzz
}  // namespace veridp
