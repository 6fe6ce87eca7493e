// Campaign runner: executes one FuzzSchedule against a freshly built,
// fully seeded environment and scores it (DESIGN.md §10).
//
// One run drives the complete governed stack —
//
//   Controller (logical R) ──deploy──► Network (physical R')
//        │ rule events                    │ probes (ping_all sample +
//        ▼                                ▼  per-mutation targeted flows)
//   Server + ParallelServer          ReportChannel (transport faults)
//   (epoch rings, aligned               │ datagrams
//    every round)                       ▼
//        ▲                     governed ReportIngest ── IngestGovernor
//        └── verify ◄───────────────────┘      (regime/modulus/sampling)
//
// — applying the schedule's mutations at their rounds, injecting probe
// traffic, and watching the verdict stream through an ingest tap. The
// oracle scores:
//
//   * detection      — did any probe report fail verification, and at
//                      which round (time-to-detection)?
//   * localization   — did Algorithm 4 blame a switch the ground truth
//                      (FaultInjector history + recorded mutations)
//                      actually corrupted?
//   * false positives— a failed verdict while the plane held no
//                      *effectful* harmful mutation is an oracle
//                      violation; the campaign requires zero.
//   * conservation   — IngestHealth::conserved() after every offer and
//                      tick (the chaos-harness invariant).
//   * oracle equality— the exact verified report stream re-verified
//                      through ParallelServer's lanes must produce
//                      bit-identical verdict totals, none shed or
//                      deduped.
//
// Effectful vs inert: a scheduled mutation can be semantically inert
// (dropping a shadowed rule, removing a redundant ACL entry). The
// campaign re-checks each applied switch-state mutation against the
// probe universe (every ping_all header's lookup / ACL decision at the
// mutated switch) and only effectful mutations enter the ground truth —
// failing to detect an inert fault is correct behaviour, and a verdict
// failure without an effectful fault is a real false positive.
//
// Determinism: the run is a pure function of the schedule. Its trace
// (a line-based text log of rounds, mutations, verdicts, blame and
// final health) is byte-identical across replays; fnv1a(trace) is the
// digest the corpus and `veridp_cli fuzz --replay` compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "controller/controller.hpp"
#include "fuzz/schedule.hpp"
#include "topo/topology.hpp"

namespace veridp {
namespace fuzz {

/// Environment sizing shared by every run of a campaign (not part of the
/// schedule: these are the harness's own knobs, fixed per campaign).
struct CampaignKnobs {
  std::size_t ingest_capacity = 256;
  std::size_t ingest_watermark = 128;
  bool check_parallel = true;   ///< run the lane equality oracle
  unsigned parallel_workers = 2;
  int localize_budget = 4;      ///< failures localized per run (cold path)
};

/// Verdict-kind observation bits (coverage dimension).
inline constexpr std::uint8_t kSawOk = 1u << 0;
inline constexpr std::uint8_t kSawNoPath = 1u << 1;
inline constexpr std::uint8_t kSawTagMismatch = 1u << 2;
inline constexpr std::uint8_t kSawStale = 1u << 3;

/// Regime observation bits (coverage dimension).
inline constexpr std::uint8_t kSawNormal = 1u << 0;
inline constexpr std::uint8_t kSawSoft = 1u << 1;
inline constexpr std::uint8_t kSawHard = 1u << 2;

/// Everything one run produced: ground truth, oracle outcome, coverage
/// observations and the determinism artifacts.
struct RunResult {
  FuzzSchedule schedule;

  // Ground truth.
  int applied = 0;           ///< mutations that executed at all
  int harmful_effectful = 0; ///< applied, harmful AND probe-visible
  std::vector<MutationClass> effectful_classes;  ///< distinct, schedule order
  std::vector<SwitchId> faulty_switches;         ///< ground-truth blame set

  // Oracle outcome.
  bool detected = false;
  int detect_round = -1;        ///< round of the first failed verdict
  int first_effectful_round = -1;
  bool localized = false;       ///< a blamed switch is in the ground truth
  std::vector<SwitchId> blamed; ///< deviating switches from Algorithm 4
  std::uint64_t failed_verdicts = 0;
  std::uint64_t false_positives = 0;  ///< failures with no effectful fault
  bool conserved = true;
  bool parallel_match = true;   ///< lane totals == sequential tally

  // Coverage observations (kSaw* bits above).
  std::uint8_t verdict_kinds_seen = 0;
  std::uint8_t regimes_seen = 0;

  // Final health tallies (from the run's IngestHealth).
  std::uint64_t received = 0;
  std::uint64_t passed = 0;
  std::uint64_t stale = 0;
  std::uint64_t shed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t deduped = 0;

  // Determinism artifacts.
  std::string trace;
  std::uint64_t digest = 0;

  /// Rounds from the first effectful mutation to the first detection
  /// (-1 when either never happened).
  [[nodiscard]] int time_to_detection() const {
    return (detected && first_effectful_round >= 0)
               ? detect_round - first_effectful_round
               : -1;
  }
};

/// A southbound install channel that loses rules like LossyChannel but
/// records which (switch, rule) installs were lost — the ground truth
/// the kInstallLoss oracle scores against.
class RecordingLossyChannel : public Channel {
 public:
  RecordingLossyChannel(double loss, std::uint64_t seed)
      : loss_(loss), rng_(seed) {}
  std::optional<FlowRule> transmit(SwitchId sw, const FlowRule& r) override {
    if (rng_.chance(loss_)) {
      lost_.push_back({sw, r});
      return std::nullopt;
    }
    return r;
  }
  struct Lost {
    SwitchId sw;
    FlowRule rule;
  };
  [[nodiscard]] const std::vector<Lost>& lost() const { return lost_; }

 private:
  double loss_;
  Rng rng_;
  std::vector<Lost> lost_;
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignKnobs knobs = {}) : knobs_(knobs) {}

  /// Executes `schedule` in a fresh environment. Pure: equal schedules
  /// produce byte-identical RunResult::trace.
  [[nodiscard]] RunResult run(const FuzzSchedule& schedule) const;

  /// The topology shapes schedules may name, in coverage-index order.
  [[nodiscard]] static const std::vector<std::string>& topo_shapes();
  /// Builds the named shape; falls back to "linear" on an unknown name
  /// (a mutated schedule must never crash the harness).
  [[nodiscard]] static Topology make_topo(const std::string& name);

  [[nodiscard]] const CampaignKnobs& knobs() const { return knobs_; }

 private:
  CampaignKnobs knobs_;
};

}  // namespace fuzz
}  // namespace veridp
