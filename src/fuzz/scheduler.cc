#include "fuzz/scheduler.hpp"

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "fuzz/campaign.hpp"

namespace veridp {
namespace fuzz {

namespace {

constexpr MutationClass kSweepClasses[kNumSweepClasses] = {
    MutationClass::kDropRule,        MutationClass::kRewriteOutput,
    MutationClass::kReplaceWithDrop, MutationClass::kExternalRule,
    MutationClass::kIgnorePriority,  MutationClass::kRemoveAclEntry,
    MutationClass::kPriorityShuffle, MutationClass::kAclShuffle,
    MutationClass::kInstallLoss,     MutationClass::kReportDrop,
    MutationClass::kReportDuplicate, MutationClass::kReportReorder,
    MutationClass::kReportDelay,     MutationClass::kReportCorrupt,
    MutationClass::kChurn,
};

/// Harmful classes the multi-fault composer may combine (kInstallLoss is
/// excluded: its redeploy repairs the others — it only runs solo).
constexpr MutationClass kComposableHarmful[] = {
    MutationClass::kDropRule,        MutationClass::kRewriteOutput,
    MutationClass::kReplaceWithDrop, MutationClass::kExternalRule,
    MutationClass::kIgnorePriority,  MutationClass::kRemoveAclEntry,
    MutationClass::kPriorityShuffle, MutationClass::kAclShuffle,
};

constexpr MutationClass kBenign[] = {
    MutationClass::kReportDrop,  MutationClass::kReportDuplicate,
    MutationClass::kReportReorder, MutationClass::kReportDelay,
    MutationClass::kReportCorrupt, MutationClass::kChurn,
};

/// Benign controller-side changes; the flood adds them after kBenign.
constexpr MutationClass kControlChurn[] = {
    MutationClass::kAclChurn,
    MutationClass::kOddPriority,
};

/// Default transport rate (permille) per report class — corrupt stays
/// low-ish only to keep quarantine volume sane; single-bit flips are
/// always caught by the wire checksum, so no rate causes false
/// positives.
std::uint32_t transport_rate(MutationClass c) {
  switch (c) {
    case MutationClass::kReportDrop: return 150;
    case MutationClass::kReportDuplicate: return 100;
    case MutationClass::kReportReorder: return 150;
    case MutationClass::kReportDelay: return 100;
    case MutationClass::kReportCorrupt: return 50;
    default: return 0;
  }
}

bool priority_sensitive(MutationClass c) {
  return c == MutationClass::kPriorityShuffle;
}

/// Derives the run RNG from (seed, index, salt) without arithmetic
/// seed-mixing games: hash the decimal rendering.
Rng run_rng(std::uint64_t seed, int index, const char* salt) {
  return Rng(fnv1a(std::to_string(seed) + ":" + std::to_string(index) + ":" +
                   salt));
}

std::string pick_topo(Rng& rng, MutationClass cls) {
  const auto& shapes = CampaignRunner::topo_shapes();
  std::string topo = shapes[rng.index(shapes.size())];
  if (priority_sensitive(cls) && topo == "fat4") topo = "linear";
  return topo;
}

FuzzAction make_action(Rng& rng, MutationClass cls, int round) {
  FuzzAction a;
  a.round = round;
  a.cls = cls;
  if (is_harmful(cls) && cls != MutationClass::kInstallLoss) {
    a.a = static_cast<std::uint32_t>(rng.uniform(0, 63));
    a.b = static_cast<std::uint32_t>(rng.uniform(0, 63));
    a.c = static_cast<std::uint32_t>(rng.uniform(0, 63));
  } else if (cls == MutationClass::kInstallLoss) {
    a.a = static_cast<std::uint32_t>(rng.uniform(100, 350));  // loss permille
    a.b = static_cast<std::uint32_t>(rng.uniform(0, 1u << 20));
  } else if (cls == MutationClass::kChurn) {
    a.a = static_cast<std::uint32_t>(rng.uniform(0, 63));
  } else if (cls == MutationClass::kAclChurn ||
             cls == MutationClass::kOddPriority) {
    a.a = static_cast<std::uint32_t>(rng.uniform(0, 63));
    a.b = static_cast<std::uint32_t>(rng.uniform(0, 63));
  } else {
    a.a = transport_rate(cls);
  }
  return a;
}

}  // namespace

FuzzSchedule ScheduleGenerator::generate(int index) const {
  Rng rng = run_rng(seed_, index, "gen");
  FuzzSchedule s;
  s.seed = fnv1a(std::to_string(seed_) + "/run/" + std::to_string(index));
  s.rounds = 6;

  if (index < kNumSweepClasses) {
    // Single-class probe: two instances of the class (rounds 1 and 3)
    // raise the odds that at least one is effectful.
    const MutationClass cls = kSweepClasses[index];
    s.topo = pick_topo(rng, cls);
    if (is_harmful(cls)) {
      s.actions.push_back(make_action(rng, cls, 1));
      if (cls != MutationClass::kInstallLoss)
        s.actions.push_back(make_action(rng, cls, 3));
    } else {
      // Benign probes flood a little so transport faults and regime
      // pressure actually materialize.
      s.copies = 3;
      s.probe_stride = 2;
      s.actions.push_back(make_action(rng, cls, 1));
    }
    return s;
  }

  if (index == kNumSweepClasses) {
    // Benign-only chaos flood: every transport fault plus churn, heavy
    // copies — the strongest zero-false-positive stressor. The
    // controller-side classes come last, so each changes the path table
    // under a stream that already carries every transport fault.
    s.topo = "fat4";
    s.rounds = 8;
    s.copies = 5;
    s.probe_stride = 1;
    int round = 1;
    for (const MutationClass c : kBenign)
      s.actions.push_back(make_action(rng, c, round++ % s.rounds));
    for (const MutationClass c : kControlChurn)
      s.actions.push_back(make_action(rng, c, round++ % s.rounds));
    return s;
  }

  // Multi-fault composition.
  const std::size_t nh = 2 + rng.index(3);  // 2-4 harmful classes
  s.rounds = 6 + static_cast<int>(rng.index(3));
  s.copies = 1 + static_cast<int>(rng.index(2));
  MutationClass first = kComposableHarmful[rng.index(
      sizeof kComposableHarmful / sizeof kComposableHarmful[0])];
  s.topo = pick_topo(rng, first);
  s.actions.push_back(make_action(rng, first, 1));
  for (std::size_t i = 1; i < nh; ++i) {
    MutationClass c = kComposableHarmful[rng.index(
        sizeof kComposableHarmful / sizeof kComposableHarmful[0])];
    if (priority_sensitive(c) && s.topo == "fat4")
      c = MutationClass::kDropRule;
    s.actions.push_back(make_action(
        rng, c, 1 + static_cast<int>(rng.index(
                        static_cast<std::size_t>(s.rounds - 1)))));
  }
  const std::size_t nb = rng.index(3);  // 0-2 benign noise actions
  for (std::size_t i = 0; i < nb; ++i) {
    const MutationClass c =
        kBenign[rng.index(sizeof kBenign / sizeof kBenign[0])];
    s.actions.push_back(make_action(
        rng, c, static_cast<int>(rng.index(
                    static_cast<std::size_t>(s.rounds)))));
  }
  return s;
}

FuzzSchedule ScheduleGenerator::mutate(const FuzzSchedule& base,
                                       int index) const {
  Rng rng = run_rng(seed_, index, "mut");
  FuzzSchedule s = base;
  s.seed = fnv1a(std::to_string(base.seed) + "/mut/" + std::to_string(index));
  if (s.actions.empty() || rng.chance(0.25)) {
    // Append one compatible action.
    MutationClass c = kComposableHarmful[rng.index(
        sizeof kComposableHarmful / sizeof kComposableHarmful[0])];
    if (priority_sensitive(c) && s.topo == "fat4")
      c = MutationClass::kReplaceWithDrop;
    s.actions.push_back(make_action(
        rng, c, 1 + static_cast<int>(rng.index(static_cast<std::size_t>(
                        std::max(1, s.rounds - 1))))));
    return s;
  }
  FuzzAction& a = s.actions[rng.index(s.actions.size())];
  switch (rng.index(3)) {
    case 0:
      a.a = static_cast<std::uint32_t>(rng.uniform(0, 63));
      break;
    case 1:
      a.b = static_cast<std::uint32_t>(rng.uniform(0, 63));
      break;
    default:
      a.round = 1 + static_cast<int>(rng.index(static_cast<std::size_t>(
                       std::max(1, s.rounds - 1))));
      break;
  }
  return s;
}

FuzzSchedule ScheduleGenerator::crossover(const FuzzSchedule& a,
                                          const FuzzSchedule& b,
                                          int index) const {
  Rng rng = run_rng(seed_, index, "xover");
  FuzzSchedule s = a;  // parent A donates the environment
  s.seed = fnv1a(std::to_string(a.seed) + "/x/" + std::to_string(b.seed) +
                 "/" + std::to_string(index));
  // Splice: a prefix of A's actions (possibly empty, possibly all) with
  // a suffix of B's. Cut points are rng-chosen but pure in
  // (seed, index), so the cross-bred schedule replays byte-identically.
  const std::size_t cut_a = rng.index(a.actions.size() + 1);
  const std::size_t cut_b = rng.index(b.actions.size() + 1);
  s.actions.assign(a.actions.begin(),
                   a.actions.begin() + static_cast<std::ptrdiff_t>(cut_a));
  const int last_round = std::max(1, s.rounds - 1);
  for (std::size_t i = cut_b; i < b.actions.size(); ++i) {
    FuzzAction act = b.actions[i];
    // B may run more rounds than A: keep spliced actions inside A's
    // mutation window so they stay applicable.
    act.round = std::clamp(act.round, 1, last_round);
    s.actions.push_back(act);
  }
  return s;
}

}  // namespace fuzz
}  // namespace veridp
