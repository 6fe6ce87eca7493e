// Network-state fuzzing vocabulary (DESIGN.md §10).
//
// The e2e suites validate VeriDP against a hand-picked menu of
// inconsistency scenarios; "Consistent SDNs through Network State
// Fuzzing" (PAPERS.md) shows that systematically *mutating* control and
// data plane state surfaces the classes a curated menu misses. This
// module defines the mutation vocabulary and the unit the campaign
// machinery schedules, replays, minimizes and persists: a FuzzSchedule —
// one seeded, fully deterministic multi-fault run description.
//
// A schedule is plain data. Running one (campaign.hpp) builds a fresh
// seeded environment (topology + controller + governed ingest + servers)
// and applies each action at its round; the same schedule therefore
// produces a byte-identical trace on every replay, which is what the
// corpus (corpus.hpp) and the minimizer (minimizer.hpp) rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace veridp {
namespace fuzz {

/// Every mutation class the campaign can schedule. The first 11 map 1:1
/// onto FaultKind (6 switch-state + 5 report-transport); the next four
/// are the composed mutations the ROADMAP's scenario-diversity item
/// names: rule-priority / ACL-ordering shuffles, install-channel rule
/// loss, and (benign, controller-intended) topology/config churn. The
/// last two are benign controller-side changes the path table must
/// follow: an ACL added or removed after sync, and a rule whose priority
/// is not its prefix length (outside §4.4's fragment).
enum class MutationClass : std::uint8_t {
  // Switch-state faults (harmful: the data plane diverges from R).
  kDropRule,
  kRewriteOutput,
  kReplaceWithDrop,
  kExternalRule,
  kIgnorePriority,
  kRemoveAclEntry,
  kPriorityShuffle,  ///< physical table priorities permuted behind R's back
  kAclShuffle,       ///< physical first-match ACL entries reordered
  kInstallLoss,      ///< southbound installs lost (deploy via lossy channel)
  // Report-transport faults (benign for the detection oracle: the plane
  // stays consistent; the monitoring channel itself is perturbed).
  kReportDrop,
  kReportDuplicate,
  kReportReorder,
  kReportDelay,
  kReportCorrupt,
  // Controller-intended churn (benign: logical and physical move together).
  kChurn,
  kAclChurn,     ///< an edge ACL added or removed after sync
  kOddPriority,  ///< a dst-prefix rule at a priority != its length
};

inline constexpr int kNumMutationClasses = 17;
/// The classes with a single-class run in a campaign's opening sweep:
/// all but the last two, which ride in the benign flood (scheduler.hpp).
inline constexpr int kNumSweepClasses = 15;

/// True for the classes that make the data plane diverge from the
/// controller's logical view — the oracle expects detections only from
/// these; any failed verdict in a run without them is a false positive.
[[nodiscard]] bool is_harmful(MutationClass c);

[[nodiscard]] const char* to_string(MutationClass c);
[[nodiscard]] std::optional<MutationClass> mutation_class_from(
    std::string_view name);

/// One scheduled mutation. Parameters are *abstract ordinals* — they are
/// resolved against the live environment when the action fires (switch
/// ordinal mod switch count, rule ordinal mod that switch's table size,
/// ...), so a schedule stays meaningful across shrink steps and never
/// hard-codes a RuleId that only exists in one particular build.
///
///   class             a                b               c            d
///   ----------------- ---------------- --------------- ------------ ---
///   kDropRule         switch ordinal   rule ordinal    -            -
///   kRewriteOutput    switch ordinal   rule ordinal    port ordinal -
///   kReplaceWithDrop  switch ordinal   rule ordinal    -            -
///   kExternalRule     switch ordinal   subnet ordinal  port ordinal -
///   kIgnorePriority   switch ordinal   -               -            -
///   kRemoveAclEntry   acl ordinal      entry ordinal   -            -
///   kPriorityShuffle  switch ordinal   permutation salt -           -
///   kAclShuffle       acl ordinal      entry ordinal   entry ordinal -
///   kInstallLoss      loss permille    rng salt        -            -
///   kReport*          rate permille    -               -            -
///   kChurn            subnet ordinal   -               -            -
///   kAclChurn         subnet ordinal   subnet ordinal  -            -
///   kOddPriority      subnet ordinal   priority salt   -            -
struct FuzzAction {
  int round = 0;  ///< campaign round at which the action fires
  MutationClass cls = MutationClass::kChurn;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t d = 0;

  [[nodiscard]] bool operator==(const FuzzAction& o) const {
    return round == o.round && cls == o.cls && a == o.a && b == o.b &&
           c == o.c && d == o.d;
  }
};

/// A complete run description: environment knobs + the action list.
/// Everything that influences the run is in here or derived from `seed`,
/// so (schedule → trace) is a pure function.
struct FuzzSchedule {
  std::uint64_t seed = 1;    ///< seeds env setup, probe picks, channel
  std::string topo = "linear";  ///< shape name: linear | fat4 | internet2
  int rounds = 6;            ///< probe/mutation rounds before cooldown
  int copies = 1;            ///< probe injections per round (flood knob)
  std::uint32_t probe_stride = 7;  ///< control sample: every k-th ping flow
  std::uint32_t refine_rules = 8;  ///< nested refinement rules at setup
  std::uint32_t edge_acls = 2;     ///< probe-matching deny ACLs at setup
  std::vector<FuzzAction> actions;

  [[nodiscard]] bool operator==(const FuzzSchedule& o) const {
    return seed == o.seed && topo == o.topo && rounds == o.rounds &&
           copies == o.copies && probe_stride == o.probe_stride &&
           refine_rules == o.refine_rules && edge_acls == o.edge_acls &&
           actions == o.actions;
  }
};

/// Line-based, versioned, diff-able serialization (the corpus format's
/// payload). parse() accepts exactly what serialize() emits — the
/// round-trip is lossless and regression-tested.
[[nodiscard]] std::string serialize(const FuzzSchedule& s);
[[nodiscard]] std::optional<FuzzSchedule> parse_schedule(
    std::string_view text);

/// FNV-1a 64 over a string — the digest primitive for campaign traces
/// and corpus entries (stable across platforms, unlike std::hash).
[[nodiscard]] std::uint64_t fnv1a(std::string_view s);

}  // namespace fuzz
}  // namespace veridp
