// Admission regimes: the server's declared overload postures.
//
// PR 1's load shedding was a single fixed policy (watermark + modulus)
// whose behavior an operator could only predict by reading the ingest
// source. Regimes make the degradation ladder explicit — each regime
// maps to exactly one admission policy, so "what is the server doing to
// my reports right now?" is answered by one exported enum value:
//
//   kNormal  →  kVerifyAll          every well-formed report is queued
//                                   for verification (only the hard
//                                   capacity bound can shed);
//   kSoft    →  kDeterministicSample only the seq % shed_modulus == 0
//                                   subset is verified — reproducible
//                                   run-to-run, like PR 1 shedding but
//                                   with a controller-commanded modulus;
//   kHard    →  kQuarantineOnly     no report reaches the verify queue;
//                                   decode quarantine and duplicate
//                                   bookkeeping continue so the books
//                                   still balance and recovery starts
//                                   from accurate loss estimates.
//
// Transitions between regimes are decided by the ControlLoop
// (control_loop.hpp) with hysteresis — distinct enter/exit pressure
// thresholds — and are edge-triggered: both ingest paths count
// transitions, never re-apply a regime they are already in, and export
// the current regime through IngestHealth.
//
// An ungoverned ingest runs the same ladder off its fixed high
// watermark (watermark_regime). Both servers — ReportIngest and each
// ParallelServer lane — accept the same bounds (validate_admission) and
// take reports in through the one Intake below: the same duplicate
// suppression, the same `admits` decision and the same intake buckets
// of the one IngestHealth ledger, so the two cannot drift apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "common/types.hpp"
#include "veridp/seq_tracker.hpp"
#include "veridp/verifier.hpp"

namespace veridp {

enum class AdmissionRegime : std::uint8_t {
  kNormal = 0,
  kSoft = 1,
  kHard = 2,
};

enum class AdmissionPolicy : std::uint8_t {
  kVerifyAll = 0,
  kDeterministicSample = 1,
  kQuarantineOnly = 2,
};

/// The regime → policy map is total and fixed: operators predict
/// behavior from the regime alone.
[[nodiscard]] constexpr AdmissionPolicy policy_for(AdmissionRegime r) {
  switch (r) {
    case AdmissionRegime::kSoft:
      return AdmissionPolicy::kDeterministicSample;
    case AdmissionRegime::kHard:
      return AdmissionPolicy::kQuarantineOnly;
    case AdmissionRegime::kNormal:
      break;
  }
  return AdmissionPolicy::kVerifyAll;
}

/// The ungoverned ingest's fixed watermark as a regime: at or above the
/// mark only the deterministic sample is kept.
[[nodiscard]] constexpr AdmissionRegime watermark_regime(
    std::size_t depth, std::size_t high_watermark) {
  return depth >= high_watermark ? AdmissionRegime::kSoft
                                 : AdmissionRegime::kNormal;
}

/// The admission decision for one deduplicated report: true iff a report
/// with sequence number `seq` joins a queue holding `depth` of
/// `capacity` reports under `policy`. The kept sample depends only on
/// sequence numbers, so a rerun with the same seed sheds the same
/// reports. `modulus` must be non-zero.
[[nodiscard]] constexpr bool admits(AdmissionPolicy policy,
                                    std::size_t depth, std::size_t capacity,
                                    std::uint32_t seq,
                                    std::uint32_t modulus) {
  switch (policy) {
    case AdmissionPolicy::kQuarantineOnly:
      return false;
    case AdmissionPolicy::kDeterministicSample:
      return depth < capacity && seq % modulus == 0;
    case AdmissionPolicy::kVerifyAll:
      break;
  }
  return depth < capacity;
}

/// Both servers' constructors run their admission bounds through this
/// check, so they accept exactly the same configs. Throws
/// std::invalid_argument on bounds that silently misbehave: capacity ==
/// 0 (nothing can ever be queued), high_watermark >= capacity (shedding
/// could not engage before the hard bound) and shed_modulus == 0 (seq %
/// 0 is UB).
inline void validate_admission(std::size_t capacity,
                               std::size_t high_watermark,
                               std::uint32_t shed_modulus) {
  if (capacity == 0)
    throw std::invalid_argument("admission: capacity must be positive");
  if (high_watermark >= capacity)
    throw std::invalid_argument(
        "admission: high_watermark must be below capacity (shedding must "
        "engage before the hard bound)");
  if (shed_modulus == 0)
    throw std::invalid_argument("admission: shed_modulus must be non-zero");
}

[[nodiscard]] constexpr const char* to_string(AdmissionRegime r) {
  switch (r) {
    case AdmissionRegime::kSoft:
      return "soft";
    case AdmissionRegime::kHard:
      return "hard";
    case AdmissionRegime::kNormal:
      break;
  }
  return "normal";
}

/// Ingest health ledger of both servers. Conservation law — every
/// received datagram sits in exactly one terminal bucket or is still
/// queued:
///
///   received == passed + failed + stale + shed + quarantined + deduped
///               + in_queue
///
/// and within the verified portion:
///
///   verified  == passed + failed + stale
///   memo_hits <= verified
///
/// memo_hits is deliberately NOT a seventh bucket: a report answered
/// from a verify memo IS verified — the memo returns a verdict
/// bit-identical to recomputation, counted in passed/failed/stale like
/// any other. The sequential ReportIngest keeps the law exact at every
/// point of its life; ParallelServer keeps it exact whenever no worker
/// is mid-batch (between popping a batch and counting its verdicts the
/// reports are in neither bucket).
struct IngestHealth {
  std::uint64_t received = 0;     ///< datagrams offered
  std::uint64_t verified = 0;     ///< == passed + failed + stale
  std::uint64_t passed = 0;       ///< verified kOk
  std::uint64_t failed = 0;       ///< verified kNoPath / kTagMismatch
  std::uint64_t stale = 0;        ///< verified kStaleEpoch (inconclusive)
  std::uint64_t shed = 0;         ///< dropped by admission
  std::uint64_t quarantined = 0;  ///< failed decode
  std::uint64_t deduped = 0;      ///< duplicate seq suppressed
  std::uint64_t in_queue = 0;     ///< admitted, not yet verified
  std::uint64_t lost_estimate = 0;  ///< per-switch seq gaps
  std::uint64_t memo_hits = 0;      ///< verified via the memo fast path
  AdmissionRegime regime = AdmissionRegime::kNormal;  ///< commanded regime
  std::uint64_t regime_transitions = 0;  ///< edge-triggered changes applied
  std::uint64_t failsafe_events = 0;     ///< publisher failsafes (loud)
  std::uint64_t snapshot_flips = 0;  ///< the server's snapshot publications

  /// Books one verdict: verified, and exactly one of passed / stale /
  /// failed. Every verify path of both servers counts through here.
  void tally(const Verdict& v) {
    ++verified;
    if (v.ok())
      ++passed;
    else if (v.status == VerifyStatus::kStaleEpoch)
      ++stale;
    else
      ++failed;
  }

  /// Everything that reached a terminal bucket.
  [[nodiscard]] std::uint64_t accounted() const {
    return passed + failed + stale + shed + quarantined + deduped;
  }
  [[nodiscard]] bool conserved() const {
    return accounted() + in_queue == received &&
           verified == passed + failed + stale && memo_hits <= verified;
  }
};

/// The intake of one report queue: per-switch duplicate suppression,
/// the admission decision and the four intake buckets (received,
/// deduped, shed, quarantined). ReportIngest owns one; each
/// ParallelServer lane owns one GUARDED_BY its lock, so the caller's
/// queue depth is exact when it is handed to offer(). Not internally
/// synchronized.
class Intake {
 public:
  /// `capacity` is the hard bound of the caller's queue; `dedup_window`
  /// bounds the remembered seqs per switch (SeqTracker).
  Intake(std::size_t capacity, std::size_t dedup_window)
      : capacity_(capacity), window_(dedup_window) {}

  /// Books one decoded report of switch `sw`: false if `seq` repeats a
  /// remembered one (counted deduped; seq 0 is never deduplicated) or
  /// if `policy` refuses it at queue depth `depth` (counted shed). True
  /// iff the caller must queue it.
  bool offer(SwitchId sw, std::uint32_t seq, AdmissionPolicy policy,
             std::size_t depth, std::uint32_t shed_modulus) {
    ++received_;
    if (seq != 0 &&
        !trackers_.try_emplace(sw, window_).first->second.note(seq)) {
      ++deduped_;
      return false;
    }
    if (admits(policy, depth, capacity_, seq, shed_modulus)) return true;
    ++shed_;
    return false;
  }

  /// Books one datagram that failed to decode.
  void quarantine() {
    ++received_;
    ++quarantined_;
  }

  /// Adds the intake buckets and the per-switch loss estimate to `h`.
  void fold_into(IngestHealth& h) const {
    h.received += received_;
    h.deduped += deduped_;
    h.shed += shed_;
    h.quarantined += quarantined_;
    for (const auto& [sw, tracker] : trackers_)
      h.lost_estimate += tracker.lost_estimate();
  }

 private:
  std::size_t capacity_;
  std::size_t window_;
  std::unordered_map<SwitchId, SeqTracker> trackers_;
  std::uint64_t received_ = 0;
  std::uint64_t deduped_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t quarantined_ = 0;
};

}  // namespace veridp
