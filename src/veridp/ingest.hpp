// Report ingest: the bounded front door between the (lossy, adversarial)
// report channel and the verifier.
//
// The paper's server consumes tag reports as fast as switches emit them;
// under heavy traffic that is exactly the overload path. This stage makes
// the server degrade gracefully instead of silently mis-verifying or
// growing without bound:
//
//   * decode quarantine — datagrams that fail wire::decode_report
//     (truncated, bit-flipped, foreign) are counted and dropped, never
//     interpreted;
//   * duplicate suppression — the v2 per-switch sequence numbers identify
//     retransmitted/duplicated datagrams; duplicates are dropped before
//     they can double-count a verification;
//   * loss accounting — gaps in the per-switch sequence space estimate
//     how many reports the channel lost;
//   * load shedding — a bounded queue with a high watermark: above it the
//     ingest verifies only a deterministic sample (seq % shed_modulus ==
//     0, reproducible run-to-run). Slowing the switches' sampling under
//     load (§4.5) is the control loop's job: IngestGovernor
//     (control_loop.hpp) commands both the admission regime and
//     Network::command_sampling.
//
// Dedup, admission and the intake buckets are the Intake (admission.hpp)
// that ParallelServer's lanes run too. Every received datagram lands in
// exactly one bucket of IngestHealth, which the overload tests assert —
// graceful degradation must account for what it degraded.
//
// Thread-safety: NOT internally synchronized — this is the sequential
// Server's single-threaded front door. The multi-producer analogue is
// ParallelServer's shard-affine dispatch lanes: each lane's Intake and
// queue sit under the lane's one lock, GUARDED_BY it and machine-checked
// under the clang-strict preset (common/thread_annotations.hpp,
// DESIGN.md §8).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "veridp/admission.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/server.hpp"

namespace veridp {

struct IngestConfig {
  std::size_t capacity = 1024;        ///< hard queue bound
  std::size_t high_watermark = 768;   ///< shedding starts above this
  std::uint32_t shed_modulus = 4;     ///< keep seq % modulus == 0 when shedding
  std::size_t dedup_window = 4096;    ///< remembered seqs per switch

  /// validate_admission over this config's bounds (admission.hpp):
  /// throws std::invalid_argument on a config that silently misbehaves.
  /// ReportIngest validates at construction.
  void validate() const {
    validate_admission(capacity, high_watermark, shed_modulus);
  }
};

class ReportIngest {
 public:
  /// The server must outlive the ingest. Throws std::invalid_argument
  /// if `cfg` fails IngestConfig::validate().
  explicit ReportIngest(Server& server, IngestConfig cfg = {});

  /// Observation tap: invoked for every report process() verifies, with
  /// the verdict it received, in verification order. It is the one way
  /// out for failed reports (the inputs for localization); the fuzz
  /// oracle also uses it to capture the exact verified stream for
  /// time-to-detection scoring and for the sequential/parallel equality
  /// check. Pass an empty function to detach. Must not re-enter the
  /// ingest.
  void set_verdict_sink(
      std::function<void(const TagReport&, const Verdict&)> sink) {
    verdict_sink_ = std::move(sink);
  }

  /// Offers one datagram (encoded report bytes) to the queue. Returns
  /// true iff it was enqueued for verification (false: quarantined,
  /// deduped, or shed — see health()).
  bool offer(const std::vector<std::uint8_t>& datagram);

  /// Decoded-report entry point for callers that bypass the wire (the
  /// report still goes through dedup/shedding, not quarantine).
  bool offer_report(const TagReport& report);

  /// Verifies up to `max` queued reports, in chunks of
  /// autotuned_batch_size() lanes through Server::verify_batch.
  /// Returns how many it verified.
  std::size_t process(std::size_t max = SIZE_MAX);

  /// Hands admission over to a control loop: from now on the commanded
  /// regime's declared policy (admission.hpp) replaces the fixed
  /// watermark of the ungoverned ingest — kNormal verifies all (hard
  /// capacity bound only), kSoft keeps the deterministic seq % modulus
  /// == 0 sample, kHard admits nothing to the verify queue. A modulus
  /// of 0 keeps the last commanded one (else the configured one).
  /// Edge-triggered: applying the current regime again only updates the
  /// modulus. Typically called each tick by IngestGovernor
  /// (control_loop.hpp).
  void govern(AdmissionRegime regime, std::uint32_t shed_modulus);
  [[nodiscard]] bool governed() const { return governed_; }
  [[nodiscard]] AdmissionRegime regime() const { return regime_; }

  [[nodiscard]] const IngestConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] bool shedding() const {
    return admission_regime() != AdmissionRegime::kNormal;
  }
  /// Health counters with the loss estimate refreshed.
  [[nodiscard]] IngestHealth health() const;

 private:
  /// The commanded regime, or the watermark's when ungoverned.
  [[nodiscard]] AdmissionRegime admission_regime() const {
    return governed_ ? regime_
                     : watermark_regime(queue_.size(), cfg_.high_watermark);
  }

  Server* server_;
  IngestConfig cfg_;
  Intake intake_;
  IngestHealth health_;  ///< verify-side counts; intake_ keeps its buckets
  bool governed_ = false;  ///< a control loop commands admission
  AdmissionRegime regime_ = AdmissionRegime::kNormal;
  /// Admitted-but-unverified reports in SoA form: offer() appends
  /// lanes, process() verifies a prefix batch-wise and compacts. The
  /// columns double as the verify kernel's input — no per-report
  /// repacking between the queue and the verifier.
  ReportBatch queue_;
  std::vector<Verdict> verdicts_;  ///< process() scratch, one per lane

  std::function<void(const TagReport&, const Verdict&)> verdict_sink_;
};

}  // namespace veridp
