// Closed-loop admission control (the "millions of users" story): a
// tick-driven controller that observes measured ingest pressure and
// commands (1) the data-plane sampling interval factor, (2) the ingest
// shed modulus and (3) the admission regime — replacing the open-loop
// fixed watermark + fixed modulus + one-shot back-off of PR 1.
//
// Observation. Each tick the caller hands the loop a PressureSample of
// cumulative ingest counters plus the instantaneous queue depth. The
// loop differentiates the counters over the tick and folds three
// signals into one scalar pressure in [0, ~1.2]:
//
//   pressure_raw = min(1.2, utilization
//                           + shed_weight * shed_fraction
//                           + loss_weight * loss_fraction)
//
// (utilization = depth/capacity; shed_fraction = Δshed/Δreceived — a
// queue that drains only because it discards is still overloaded;
// loss_fraction = Δlost/(Δreceived+Δlost) — SeqTracker gaps mean the
// channel upstream is dropping, i.e. the switches emit more than we
// admit). The raw value is smoothed with an EWMA so one bursty tick
// cannot flap the regime machine.
//
// Control law. A PI controller on (pressure − setpoint) drives the
// commanded sampling factor in log2 space:
//
//   u        = kp * error + ki * integral
//   target   = clamp(u, 0, log2(max_sampling_factor))
//   log2f   += clamp(target − log2f, ±slew_limit)        // bounded slew
//
// with two anti-windup measures: the integral accumulator is clamped to
// ±integral_limit, and integration is conditional — when the actuator
// is saturated the integrator only accepts error that drives it *out*
// of saturation. Together with the bounded slew this makes the factor
// move monotonically toward its target and return promptly after a
// pressure spike instead of oscillating or lagging by the windup.
//
// Regimes. The smoothed pressure feeds a three-state hysteresis machine
// (admission.hpp): enter thresholds are strictly above exit thresholds,
// so pressure noise inside a band never flaps the regime, and the
// transition function is monotone in pressure — a higher pressure can
// only move the regime toward kHard, a lower one only toward kNormal.
// Transitions are edge-triggered; every decision records whether this
// tick crossed an edge.
//
// The loop is deliberately pure and single-threaded: no clocks, no
// threads, no I/O — "time" is the caller's tick. That makes every
// campaign byte-for-byte reproducible from a seed, which the chaos
// invariants harness (test_control_chaos.cc) relies on.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "veridp/admission.hpp"
#include "veridp/ingest.hpp"

namespace veridp {

struct ControlLoopConfig {
  double setpoint = 0.4;       ///< target pressure; kept below soft_exit so
                               ///< a converged loop settles back in kNormal
  double ewma_alpha = 0.4;     ///< smoothing weight for new samples
  double shed_weight = 0.5;    ///< shed_fraction contribution to pressure
  double loss_weight = 0.25;   ///< loss_fraction contribution to pressure
  double kp = 4.0;             ///< proportional gain (log2-factor units)
  double ki = 1.0;             ///< integral gain
  double integral_limit = 4.0; ///< anti-windup clamp on the accumulator
  double slew_limit = 1.0;     ///< max |Δlog2(sampling factor)| per tick
  double max_sampling_factor = 64.0;  ///< actuator saturation
  std::uint32_t max_shed_modulus = 64;

  // Regime hysteresis bands on smoothed pressure. Invariant (validated):
  //   0 < soft_exit < soft_enter <= hard_enter <= 1.2
  //   soft_exit <= hard_exit < hard_enter
  double soft_enter = 0.70;
  double soft_exit = 0.45;
  double hard_enter = 0.92;
  double hard_exit = 0.65;

  std::size_t trace_keep = 4096;  ///< decisions retained for the trace

  /// Throws std::invalid_argument on a config that cannot control
  /// (inverted hysteresis bands, zero/negative gains where the law
  /// degenerates, saturations below 1, ...).
  void validate() const;
};

/// One tick's worth of observed ingest state. Counters are CUMULATIVE
/// (as exported by IngestHealth); the loop keeps the
/// previous sample and differentiates internally.
struct PressureSample {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 1;
  std::uint64_t received = 0;       ///< cumulative datagrams offered
  std::uint64_t shed = 0;           ///< cumulative shed count
  std::uint64_t lost_estimate = 0;  ///< cumulative SeqTracker gap estimate
};

/// What the controller commanded on one tick (also the trace record).
struct ControlDecision {
  std::uint64_t tick = 0;
  double pressure = 0.0;         ///< smoothed composite pressure
  double sampling_factor = 1.0;  ///< commanded multiplier on base T_s
  std::uint32_t shed_modulus = 1;
  AdmissionRegime regime = AdmissionRegime::kNormal;
  bool regime_changed = false;
  bool failsafe = false;  ///< publisher failsafe active this tick
};

class ControlLoop {
 public:
  /// Validates `cfg` (throws std::invalid_argument — see validate()).
  explicit ControlLoop(ControlLoopConfig cfg = {});

  /// Advances the loop one tick. `publisher_failsafe` is passed through
  /// into the decision/trace so a campaign can correlate regime churn
  /// with snapshot-publisher health.
  ControlDecision tick(const PressureSample& s,
                       bool publisher_failsafe = false);

  [[nodiscard]] AdmissionRegime regime() const { return regime_; }
  [[nodiscard]] double pressure() const { return pressure_; }
  [[nodiscard]] double sampling_factor() const;
  [[nodiscard]] std::uint64_t ticks() const { return tick_; }
  /// Edge-triggered regime transitions since construction.
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }
  /// Most recent decisions, oldest first (bounded by trace_keep).
  [[nodiscard]] const std::deque<ControlDecision>& trace() const {
    return trace_;
  }

  [[nodiscard]] const ControlLoopConfig& config() const { return cfg_; }

  /// The hysteresis transition function, exposed for property tests:
  /// monotone in `pressure` for every fixed `cur`.
  [[nodiscard]] AdmissionRegime next_regime(AdmissionRegime cur,
                                            double pressure) const;

 private:
  [[nodiscard]] double raw_pressure(const PressureSample& s) const;
  [[nodiscard]] std::uint32_t modulus_for(AdmissionRegime r,
                                          double pressure) const;

  ControlLoopConfig cfg_;
  double max_log2_factor_;  ///< log2(cfg_.max_sampling_factor)
  AdmissionRegime regime_ = AdmissionRegime::kNormal;
  double pressure_ = 0.0;
  double integral_ = 0.0;
  double log2_factor_ = 0.0;
  bool have_prev_ = false;
  PressureSample prev_{};
  std::uint64_t tick_ = 0;
  std::uint64_t transitions_ = 0;
  std::deque<ControlDecision> trace_;
};

/// Binds a ControlLoop to the sequential stack: samples the ingest's
/// health each tick, runs the loop, and applies the commands — regime +
/// modulus to the ingest (ReportIngest::govern) and the sampling factor
/// to the data plane through `sampling_sink` (typically
/// Network::command_sampling). Cold path: one std::function call per
/// tick, not per report.
class IngestGovernor {
 public:
  /// The ingest must outlive the governor.
  IngestGovernor(ReportIngest& ingest, ControlLoopConfig cfg = {});

  void set_sampling_sink(std::function<void(double factor)> sink) {
    sampling_sink_ = std::move(sink);
  }

  /// One control tick: observe → decide → actuate.
  ControlDecision tick(bool publisher_failsafe = false);

  [[nodiscard]] const ControlLoop& loop() const { return loop_; }

 private:
  ReportIngest* ingest_;
  ControlLoop loop_;
  std::function<void(double)> sampling_sink_;
  double applied_factor_ = 1.0;
};

}  // namespace veridp
