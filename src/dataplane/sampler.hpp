// Per-flow traffic sampling at entry switches (paper §4.5).
//
// Each flow f (identified by its 5-tuple) has a sampling interval T_s^f;
// the entry switch keeps the last sampling instant t^f and marks a packet
// arriving at time t iff t - t^f > T_s^f. Choosing T_s^f <= tau - T_a^f
// (T_a^f = max inter-packet gap) bounds fault-detection latency by tau —
// `interval_for_latency` encodes that rule.
//
// Two implementations are provided, matching the paper's two prototypes:
//  * FlowSampler — hash table of active flows (the Open vSwitch pipeline),
//    open-addressed so the per-packet probe touches one flat array,
//  * ArrayFlowSampler — fixed-capacity array with last-hit-based
//    replacement (the FPGA/ONetSwitch pipeline, which cannot grow state).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "header/packet_header.hpp"

namespace veridp {

// veridp-lint: hot-path

/// Chooses T_s so that detection latency <= tau given the flow's maximum
/// inter-packet-arrival time T_a (returns 0, sample-everything, if the
/// latency target is tighter than the arrival gap allows).
inline double interval_for_latency(double tau, double max_arrival_gap) {
  const double ts = tau - max_arrival_gap;
  return ts > 0.0 ? ts : 0.0;
}

/// Hash-table flow sampler (software pipeline).
class FlowSampler {
 public:
  /// `default_interval` is T_s for flows without an explicit setting.
  /// An interval of 0 samples every packet.
  explicit FlowSampler(double default_interval = 0.0)
      : default_interval_(default_interval) {}

  /// Sets T_s^f for one flow.
  void set_interval(const PacketHeader& flow, double interval) {
    intervals_[flow] = interval;
  }

  /// The default T_s applied to flows without an explicit interval.
  /// Mutable at runtime: the server's overload back-off raises it to
  /// thin the report stream (§4.5 trade-off: longer T_s, higher
  /// detection latency, lower report rate).
  [[nodiscard]] double default_interval() const { return default_interval_; }
  void set_default_interval(double interval) { default_interval_ = interval; }

  /// Should the packet arriving at time `t` be marked? Updates t^f.
  bool sample(const PacketHeader& flow, double t);

  [[nodiscard]] std::size_t active_flows() const { return size_; }
  /// Forgets every t^f (per-flow intervals stay).
  void clear();

 private:
  struct Slot {
    PacketHeader flow;
    bool used = false;
    double last = 0.0;  ///< t^f
  };

  /// t^f of `flow`; a flow seen for the first time gets -inf.
  double& last_sampled(const PacketHeader& flow);
  [[nodiscard]] std::size_t home(const PacketHeader& flow) const;
  void grow();

  double default_interval_;
  // veridp-lint: allow(hot-path-node-map, probed only once one is set)
  std::unordered_map<PacketHeader, double> intervals_;
  // t^f per flow: linear probing over a power-of-two table at most half
  // full, keys compared in full.
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  ///< home() keeps the top log2(slots_.size()) hash bits
};

/// Fixed-capacity flow sampler (hardware pipeline): an array of slots,
/// each holding a flow, its last sampling instant and a last-hit instant;
/// on overflow the least-recently-hit slot is evicted.
class ArrayFlowSampler {
 public:
  explicit ArrayFlowSampler(std::size_t capacity, double interval = 0.0)
      : interval_(interval), slots_(capacity) {}

  bool sample(const PacketHeader& flow, double t);

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t occupied() const;

 private:
  struct Slot {
    bool used = false;
    PacketHeader flow;
    double last_sampled = 0.0;
    double last_hit = 0.0;
  };
  double interval_;
  std::vector<Slot> slots_;
};

}  // namespace veridp
