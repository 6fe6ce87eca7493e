// The simulated data plane: a topology populated with switches, packet
// injection, hop-by-hop forwarding, and delivery of tag reports.
//
// This replaces the paper's Mininet + Open vSwitch testbed (DESIGN.md
// substitution #3). Forwarding is synchronous: `inject` walks the packet
// through switches until it is delivered at an edge port, dropped, or its
// VeriDP TTL expires (which is how data-plane loops terminate, §6.2).
#pragma once

#include <functional>
#include <vector>

#include "dataplane/switch.hpp"
#include "topo/topology.hpp"

namespace veridp {

/// What happened to an injected packet.
enum class Disposition {
  kDelivered,   ///< reached an edge port (left the network to a host)
  kDropped,     ///< hit ⊥ (ACL deny, table miss, or drop rule)
  kTtlExpired,  ///< VeriDP TTL hit zero (data-plane loop)
};

/// The observable outcome of one packet injection.
struct ForwardResult {
  Disposition disposition = Disposition::kDropped;
  std::vector<Hop> path;          ///< the real data-plane path
  PortKey exit{};                 ///< final <switch, outport> (out == ⊥ if dropped)
  bool sampled = false;           ///< did the entry switch mark the packet?
  std::vector<TagReport> reports; ///< tag reports emitted along the way
};

class Network {
 public:
  /// Builds a switch for every node of `topo`. `tag_bits` configures all
  /// VeriDP pipelines.
  explicit Network(Topology topo, int tag_bits = BloomTag::kDefaultBits);

  [[nodiscard]] Topology& topology() { return topo_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }

  [[nodiscard]] Switch& at(SwitchId s) {
    return switches_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const Switch& at(SwitchId s) const {
    return switches_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::size_t num_switches() const { return switches_.size(); }
  [[nodiscard]] int tag_bits() const { return tag_bits_; }

  /// Optional sink invoked for every tag report as it is emitted (the
  /// UDP channel to the VeriDP server). Reports are also returned in the
  /// ForwardResult regardless.
  void set_report_sink(std::function<void(const TagReport&)> sink) {
    sink_ = std::move(sink);
  }

  /// Pushes a new config epoch to every switch's VeriDP pipeline (the
  /// controller's southbound epoch announcement). Packets sampled after
  /// this call carry `e` in their tag reports.
  void set_config_epoch(std::uint32_t e) {
    for (Switch& s : switches_) s.pipeline().set_epoch(e);
  }

  /// Commands every switch's sampling interval to `factor` times its
  /// BASE interval — the server-side overload back-off of §4.5 (a longer
  /// T_s means fewer marked packets and fewer reports), driven by the
  /// closed-loop controller (control_loop.hpp). The command is absolute:
  /// repeated calls do not compound, so a controller re-asserting
  /// factor 4.0 each tick holds the interval steady and commanding 1.0
  /// restores the original rate. Base intervals are captured from the
  /// switches on the first call (a zero "sample everything" interval is
  /// captured as `floor_interval` so the command has an effect).
  void command_sampling(double factor, double floor_interval = 1.0) {
    if (base_intervals_.empty()) {
      base_intervals_.reserve(switches_.size());
      for (Switch& s : switches_) {
        const double cur = s.pipeline().sampler().default_interval();
        base_intervals_.push_back(cur > 0.0 ? cur : floor_interval);
      }
    }
    for (std::size_t i = 0; i < switches_.size(); ++i)
      switches_[i].pipeline().sampler().set_default_interval(
          base_intervals_[i] * factor);
  }

  /// Injects a packet with header `h` at edge port `entry` at time `t`
  /// and forwards it to completion.
  ForwardResult inject(const PacketHeader& h, PortKey entry, double t = 0.0,
                       std::uint32_t size_bytes = 512);

  /// Injects at the edge port owning h.src_ip (via attached subnets).
  /// Returns nullopt if no subnet covers the source address.
  std::optional<ForwardResult> inject_from_source(const PacketHeader& h,
                                                  double t = 0.0);

 private:
  Topology topo_;
  int tag_bits_;
  std::vector<Switch> switches_;
  std::vector<double> base_intervals_;  ///< lazily captured (command_sampling)
  std::function<void(const TagReport&)> sink_;
};

}  // namespace veridp
