// Data-plane switch: the OpenFlow pipeline (ACLs + prioritized flow-table
// lookup) plus the attached VeriDP pipeline.
//
// The switch holds the *physical* configuration R'. The controller's
// logical configuration R lives in controller/Controller; divergence
// between them (injected by dataplane/fault.hpp) is exactly what VeriDP
// must detect.
#pragma once

#include <cstdint>

#include "dataplane/pipeline.hpp"
#include "flow/switch_config.hpp"

namespace veridp {

// veridp-lint: hot-path

class Switch {
 public:
  Switch(SwitchId id, PortId num_ports,
         int tag_bits = BloomTag::kDefaultBits)
      : id_(id), num_ports_(num_ports), pipeline_(id, tag_bits) {}

  [[nodiscard]] SwitchId id() const { return id_; }
  [[nodiscard]] PortId num_ports() const { return num_ports_; }

  [[nodiscard]] SwitchConfig& config() { return config_; }
  [[nodiscard]] const SwitchConfig& config() const { return config_; }

  [[nodiscard]] VeriDpPipeline& pipeline() { return pipeline_; }

  /// The OpenFlow pipeline's forwarding decision for a packet received on
  /// local port `x` under the physical config (SwitchConfig::forward);
  /// set-field actions mutate `h`.
  [[nodiscard]] PortId forward(PacketHeader& h, PortId x) const {
    return config_.forward(h, x);
  }

  /// Packets processed by this switch (all, sampled or not).
  [[nodiscard]] std::uint64_t packets_seen() const { return packets_; }
  void count_packet() { ++packets_; }

 private:
  SwitchId id_;
  PortId num_ports_;
  SwitchConfig config_;
  VeriDpPipeline pipeline_;
  std::uint64_t packets_ = 0;
};

}  // namespace veridp
