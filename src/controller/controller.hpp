// The SDN controller: owner of the *logical* configuration R.
//
// Policies (routing, ACLs, waypoints, traffic engineering) compile into
// per-switch logical rules here. `deploy` pushes the logical state into a
// Network's physical switches through an install Channel — the paper's
// OpenFlow southbound — which may silently lose or corrupt rules (§2.2).
// Rule events are also published to subscribers; the VeriDP server
// intercepts exactly this stream to keep its path table current (§3.2).
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/network.hpp"
#include "flow/switch_config.hpp"
#include "topo/topology.hpp"

namespace veridp {

/// A southbound operation on R, as observed by the VeriDP server: a rule
/// added or deleted, or a port ACL installed or replaced (kAcl, which
/// carries no rule; the ACL itself is in the controller's logical config).
struct RuleEvent {
  enum class Kind { kAdd, kDelete, kAcl } kind = Kind::kAdd;
  SwitchId sw = kNoSwitch;
  FlowRule rule;
  PortId port = 0;       ///< kAcl: the port whose ACL changed
  bool outbound = false; ///< kAcl: the out-bound (else in-bound) ACL
};

/// The southbound install channel. The default implementation is
/// reliable; subclasses model the §2.2 failure cases.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Returns the rule as actually installed at the switch, or nullopt if
  /// the install was lost.
  virtual std::optional<FlowRule> transmit(SwitchId sw, const FlowRule& r) {
    (void)sw;
    return r;
  }
};

/// Loses each rule install independently with probability `loss`.
class LossyChannel : public Channel {
 public:
  LossyChannel(double loss, std::uint64_t seed) : loss_(loss), rng_(seed) {}
  std::optional<FlowRule> transmit(SwitchId, const FlowRule& r) override {
    if (rng_.chance(loss_)) {
      ++lost_;
      return std::nullopt;
    }
    return r;
  }
  [[nodiscard]] std::size_t lost() const { return lost_; }

 private:
  double loss_;
  Rng rng_;
  std::size_t lost_ = 0;
};

class Controller {
 public:
  explicit Controller(const Topology& topo);

  [[nodiscard]] const Topology& topology() const { return *topo_; }

  /// Logical (controller-side) configuration of a switch.
  [[nodiscard]] const SwitchConfig& logical(SwitchId s) const {
    return configs_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const std::vector<SwitchConfig>& logical_configs() const {
    return configs_;
  }

  /// Adds a rule to the logical config and publishes a RuleEvent.
  RuleId add_rule(SwitchId sw, std::int32_t priority, const Match& match,
                  Action action);

  /// Deletes a logical rule; publishes a RuleEvent. Returns the removed
  /// rule, or nullopt if unknown.
  std::optional<FlowRule> delete_rule(SwitchId sw, RuleId id);

  /// Installs / replaces a port ACL in the logical config; publishes a
  /// kAcl RuleEvent.
  void set_in_acl(SwitchId sw, PortId port, Acl acl);
  void set_out_acl(SwitchId sw, PortId port, Acl acl);

  /// Subscribes to southbound rule operations (the VeriDP server tap).
  /// Returns the handle unsubscribe() takes; a listener that dies
  /// before the controller must unsubscribe first.
  std::uint64_t subscribe(std::function<void(const RuleEvent&)> listener) {
    listeners_.emplace_back(next_listener_, std::move(listener));
    return next_listener_++;
  }
  void unsubscribe(std::uint64_t handle) {
    std::erase_if(listeners_,
                  [handle](const auto& l) { return l.first == handle; });
  }

  /// The config epoch: bumped on every rule and ACL event, before it is
  /// published, so subscribers observe the post-event epoch. Switches
  /// learn it via Network::set_config_epoch and stamp it into sampled
  /// packets; the server uses it to pick the right path-table snapshot.
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// Pushes the complete logical state into the network's switches
  /// through `channel` (reliable by default). Physical tables are
  /// cleared first. Returns the number of rules actually installed.
  std::size_t deploy(Network& net, Channel* channel = nullptr) const;

  /// Total number of logical rules across all switches.
  [[nodiscard]] std::size_t num_rules() const;

 private:
  void publish(const RuleEvent& ev) const;

  const Topology* topo_;
  std::vector<SwitchConfig> configs_;
  std::vector<std::pair<std::uint64_t, std::function<void(const RuleEvent&)>>>
      listeners_;
  std::uint64_t next_listener_ = 0;
  RuleId next_id_ = 1;
  std::uint32_t epoch_ = 0;
};

}  // namespace veridp
