// Port-level network topology: switches, point-to-point links between
// switch ports, and edge ports (ports facing hosts or middleboxes).
//
// VeriDP's path table is indexed by pairs of *edge* ports (§3.4); internal
// ports are traversed by following links. Edge ports may carry an IPv4
// subnet announcing which destination addresses live behind them — the
// controller's routing policies and the workload generators both consume
// that mapping.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ip.hpp"
#include "common/types.hpp"

namespace veridp {

// veridp-lint: hot-path

class Topology {
 public:
  /// Adds a switch with ports 1..num_ports; returns its id.
  SwitchId add_switch(std::string name, PortId num_ports);

  /// Connects two free ports with a bidirectional link.
  void add_link(PortKey a, PortKey b);

  /// Attaches a pass-through middlebox at port `p`: packets sent out of
  /// `p` re-enter the network at `p` (peer(p) == p). The port is then not
  /// an edge port, so Algorithm 1 neither re-initializes tags nor reports
  /// at it — this is how the paper's Figure-5 middlebox path stays a
  /// single path-table entry.
  void add_middlebox(PortKey p);

  /// The port at the other end of `p`'s link, or nullopt if `p` is an
  /// edge port (not wired to another switch) or names no port.
  [[nodiscard]] std::optional<PortKey> peer(PortKey p) const {
    if (!valid_port(p)) return std::nullopt;
    const PortKey q = peers_[slot(p)];
    if (!q.valid()) return std::nullopt;
    return q;
  }

  /// True iff `p` names an existing port with no inter-switch link.
  [[nodiscard]] bool is_edge_port(PortKey p) const {
    return valid_port(p) && !peers_[slot(p)].valid();
  }

  /// All edge ports, in deterministic (switch, port) order.
  [[nodiscard]] std::vector<PortKey> edge_ports() const;

  /// Declares that subnet `prefix` is reachable via edge port `p`.
  void attach_subnet(PortKey p, const Prefix& prefix);

  /// The subnet attached to edge port `p`, if any.
  [[nodiscard]] std::optional<Prefix> subnet(PortKey p) const;

  /// All (edge port, subnet) attachments in insertion order.
  [[nodiscard]] const std::vector<std::pair<PortKey, Prefix>>& subnets()
      const {
    return subnets_;
  }

  /// The edge port whose attached subnet contains `ip` (longest match),
  /// or nullopt if no subnet covers it.
  [[nodiscard]] std::optional<PortKey> edge_port_for(Ipv4 ip) const;

  [[nodiscard]] std::size_t num_switches() const { return ports_.size(); }
  [[nodiscard]] PortId num_ports(SwitchId s) const {
    return ports_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool valid_port(PortKey p) const {
    return p.sw < ports_.size() && p.port >= 1 &&
           p.port <= ports_[static_cast<std::size_t>(p.sw)];
  }

  [[nodiscard]] const std::string& name(SwitchId s) const {
    return names_[static_cast<std::size_t>(s)];
  }
  /// Looks a switch up by name; kNoSwitch if absent.
  [[nodiscard]] SwitchId find(const std::string& name) const;

  /// Neighbor switches of `s` as (local out port, remote port) pairs.
  [[nodiscard]] std::vector<std::pair<PortId, PortKey>> neighbors(
      SwitchId s) const;

  /// Total number of inter-switch links: linked port ends over two, where
  /// a middlebox port counts as one end.
  [[nodiscard]] std::size_t num_links() const;

 private:
  /// Index of valid port `p` in `peers_`.
  [[nodiscard]] std::size_t slot(PortKey p) const {
    return first_slot_[static_cast<std::size_t>(p.sw)] + p.port - 1;
  }

  std::vector<PortId> ports_;            // per switch: number of ports
  std::vector<std::size_t> first_slot_;  // per switch: peers_ index of port 1
  // Per port, switch by switch: the linked port, or an invalid PortKey for
  // an edge port. Both ends of a link hold each other; a middlebox port
  // holds itself.
  std::vector<PortKey> peers_;
  std::vector<std::string> names_;  // per switch: display name
  // veridp-lint: allow(hot-path-node-map, name lookup at set-up)
  std::unordered_map<std::string, SwitchId> by_name_;
  // veridp-lint: allow(hot-path-node-map, subnet queries at set-up)
  std::unordered_map<PortKey, Prefix> subnet_by_port_;
  std::vector<std::pair<PortKey, Prefix>> subnets_;
};

}  // namespace veridp
