// Shortest-path routing compilation: the controller's default policy.
//
// For every subnet attached to an edge port, a BFS tree rooted at the
// owning switch is computed and a dst-prefix rule is installed at every
// switch pointing one hop closer (priority = prefix length, so longest
// prefix wins, matching IP longest-prefix-match semantics). This is the
// "let the emulated hosts ping each other to populate the flow tables
// with shortest-path forwarding rules" setup of §6.1.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "controller/controller.hpp"

namespace veridp {
namespace routing {

/// Per-switch next-hop ports toward `dst_switch` (BFS; ties broken by
/// lower switch id then lower port). next_hop[s] is the out port at s,
/// absent for unreachable switches; dst_switch itself is not included.
std::unordered_map<SwitchId, PortId> bfs_next_hops(const Topology& topo,
                                                   SwitchId dst_switch);

/// Installs shortest-path dst-prefix rules for every attached subnet on
/// every switch. Returns the ids of all installed rules.
std::vector<RuleId> install_shortest_paths(Controller& c);

/// Fully reactive emulation: per-flow rules exactly like Floodlight's
/// forwarding module installs them — one rule per (src subnet, dst
/// subnet) pair at each switch on that pair's shortest path, matching
/// (in_port, src, dst). A packet that deviates from its installed chain
/// misses at the next switch (wrong in_port or off-path) and drops,
/// which is why the paper's Table-3 localization succeeds so often:
/// the real path is "prefix + one wrong hop + drop".
std::vector<RuleId> install_per_flow_paths(Controller& c);

}  // namespace routing
}  // namespace veridp
