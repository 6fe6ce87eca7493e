#include "controller/routing.hpp"

#include <deque>

namespace veridp {
namespace routing {

std::unordered_map<SwitchId, PortId> bfs_next_hops(const Topology& topo,
                                                   SwitchId dst_switch) {
  // BFS outward from the destination; when we first reach a switch, the
  // link we arrived over (in reverse) is its next hop toward dst.
  std::unordered_map<SwitchId, PortId> next_hop;
  std::vector<char> visited(topo.num_switches(), 0);
  visited[dst_switch] = 1;
  std::deque<SwitchId> queue{dst_switch};
  while (!queue.empty()) {
    const SwitchId cur = queue.front();
    queue.pop_front();
    // Deterministic order: neighbors() iterates ports ascending.
    for (const auto& [port, remote] : topo.neighbors(cur)) {
      (void)port;
      if (remote.sw == cur) continue;  // middlebox self-link
      if (visited[remote.sw]) continue;
      visited[remote.sw] = 1;
      next_hop[remote.sw] = remote.port;  // the port at `remote` toward cur
      queue.push_back(remote.sw);
    }
  }
  return next_hop;
}

std::vector<RuleId> install_shortest_paths(Controller& c) {
  const Topology& topo = c.topology();
  std::vector<RuleId> ids;
  for (const auto& [edge, prefix] : topo.subnets()) {
    const auto next = bfs_next_hops(topo, edge.sw);
    const Match match = Match::dst_prefix(prefix);
    const std::int32_t prio = prefix.len;
    // Delivery rule at the owning switch.
    ids.push_back(c.add_rule(edge.sw, prio, match, Action::output(edge.port)));
    // Transit rules everywhere else that can reach it.
    for (SwitchId s = 0; s < topo.num_switches(); ++s) {
      if (s == edge.sw) continue;
      auto it = next.find(s);
      if (it == next.end()) continue;
      ids.push_back(c.add_rule(s, prio, match, Action::output(it->second)));
    }
  }
  return ids;
}

std::vector<RuleId> install_per_flow_paths(Controller& c) {
  const Topology& topo = c.topology();
  std::vector<RuleId> ids;
  for (const auto& [src_pk, src_subnet] : topo.subnets()) {
    for (const auto& [dst_pk, dst_subnet] : topo.subnets()) {
      if (src_pk == dst_pk) continue;
      const auto next = bfs_next_hops(topo, dst_pk.sw);
      Match m;
      m.src = src_subnet;
      m.dst = dst_subnet;
      const std::int32_t prio = src_subnet.len + dst_subnet.len;
      // Walk the tree path from the source switch, pinning each rule to
      // the in_port the flow arrives on.
      PortKey in = src_pk;
      for (std::size_t guard = 0; guard < topo.num_switches() + 1; ++guard) {
        Match pinned = m;
        pinned.in_port = in.port;
        if (in.sw == dst_pk.sw) {
          ids.push_back(
              c.add_rule(in.sw, prio, pinned, Action::output(dst_pk.port)));
          break;
        }
        const PortId out = next.at(in.sw);
        ids.push_back(c.add_rule(in.sw, prio, pinned, Action::output(out)));
        in = *topo.peer(PortKey{in.sw, out});
      }
    }
  }
  return ids;
}

}  // namespace routing
}  // namespace veridp
