#include "flow/walk.hpp"

namespace veridp {

std::vector<Hop> logical_walk(const Topology& topo,
                              const std::vector<SwitchConfig>& configs,
                              PortKey entry, const PacketHeader& header,
                              int max_hops) {
  std::vector<Hop> path;
  PacketHeader h = header;  // rewrites mutate the in-flight copy
  PortKey cur = entry;
  for (int i = 0; i < max_hops; ++i) {
    const PortId y =
        configs[static_cast<std::size_t>(cur.sw)].forward(h, cur.port);
    path.push_back(Hop{cur.port, cur.sw, y});
    if (y == kDropPort) return path;
    const PortKey out{cur.sw, y};
    if (topo.is_edge_port(out)) return path;
    auto next = topo.peer(out);
    if (!next) return path;
    cur = *next;
  }
  return path;
}

}  // namespace veridp
