#include "dataplane/network.hpp"

#include <cassert>

namespace veridp {

// veridp-lint: hot-path

Network::Network(Topology topo, int tag_bits)
    : topo_(std::move(topo)), tag_bits_(tag_bits) {
  switches_.reserve(topo_.num_switches());
  for (SwitchId s = 0; s < topo_.num_switches(); ++s)
    switches_.emplace_back(s, topo_.num_ports(s), tag_bits);
}

ForwardResult Network::inject(const PacketHeader& h, PortKey entry, double t,
                              std::uint32_t size_bytes) {
  assert(topo_.is_edge_port(entry));
  ForwardResult result;
  result.path.reserve(kMaxPathLength);
  Packet p;
  p.header = h;
  p.size_bytes = size_bytes;

  // The in-flight header: set-field actions mutate it hop by hop, so
  // reports carry the header as seen at the reporting switch (the
  // header-rewrite extension, §8).
  PacketHeader wire = h;

  PortKey cur = entry;
  bool first_hop = true;
  // Hard cap independent of the VeriDP TTL so unsampled looping packets
  // also terminate (a real network's IP TTL would kill them).
  for (int guard = 0; guard < 4 * kMaxPathLength; ++guard) {
    Switch& sw = at(cur.sw);
    sw.count_packet();

    const PortId x = cur.port;
    const PacketHeader arrival = wire;
    const PortId y = sw.forward(wire, x);
    p.header = wire;
    result.path.push_back(Hop{x, cur.sw, y});

    const bool x_edge = topo_.is_edge_port(PortKey{cur.sw, x});
    const bool y_edge =
        y != kDropPort && topo_.is_edge_port(PortKey{cur.sw, y});
    auto report = sw.pipeline().process(p, arrival, x, y,
                                        first_hop && x_edge, y_edge, t);
    first_hop = false;
    if (x_edge && p.marker) result.sampled = true;
    if (report) result.reports.push_back(*report);

    if (y == kDropPort) {
      result.disposition = Disposition::kDropped;
      result.exit = PortKey{cur.sw, kDropPort};
      return result;
    }
    if (y_edge) {
      result.disposition = Disposition::kDelivered;
      result.exit = PortKey{cur.sw, y};
      return result;
    }
    if (p.marker && p.ttl == 0) {
      result.disposition = Disposition::kTtlExpired;
      result.exit = PortKey{cur.sw, y};
      return result;
    }
    auto next = topo_.peer(PortKey{cur.sw, y});
    assert(next.has_value());  // non-edge, non-drop ports are linked
    cur = *next;
  }
  // Guard exhausted: an unsampled packet stuck in a loop.
  result.disposition = Disposition::kTtlExpired;
  result.exit = cur;
  return result;
}

}  // namespace veridp
