#include "topo/topology.hpp"

#include <algorithm>
#include <cassert>

namespace veridp {

SwitchId Topology::add_switch(std::string name, PortId num_ports) {
  assert(num_ports >= 1);
  const SwitchId id = static_cast<SwitchId>(ports_.size());
  ports_.push_back(num_ports);
  first_slot_.push_back(peers_.size());
  peers_.resize(peers_.size() + num_ports);
  by_name_.emplace(name, id);
  names_.push_back(std::move(name));
  return id;
}

void Topology::add_link(PortKey a, PortKey b) {
  assert(valid_port(a) && valid_port(b));
  assert(!peers_[slot(a)].valid() && !peers_[slot(b)].valid());
  peers_[slot(a)] = b;
  peers_[slot(b)] = a;
}

void Topology::add_middlebox(PortKey p) {
  assert(valid_port(p));
  assert(!peers_[slot(p)].valid());
  peers_[slot(p)] = p;
}

std::size_t Topology::num_links() const {
  std::size_t ends = 0;
  for (const PortKey& q : peers_) ends += q.valid() ? 1 : 0;
  return ends / 2;
}

std::vector<PortKey> Topology::edge_ports() const {
  std::vector<PortKey> out;
  for (SwitchId s = 0; s < ports_.size(); ++s)
    for (PortId x = 1; x <= ports_[s]; ++x)
      if (PortKey pk{s, x}; is_edge_port(pk)) out.push_back(pk);
  return out;
}

void Topology::attach_subnet(PortKey p, const Prefix& prefix) {
  assert(is_edge_port(p));
  subnet_by_port_.emplace(p, prefix);
  subnets_.emplace_back(p, prefix);
}

std::optional<Prefix> Topology::subnet(PortKey p) const {
  if (auto it = subnet_by_port_.find(p); it != subnet_by_port_.end())
    return it->second;
  return std::nullopt;
}

std::optional<PortKey> Topology::edge_port_for(Ipv4 ip) const {
  const std::pair<PortKey, Prefix>* best = nullptr;
  for (const auto& entry : subnets_) {
    if (!entry.second.contains(ip)) continue;
    if (!best || entry.second.len > best->second.len) best = &entry;
  }
  if (!best) return std::nullopt;
  return best->first;
}

SwitchId Topology::find(const std::string& name) const {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  return kNoSwitch;
}

std::vector<std::pair<PortId, PortKey>> Topology::neighbors(SwitchId s) const {
  std::vector<std::pair<PortId, PortKey>> out;
  for (PortId x = 1; x <= ports_[static_cast<std::size_t>(s)]; ++x)
    if (auto q = peer(PortKey{s, x})) out.emplace_back(x, *q);
  return out;
}

}  // namespace veridp
