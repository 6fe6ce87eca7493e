#include "controller/controller.hpp"

#include <cassert>

namespace veridp {

Controller::Controller(const Topology& topo)
    : topo_(&topo), configs_(topo.num_switches()) {}

RuleId Controller::add_rule(SwitchId sw, std::int32_t priority,
                            const Match& match, Action action) {
  assert(sw < configs_.size());
  const FlowRule rule{next_id_++, priority, match, action};
  configs_[static_cast<std::size_t>(sw)].table.add(rule);
  ++epoch_;
  publish({RuleEvent::Kind::kAdd, sw, rule});
  return rule.id;
}

std::optional<FlowRule> Controller::delete_rule(SwitchId sw, RuleId id) {
  assert(sw < configs_.size());
  auto removed = configs_[static_cast<std::size_t>(sw)].table.remove(id);
  if (removed) {
    ++epoch_;
    publish({RuleEvent::Kind::kDelete, sw, *removed});
  }
  return removed;
}

void Controller::set_in_acl(SwitchId sw, PortId port, Acl acl) {
  configs_[static_cast<std::size_t>(sw)].in_acls[port] = std::move(acl);
  ++epoch_;
  publish({RuleEvent::Kind::kAcl, sw, FlowRule{}, port, false});
}

void Controller::set_out_acl(SwitchId sw, PortId port, Acl acl) {
  configs_[static_cast<std::size_t>(sw)].out_acls[port] = std::move(acl);
  ++epoch_;
  publish({RuleEvent::Kind::kAcl, sw, FlowRule{}, port, true});
}

std::size_t Controller::deploy(Network& net, Channel* channel) const {
  Channel reliable;
  if (!channel) channel = &reliable;
  std::size_t installed = 0;
  for (SwitchId s = 0; s < configs_.size(); ++s) {
    SwitchConfig& phys = net.at(s).config();
    phys.table.clear();
    phys.in_acls = configs_[static_cast<std::size_t>(s)].in_acls;
    phys.out_acls = configs_[static_cast<std::size_t>(s)].out_acls;
    for (const FlowRule& r : configs_[static_cast<std::size_t>(s)].table.rules()) {
      if (auto sent = channel->transmit(s, r)) {
        phys.table.add(*sent);
        ++installed;
      }
    }
  }
  return installed;
}

std::size_t Controller::num_rules() const {
  std::size_t n = 0;
  for (const SwitchConfig& c : configs_) n += c.table.size();
  return n;
}

void Controller::publish(const RuleEvent& ev) const {
  for (const auto& l : listeners_) l.second(ev);
}

}  // namespace veridp
