// The configuration state of one switch: a prioritized flow table plus
// optional per-port in-bound / out-bound ACLs.
//
// The same type serves two roles, mirroring the paper's R vs R' stages:
// the controller keeps a *logical* SwitchConfig per switch (R), and each
// data-plane switch holds its *physical* SwitchConfig (R'). Control-data
// plane inconsistency is precisely a divergence between the two.
#pragma once

#include <unordered_map>

#include "common/types.hpp"
#include "flow/acl.hpp"
#include "flow/flow_table.hpp"

namespace veridp {

struct SwitchConfig {
  FlowTable table;
  std::unordered_map<PortId, Acl> in_acls;
  std::unordered_map<PortId, Acl> out_acls;

  /// The in-bound ACL at port x (a default permit-all if unset).
  [[nodiscard]] const Acl& in_acl(PortId x) const {
    static const Acl kPermitAll;
    auto it = in_acls.find(x);
    return it == in_acls.end() ? kPermitAll : it->second;
  }

  /// The out-bound ACL at port y.
  [[nodiscard]] const Acl& out_acl(PortId y) const {
    static const Acl kPermitAll;
    auto it = out_acls.find(y);
    return it == out_acls.end() ? kPermitAll : it->second;
  }

  /// The forwarding decision for a packet received on local port `x`:
  /// the in-bound ACL, the flow table, the out-bound ACL (on the
  /// pre-rewrite header — rewrites happen at egress), then any set-field
  /// actions, which mutate `h`. Returns the output port, or kDropPort.
  /// The data plane (Switch) and the logical walk both run this rule.
  [[nodiscard]] PortId forward(PacketHeader& h, PortId x) const {
    if (!in_acl(x).permits(h)) return kDropPort;
    const FlowRule* rule = table.lookup(h, x);
    if (!rule || rule->action.is_drop()) return kDropPort;
    const PortId y = rule->action.out;
    if (!out_acl(y).permits(h)) return kDropPort;
    rule->action.rewrite.apply(h);  // set-field at egress
    return y;
  }
};

}  // namespace veridp
