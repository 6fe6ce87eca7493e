#include "dataplane/switch.hpp"

namespace veridp {

// veridp-lint: hot-path

PortId Switch::forward(PacketHeader& h, PortId x) const {
  if (!config_.in_acl(x).permits(h)) return kDropPort;
  const FlowRule* rule = config_.table.lookup(h, x);
  if (!rule || rule->action.is_drop()) return kDropPort;
  const PortId y = rule->action.out;
  if (!config_.out_acl(y).permits(h)) return kDropPort;
  rule->action.rewrite.apply(h);  // set-field at egress
  return y;
}

}  // namespace veridp
