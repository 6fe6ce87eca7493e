#include "dataplane/fault.hpp"

#include "common/str_cat.hpp"

namespace veridp {

std::string FaultRecord::describe() const {
  const std::string r = std::to_string(rule);
  const std::string s = std::to_string(sw);
  switch (kind) {
    case FaultKind::kDropRule:
      return str_cat("rule ", r, " dropped at S", s);
    case FaultKind::kRewriteOutput:
      return str_cat("rule ", r, " at S", s, " rewired to port ",
                     std::to_string(new_port));
    case FaultKind::kReplaceWithDrop:
      return str_cat("rule ", r, " at S", s, " replaced with drop");
    case FaultKind::kExternalRule:
      return str_cat("external rule ", r, " inserted at S", s);
    case FaultKind::kIgnorePriority:
      return str_cat("S", s, " ignores rule priorities");
    case FaultKind::kRemoveAclEntry:
      return str_cat("ACL entry removed at S", s);
    case FaultKind::kReportDrop:
      return str_cat("report seq ", r, " from S", s, " dropped in channel");
    case FaultKind::kReportDuplicate:
      return str_cat("report seq ", r, " from S", s, " duplicated in channel");
    case FaultKind::kReportReorder:
      return str_cat("report seq ", r, " from S", s, " reordered in channel");
    case FaultKind::kReportDelay:
      return str_cat("report seq ", r, " from S", s, " delayed in channel");
    case FaultKind::kReportCorrupt:
      return str_cat("report seq ", r, " from S", s, " corrupted in channel");
  }
  return "unknown fault";
}

bool FaultInjector::drop_rule(SwitchId sw, RuleId id) {
  if (!net_->at(sw).config().table.remove(id)) return false;
  history_.push_back({FaultKind::kDropRule, sw, id, kDropPort});
  return true;
}

bool FaultInjector::rewrite_rule_output(SwitchId sw, RuleId id,
                                        PortId new_port) {
  if (!net_->at(sw).config().table.set_action(id, Action::output(new_port)))
    return false;
  history_.push_back({FaultKind::kRewriteOutput, sw, id, new_port});
  return true;
}

bool FaultInjector::replace_with_drop(SwitchId sw, RuleId id) {
  if (!net_->at(sw).config().table.set_action(id, Action::drop()))
    return false;
  history_.push_back({FaultKind::kReplaceWithDrop, sw, id, kDropPort});
  return true;
}

void FaultInjector::insert_external_rule(SwitchId sw, const FlowRule& rule) {
  net_->at(sw).config().table.add(rule);
  history_.push_back({FaultKind::kExternalRule, sw, rule.id, rule.action.out});
}

void FaultInjector::ignore_priority(SwitchId sw, bool on) {
  net_->at(sw).config().table.ignore_priority(on);
  history_.push_back({FaultKind::kIgnorePriority, sw, kNoRule, kDropPort});
}

bool FaultInjector::remove_acl_entry(SwitchId sw, PortId port, bool inbound,
                                     std::size_t index) {
  auto& acls = inbound ? net_->at(sw).config().in_acls
                       : net_->at(sw).config().out_acls;
  auto it = acls.find(port);
  if (it == acls.end() || index >= it->second.entries().size()) return false;
  it->second.remove_entry(index);
  history_.push_back({FaultKind::kRemoveAclEntry, sw, kNoRule, port});
  return true;
}

}  // namespace veridp
