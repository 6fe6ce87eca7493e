// Incremental path-table maintenance (§4.4).
//
// Recomputing the whole path table on every rule update cannot keep up
// with SDN update rates; the paper updates incrementally in two phases:
// port-predicate update (the RuleTree) and path-entry update. We realize
// the path-entry phase with a *flow forest*: the memoized recursion tree
// of Algorithm 2, one tree per entry port. A FlowNode records a header
// set arriving at a switch; its children are the per-output-port
// continuations, and terminal branches own path-table entries.
//
// When rule R with match-delta Δ is added at switch S (moving Δ from the
// parent rule's port `from` to R's port `to`):
//
//   for every flow node ν at S with h' = ν.h ∧ Δ ≠ ∅:
//     subtract h' from ν's `from`-branch subtree (shrinking/deleting the
//       path entries it owns — the paper's "subtract Δ from each path
//       through port y"), and
//     re-traverse h' out of port `to` (extending/creating entries — the
//       paper's "continue the recursive search from S").
//
// Deletion is the same operation with `from`/`to` swapped. Only branches
// whose headers intersect Δ are touched, giving the Figure-14 per-rule
// update times. As in the paper, this machinery handles dst-prefix
// forwarding rules at priority == prefix length (no ACLs, no rewrites);
// Server falls back to full rebuilds, for good, on a configuration or
// rule event outside that fragment.
#pragma once

#include <map>
#include <memory>
#include <unordered_set>

#include "controller/controller.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/rule_tree.hpp"

namespace veridp {

/// TransferProvider view over per-switch RuleTrees: transfer(s, x, y)
/// ignores x (no ACLs in the §4.4 fragment) and returns the maintained
/// port predicate P_y (or the drop predicate).
class RuleTreeProvider : public TransferProvider {
 public:
  explicit RuleTreeProvider(const std::vector<std::unique_ptr<RuleTree>>& t)
      : trees_(&t) {}
  [[nodiscard]] HeaderSet transfer(SwitchId s, PortId /*x*/,
                                   PortId y) const override {
    const RuleTree& tree = *(*trees_)[static_cast<std::size_t>(s)];
    return y == kDropPort ? tree.drop_predicate() : tree.port_predicate(y);
  }

 private:
  const std::vector<std::unique_ptr<RuleTree>>* trees_;
};

class IncrementalUpdater {
 public:
  IncrementalUpdater(const HeaderSpace& space, const Topology& topo,
                     int tag_bits = BloomTag::kDefaultBits);
  ~IncrementalUpdater();

  IncrementalUpdater(const IncrementalUpdater&) = delete;
  IncrementalUpdater& operator=(const IncrementalUpdater&) = delete;

  /// Seeds the rule trees and builds the initial flow forest + path
  /// table. Every rule must be a dst-prefix rule (Match::is_dst_prefix_
  /// only) — the §4.4 fragment.
  void initialize(const std::vector<SwitchConfig>& logical);

  struct UpdateStats {
    std::size_t nodes_touched = 0;   ///< flow nodes whose headers met Δ
    std::size_t inports_touched = 0; ///< distinct entry ports affected
  };

  /// Applies one rule add/delete incrementally.
  UpdateStats apply(const RuleEvent& ev);

  /// Applies a queued event sequence in order, summing the stats. The
  /// Server's lazy refresh applies every event this way: the events
  /// since its last refresh (or, after a wedged publisher recovers, the
  /// whole backlog) as one batch.
  UpdateStats apply_batch(const std::vector<RuleEvent>& events);

  [[nodiscard]] const PathTable& table() const { return table_; }
  [[nodiscard]] const RuleTree& tree(SwitchId s) const {
    return *trees_[static_cast<std::size_t>(s)];
  }

  /// Debug/property check: rebuilds the path table from scratch with the
  /// current rule trees and compares. O(full build) — test use only.
  [[nodiscard]] bool consistent_with_rebuild() const;

  /// Total flow nodes alive (memory/telemetry).
  [[nodiscard]] std::size_t num_flow_nodes() const { return num_nodes_; }

 private:
  struct FlowNode;
  using ChildMap = std::map<PortId, std::unique_ptr<FlowNode>>;

  // -- forest operations (see .cc) ------------------------------------------
  void propagate(FlowNode& node, const HeaderSet& h_add);
  void handle_out(FlowNode& node, PortId y, const HeaderSet& h2);
  void subtract_subtree(FlowNode& node, const HeaderSet& h_sub);
  void erase_subtree(FlowNode& node);
  bool would_loop(const FlowNode& node, PortKey next) const;
  std::vector<Hop> chain_path(const FlowNode& node) const;
  UpdateStats redirect(SwitchId s, const HeaderSet& delta, PortId from,
                       PortId to);
  /// Narrows the terminal entry (node, y) by h_sub; whether it survives.
  bool subtract_entry(const FlowNode& node, PortId y, const HeaderSet& h_sub);

  const HeaderSpace* space_;
  const Topology* topo_;
  int tag_bits_;
  std::vector<std::unique_ptr<RuleTree>> trees_;
  PathTable table_;
  std::vector<std::unique_ptr<FlowNode>> roots_;  // one per entry port
  std::vector<std::unordered_set<FlowNode*>> by_switch_;
  std::size_t num_nodes_ = 0;
};

}  // namespace veridp
