#include "veridp/incremental.hpp"

#include <algorithm>
#include <cassert>

namespace veridp {

// One node of the flow forest: the headers `h` that arrive at switch `s`
// via local port `x`, having entered the network at `inport` and
// accumulated `tag` so far (tag of the chain up to but excluding this
// switch's outgoing hop). `children` are continuations into neighboring
// switches, keyed by this switch's output port; `terminals` marks output
// ports whose branch ends here (edge port or ⊥) and therefore owns a
// path-table entry.
struct IncrementalUpdater::FlowNode {
  PortKey inport;
  SwitchId s = kNoSwitch;
  PortId x = 0;
  HeaderSet h;
  BloomTag tag{BloomTag::kDefaultBits};
  FlowNode* parent = nullptr;
  ChildMap children;
  std::unordered_set<PortId> terminals;
};

IncrementalUpdater::IncrementalUpdater(const HeaderSpace& space,
                                       const Topology& topo, int tag_bits)
    : space_(&space),
      topo_(&topo),
      tag_bits_(tag_bits),
      by_switch_(topo.num_switches()) {
  trees_.reserve(topo.num_switches());
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    trees_.push_back(std::make_unique<RuleTree>(space, topo.num_ports(s)));
}

IncrementalUpdater::~IncrementalUpdater() = default;

std::vector<Hop> IncrementalUpdater::chain_path(const FlowNode& node) const {
  // Hops of the chain root..node's *arrival*; the final hop (node's
  // output) is appended by callers that know the output port.
  std::vector<const FlowNode*> chain;
  for (const FlowNode* n = &node; n; n = n->parent) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  std::vector<Hop> path;
  path.reserve(chain.size());
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    // chain[i]'s output port is the key under which chain[i+1] is stored.
    const FlowNode* cur = chain[i];
    const FlowNode* nxt = chain[i + 1];
    PortId out = 0;
    for (const auto& [y, child] : cur->children)
      if (child.get() == nxt) {
        out = y;
        break;
      }
    path.push_back(Hop{cur->x, cur->s, out});
  }
  return path;
}

bool IncrementalUpdater::would_loop(const FlowNode& node,
                                    PortKey next) const {
  for (const FlowNode* n = &node; n; n = n->parent)
    if (PortKey{n->s, n->x} == next) return true;
  return false;
}

bool IncrementalUpdater::subtract_entry(const FlowNode& node, PortId y,
                                        const HeaderSet& h_sub) {
  const PortKey outport{node.s, y};
  std::vector<Hop> path = chain_path(node);
  path.push_back(Hop{node.x, node.s, y});
  assert(table_.lookup(node.inport, outport) &&
         "terminal marker without a path entry");
  return table_.subtract_headers(node.inport, outport, path, h_sub);
}

void IncrementalUpdater::handle_out(FlowNode& node, PortId y,
                                    const HeaderSet& h2) {
  if (h2.empty()) return;
  const bool is_drop = (y == kDropPort);
  const PortKey out{node.s, y};
  const bool is_edge = !is_drop && topo_->is_edge_port(out);

  const Hop hop{node.x, node.s, y};
  BloomTag tag2 = node.tag;
  tag2.insert(hop);

  if (is_drop || is_edge) {
    std::vector<Hop> path = chain_path(node);
    path.push_back(hop);
    table_.add_path(node.inport, out, h2, std::move(path), tag2);
    node.terminals.insert(y);
    return;
  }

  const auto next = topo_->peer(out);
  assert(next.has_value());
  if (would_loop(node, *next)) return;  // §6.1 loop cut-off

  auto it = node.children.find(y);
  if (it != node.children.end()) {
    FlowNode& child = *it->second;
    child.h |= h2;
    propagate(child, h2);
    return;
  }
  auto child = std::make_unique<FlowNode>();
  child->inport = node.inport;
  child->s = next->sw;
  child->x = next->port;
  child->h = h2;
  child->tag = tag2;
  child->parent = &node;
  FlowNode* raw = child.get();
  node.children.emplace(y, std::move(child));
  by_switch_[static_cast<std::size_t>(raw->s)].insert(raw);
  ++num_nodes_;
  propagate(*raw, h2);
}

void IncrementalUpdater::propagate(FlowNode& node, const HeaderSet& h_add) {
  const RuleTree& tree = *trees_[static_cast<std::size_t>(node.s)];
  const PortId n = topo_->num_ports(node.s);
  for (PortId yi = 1; yi <= n + 1; ++yi) {
    const PortId y = (yi == n + 1) ? kDropPort : yi;
    const HeaderSet pred =
        y == kDropPort ? tree.drop_predicate() : tree.port_predicate(y);
    handle_out(node, y, h_add & pred);
  }
}

void IncrementalUpdater::erase_subtree(FlowNode& node) {
  for (PortId y : node.terminals) {
    const PortKey outport{node.s, y};
    std::vector<Hop> path = chain_path(node);
    path.push_back(Hop{node.x, node.s, y});
    table_.remove_path(node.inport, outport, path);
  }
  node.terminals.clear();
  for (auto& [y, child] : node.children) {
    (void)y;
    erase_subtree(*child);
    by_switch_[static_cast<std::size_t>(child->s)].erase(child.get());
    --num_nodes_;
  }
  node.children.clear();
}

void IncrementalUpdater::subtract_subtree(FlowNode& node,
                                          const HeaderSet& h_sub) {
  const HeaderSet hh = node.h & h_sub;
  if (hh.empty()) return;
  node.h -= hh;

  // Shrink terminal entries first (they reference the pre-erase chain).
  // A terminal survives iff its entry does.
  for (auto it = node.terminals.begin(); it != node.terminals.end();)
    it = subtract_entry(node, *it, hh) ? std::next(it)
                                        : node.terminals.erase(it);

  for (auto it = node.children.begin(); it != node.children.end();) {
    FlowNode& child = *it->second;
    subtract_subtree(child, hh);
    if (child.h.empty()) {
      erase_subtree(child);
      by_switch_[static_cast<std::size_t>(child.s)].erase(&child);
      --num_nodes_;
      it = node.children.erase(it);
    } else {
      ++it;
    }
  }
}

void IncrementalUpdater::initialize(const std::vector<SwitchConfig>& logical) {
  assert(logical.size() == topo_->num_switches());
  table_.clear();
  roots_.clear();
  for (auto& set : by_switch_) set.clear();
  num_nodes_ = 0;

  // Phase 0: seed the rule trees (port predicates).
  for (SwitchId s = 0; s < logical.size(); ++s) {
    for (const FlowRule& r :
         logical[static_cast<std::size_t>(s)].table.rules()) {
      assert(r.match.is_dst_prefix_only() &&
             "IncrementalUpdater handles dst-prefix rules only (§4.4)");
      assert(r.action.rewrite.empty() &&
             "the §4.4 fragment excludes header rewrites");
      trees_[static_cast<std::size_t>(s)]->add(r.id, r.match.dst,
                                               r.action.out);
    }
  }

  // Phase 1: grow the flow forest — Algorithm 2 from every edge port.
  for (const PortKey& inport : topo_->edge_ports()) {
    auto root = std::make_unique<FlowNode>();
    root->inport = inport;
    root->s = inport.sw;
    root->x = inport.port;
    root->h = space_->all();
    root->tag = BloomTag(tag_bits_);
    FlowNode* raw = root.get();
    roots_.push_back(std::move(root));
    by_switch_[static_cast<std::size_t>(raw->s)].insert(raw);
    ++num_nodes_;
    propagate(*raw, raw->h);
  }
}

IncrementalUpdater::UpdateStats IncrementalUpdater::redirect(
    SwitchId s, const HeaderSet& delta, PortId from, PortId to) {
  UpdateStats stats;
  std::unordered_set<PortKey> inports;
  // Snapshot: redirection may create new nodes at s (paths looping back);
  // those are built against the new predicates already. A path may also
  // revisit switch s at another port, so processing one snapshot node can
  // erase a later one — check liveness against the registry first. (A
  // reused address necessarily belongs to a node created during this
  // redirect, for which the redirect is idempotent.)
  const auto& registry = by_switch_[static_cast<std::size_t>(s)];
  std::vector<FlowNode*> nodes(registry.begin(), registry.end());
  for (FlowNode* node : nodes) {
    if (!registry.contains(node)) continue;
    const HeaderSet h2 = node->h & delta;
    if (h2.empty()) continue;
    ++stats.nodes_touched;
    inports.insert(node->inport);

    // Shrink the losing branch. It may be a terminal, a child, or absent
    // (the branch was loop-cut during construction).
    if (node->terminals.contains(from)) {
      if (!subtract_entry(*node, from, h2)) node->terminals.erase(from);
    } else if (auto it = node->children.find(from);
               it != node->children.end()) {
      FlowNode& child = *it->second;
      subtract_subtree(child, h2);
      if (child.h.empty()) {
        erase_subtree(child);
        by_switch_[static_cast<std::size_t>(child.s)].erase(&child);
        --num_nodes_;
        node->children.erase(it);
      }
    }

    // Grow the gaining branch.
    handle_out(*node, to, h2);
  }
  stats.inports_touched = inports.size();
  return stats;
}

IncrementalUpdater::UpdateStats IncrementalUpdater::apply(
    const RuleEvent& ev) {
  assert(ev.rule.match.is_dst_prefix_only() &&
         "IncrementalUpdater handles dst-prefix rules only (§4.4)");
  RuleTree& tree = *trees_[static_cast<std::size_t>(ev.sw)];
  std::optional<RuleTree::Delta> delta;
  if (ev.kind == RuleEvent::Kind::kAdd)
    delta = tree.add(ev.rule.id, ev.rule.match.dst, ev.rule.action.out);
  else
    delta = tree.remove(ev.rule.id);
  if (!delta || delta->moved.empty()) return {};
  if (delta->gaining_port == delta->losing_port) return {};
  return redirect(ev.sw, delta->moved, delta->losing_port,
                  delta->gaining_port);
}

IncrementalUpdater::UpdateStats IncrementalUpdater::apply_batch(
    const std::vector<RuleEvent>& events) {
  UpdateStats total;
  for (const RuleEvent& ev : events) {
    const UpdateStats s = apply(ev);
    total.nodes_touched += s.nodes_touched;
    total.inports_touched += s.inports_touched;
  }
  return total;
}

bool IncrementalUpdater::consistent_with_rebuild() const {
  RuleTreeProvider provider(trees_);
  PathTableBuilder builder(*space_, *topo_, provider, tag_bits_);
  const PathTable rebuilt = builder.build();
  return equivalent(table_, rebuilt);
}

}  // namespace veridp
