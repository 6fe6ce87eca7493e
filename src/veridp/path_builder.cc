#include "veridp/path_builder.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "bloom/bloom.hpp"

namespace veridp {

ConfigTransferProvider::ConfigTransferProvider(
    const HeaderSpace& space, const Topology& topo,
    const std::vector<SwitchConfig>& configs) {
  assert(configs.size() == topo.num_switches());
  tfs_.reserve(configs.size());
  for (SwitchId s = 0; s < configs.size(); ++s)
    tfs_.push_back(TransferFunction::compute(
        space, configs[static_cast<std::size_t>(s)], topo.num_ports(s)));
}

HeaderSet ConfigTransferProvider::transfer(SwitchId s, PortId x,
                                           PortId y) const {
  return tfs_[static_cast<std::size_t>(s)].transfer(x, y);
}

std::vector<FwdAtom> ConfigTransferProvider::atoms(SwitchId s, PortId x,
                                                   PortId y) const {
  return tfs_[static_cast<std::size_t>(s)].transfer_atoms(x, y);
}

// Memo of provider predicates shared across one build() call (never kept across calls: the provider's rules may change in
// between). The traversal visits the same (switch, arrival-port) pair from
// many entry ports, and each visit re-derives the identical drop
// predicate and forwarding atoms — each a fresh chain of BDD ANDs inside
// the provider. Exact nested-map keying (no packed-key collisions);
// element references are stable under unordered_map growth.
struct PathTableBuilder::TransferMemo {
  explicit TransferMemo(const TransferProvider* p) : provider(p) {}

  const TransferProvider* provider;

  static std::uint64_t key(SwitchId s, PortId x) {
    return (static_cast<std::uint64_t>(s) << 32) | x;
  }

  const HeaderSet& drop_at(SwitchId s, PortId x) {
    auto [it, inserted] = drop_.try_emplace(key(s, x));
    if (inserted) it->second = provider->transfer(s, x, kDropPort);
    return it->second;
  }

  const std::vector<FwdAtom>& atoms_at(SwitchId s, PortId x, PortId y) {
    auto [it, inserted] = atoms_[key(s, x)].try_emplace(y);
    if (inserted) it->second = provider->atoms(s, x, y);
    return it->second;
  }

  std::unordered_map<std::uint64_t, HeaderSet> drop_;
  std::unordered_map<std::uint64_t,
                     std::unordered_map<PortId, std::vector<FwdAtom>>>
      atoms_;
};

// Recursive traversal state: we use an explicit stack to avoid deep
// recursion on long paths, but path lengths are bounded by the loop
// cut-off so plain recursion via a helper lambda is fine and clearer.
void PathTableBuilder::traverse(PathTable& table, PortKey inport,
                                TransferMemo& memo) const {
  struct Walker {
    const PathTableBuilder& b;
    PathTable& table;
    PortKey inport;
    TransferMemo& memo;
    std::vector<Hop> path;
    std::vector<PortKey> visited;  // arrival ports on the current path

    void step(PortKey at, const HeaderSet& h, const BloomTag& tag) {
      const SwitchId s = at.sw;
      const PortId x = at.port;

      const PortId n = b.topo_->num_ports(s);

      // Drop branch (no rewrites can matter for ⊥).
      {
        HeaderSet hd = h & memo.drop_at(s, x);
        if (!hd.empty()) {
          const Hop hop{x, s, kDropPort};
          BloomTag tag2 = tag;
          tag2.insert(hop);
          path.push_back(hop);
          table.add_path(inport, PortKey{s, kDropPort}, hd, path, tag2);
          path.pop_back();
        }
      }

      for (PortId out = 1; out <= n; ++out) {
        const Hop hop{x, s, out};
        // tag | BF(x||s||out): hashed once per port, and only if an atom
        // takes the port.
        std::optional<BloomTag> tag2;
        for (const FwdAtom& atom : memo.atoms_at(s, x, out)) {
          HeaderSet h2 = h & atom.headers;
          if (h2.empty()) continue;
          // Header-rewrite extension (§8): continue with the image.
          if (!atom.rewrite.empty()) h2 = atom.rewrite.apply_to_set(h2);

          if (!tag2) {
            tag2 = tag;
            tag2->insert(hop);
          }
          path.push_back(hop);

          if (b.topo_->is_edge_port(PortKey{s, out})) {
            table.add_path(inport, PortKey{s, out}, h2, path, *tag2);
          } else {
            const auto next = b.topo_->peer(PortKey{s, out});
            assert(next.has_value());
            // Loop cut-off (§6.1): stop if this arrival port was already
            // visited on the current path.
            if (std::find(visited.begin(), visited.end(), *next) ==
                visited.end()) {
              visited.push_back(*next);
              step(*next, h2, *tag2);
              visited.pop_back();
            }
          }
          path.pop_back();
        }
      }
    }
  };

  Walker w{*this, table, inport, memo, {}, {inport}};
  w.step(inport, space_->all(), BloomTag(tag_bits_));
}

PathTable PathTableBuilder::build() const {
  PathTable table;
  TransferMemo memo(transfer_);
  for (const PortKey& inport : topo_->edge_ports())
    traverse(table, inport, memo);
  return table;
}

}  // namespace veridp
