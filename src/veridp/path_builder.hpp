// Path-table construction (Algorithm 2).
//
// From every edge port, an all-match header set is injected and pushed
// through the network: at each switch the set is intersected with the
// transfer predicates P_{x,y}; non-empty intersections extend the path and
// tag and continue at the link peer. Paths terminate at edge ports and at
// the drop port ⊥; a path is cut when it would visit a port twice (the
// paper's §6.1 loop removal).
//
// Transfer predicates are supplied through the TransferProvider interface:
// complete switch configs (ACLs and rewrites included) for the serving
// build, or the §4.4 rule trees (RuleTreeProvider) for the incremental
// updater's reference rebuild, consistent_with_rebuild. The updater
// itself (incremental.hpp) walks its own flow forest, not this traversal.
#pragma once

#include "flow/transfer.hpp"
#include "topo/topology.hpp"
#include "veridp/path_table.hpp"

namespace veridp {

/// Source of transfer predicates for the traversal.
class TransferProvider {
 public:
  virtual ~TransferProvider() = default;
  /// P_{x,y} at switch s; y may be kDropPort.
  [[nodiscard]] virtual HeaderSet transfer(SwitchId s, PortId x,
                                           PortId y) const = 0;
  /// P_{x,y} split into per-rewrite forwarding classes (y ≠ ⊥). The
  /// default covers rewrite-free providers: one atom, no rewrite.
  [[nodiscard]] virtual std::vector<FwdAtom> atoms(SwitchId s, PortId x,
                                                   PortId y) const {
    std::vector<FwdAtom> out;
    HeaderSet h = transfer(s, x, y);
    if (!h.empty()) out.push_back(FwdAtom{std::move(h), Rewrite{}});
    return out;
  }
};

/// TransferProvider backed by full per-switch TransferFunctions computed
/// from SwitchConfigs (flow tables + ACLs).
class ConfigTransferProvider : public TransferProvider {
 public:
  ConfigTransferProvider(const HeaderSpace& space, const Topology& topo,
                         const std::vector<SwitchConfig>& configs);
  [[nodiscard]] HeaderSet transfer(SwitchId s, PortId x,
                                   PortId y) const override;
  [[nodiscard]] std::vector<FwdAtom> atoms(SwitchId s, PortId x,
                                           PortId y) const override;
  [[nodiscard]] const TransferFunction& at(SwitchId s) const {
    return tfs_[static_cast<std::size_t>(s)];
  }

 private:
  std::vector<TransferFunction> tfs_;
};

class PathTableBuilder {
 public:
  PathTableBuilder(const HeaderSpace& space, const Topology& topo,
                   const TransferProvider& transfer,
                   int tag_bits = BloomTag::kDefaultBits)
      : space_(&space), topo_(&topo), transfer_(&transfer),
        tag_bits_(tag_bits) {}

  /// Full build: Algorithm 2 from every edge port.
  [[nodiscard]] PathTable build() const;

 private:
  struct TransferMemo;  // see .cc
  void traverse(PathTable& table, PortKey inport, TransferMemo& memo) const;

  const HeaderSpace* space_;
  const Topology* topo_;
  const TransferProvider* transfer_;
  int tag_bits_;
};

}  // namespace veridp
