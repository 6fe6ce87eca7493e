// Transfer predicates P_{x,y} (paper §4.1).
//
// A switch with ports 1..n is abstracted by predicates P_{x,y}: packets
// whose headers satisfy P_{x,y} transfer from port x to port y. They are
// composed from three per-port predicates parsed out of the switch
// configuration:
//
//   P^in_x    — in-bound ACL at port x
//   P^fwd_x,y — headers the flow table forwards from port x to port y
//               (priority-aware; depends on x only when the table has
//               OpenFlow in_port matches)
//   P^out_y   — out-bound ACL at port y
//
//   P_{x,y} = P^in_x ∧ P^fwd_{x,y} ∧ P^out_y                  (y ≠ ⊥)
//   P_{x,⊥} = ¬P^in_x ∨ (P^in_x ∧ P^fwd_{x,⊥})
//             ∨ (P^in_x ∧ ∨_y (P^fwd_{x,y} ∧ ¬P^out_y))
//   with P^fwd_{x,⊥} = ¬(∨_y P^fwd_{x,y})
//
// P^fwd is computed by shadow subtraction over the prioritized rule
// list, so overlapping rules of different priorities are resolved exactly
// as the data plane's lookup resolves them.
#pragma once

#include <vector>

#include "flow/switch_config.hpp"
#include "header/header_set.hpp"

namespace veridp {

// veridp-lint: hot-path

/// One forwarding class of a (x, y) port pair: the headers it admits
/// and the rewrite it applies on output. Rules without set-field actions
/// all share a single empty-rewrite atom.
struct FwdAtom {
  HeaderSet headers;
  Rewrite rewrite{};
};

class TransferFunction {
 public:
  /// Computes all per-port predicates for one switch with ports 1..n.
  static TransferFunction compute(const HeaderSpace& space,
                                  const SwitchConfig& config, PortId n);

  /// P_{x,y}; `y` may be kDropPort for P_{x,⊥}.
  [[nodiscard]] HeaderSet transfer(PortId x, PortId y) const;

  /// P_{x,y} split into per-rewrite forwarding classes, with the in/out
  /// ACLs already applied. Empty-headers atoms are dropped. For y ≠ ⊥.
  [[nodiscard]] std::vector<FwdAtom> transfer_atoms(PortId x,
                                                    PortId y) const;

  /// P^fwd_{x,y}: headers forwarded from port x to port y by the flow
  /// table alone.
  [[nodiscard]] const HeaderSet& fwd(PortId x, PortId y) const;
  /// P^fwd_{x,⊥} (table miss or explicit drop).
  [[nodiscard]] const HeaderSet& fwd_drop(PortId x) const;
  /// P^in_x.
  [[nodiscard]] const HeaderSet& in_acl(PortId x) const;
  /// P^out_y.
  [[nodiscard]] const HeaderSet& out_acl(PortId y) const;

  [[nodiscard]] PortId num_ports() const {
    return static_cast<PortId>(in_acl_.size());
  }

  /// True if the flow table had in_port matches (per-x predicates).
  [[nodiscard]] bool port_sensitive() const { return plane_.size() > 1; }

 private:
  TransferFunction(const HeaderSpace& space, PortId n, bool port_sensitive);

  // One forwarding "plane" per distinguishable input port (a single
  // shared plane when no rule matches on in_port).
  struct Plane {
    std::vector<HeaderSet> fwd;  // index 0 = port 1
    std::vector<std::vector<FwdAtom>> atoms;  // per out port, per rewrite
    HeaderSet fwd_drop;
    HeaderSet dropped_by_out_acl;  // ∨_y (fwd_y ∧ ¬out_acl_y)
  };

  [[nodiscard]] const Plane& plane(PortId x) const {
    return plane_.size() == 1 ? plane_[0]
                              : plane_[static_cast<std::size_t>(x - 1)];
  }

  const HeaderSpace* space_;
  std::vector<Plane> plane_;
  std::vector<HeaderSet> in_acl_;   // index 0 = port 1
  std::vector<HeaderSet> out_acl_;  // index 0 = port 1
};

}  // namespace veridp
