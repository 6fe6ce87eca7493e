#include "flow/transfer.hpp"

#include <cassert>

namespace veridp {

TransferFunction::TransferFunction(const HeaderSpace& space, PortId n,
                                   bool port_sensitive)
    : space_(&space),
      plane_(port_sensitive ? n : 1),
      in_acl_(n, space.all()),
      out_acl_(n, space.all()) {
  for (Plane& p : plane_) {
    p.fwd.assign(n, space.none());
    p.atoms.assign(n, {});
    p.fwd_drop = space.none();
    p.dropped_by_out_acl = space.none();
  }
}

TransferFunction TransferFunction::compute(const HeaderSpace& space,
                                           const SwitchConfig& config,
                                           PortId n) {
  const bool port_sensitive = config.table.has_in_port_rules();
  TransferFunction tf(space, n, port_sensitive);

  for (PortId p = 1; p <= n; ++p) {
    if (const Acl& a = config.in_acl(p); !a.trivially_permits_all())
      tf.in_acl_[p - 1] = a.permitted(space);
    if (const Acl& a = config.out_acl(p); !a.trivially_permits_all())
      tf.out_acl_[p - 1] = a.permitted(space);
  }

  // Shadow subtraction per plane: walk rules in descending priority,
  // giving each rule only the headers not claimed by a higher-priority
  // rule applicable at the same input port.
  const std::size_t planes = tf.plane_.size();
  for (std::size_t pi = 0; pi < planes; ++pi) {
    Plane& pl = tf.plane_[pi];
    const PortId x = port_sensitive ? static_cast<PortId>(pi + 1) : kAnyInPort;
    HeaderSet covered = space.none();
    for (const FlowRule& r : config.table.rules()) {
      if (port_sensitive && !r.match.applies_at(x)) continue;
      HeaderSet eff = r.match.to_header_set(space) - covered;
      if (eff.empty()) continue;
      covered |= eff;
      if (r.action.is_drop()) {
        pl.fwd_drop |= eff;
      } else {
        assert(r.action.out >= 1 && r.action.out <= n);
        pl.fwd[r.action.out - 1] |= eff;
        // Forwarding classes per rewrite: merge into an existing atom
        // with the identical set-field list, else start a new one.
        auto& atoms = pl.atoms[r.action.out - 1];
        bool merged = false;
        for (FwdAtom& a : atoms)
          if (a.rewrite == r.action.rewrite) {
            a.headers |= eff;
            merged = true;
            break;
          }
        if (!merged) atoms.push_back(FwdAtom{eff, r.action.rewrite});
      }
    }
    // Table miss also drops: P^fwd_⊥ = ¬(∨_y P^fwd_y).
    pl.fwd_drop |= ~covered;
    for (PortId y = 1; y <= n; ++y)
      pl.dropped_by_out_acl |= pl.fwd[y - 1] - tf.out_acl_[y - 1];
  }
  return tf;
}

HeaderSet TransferFunction::transfer(PortId x, PortId y) const {
  assert(x >= 1 && x <= num_ports());
  const HeaderSet& in = in_acl_[x - 1];
  const Plane& pl = plane(x);
  if (y == kDropPort) {
    // Three drop causes: in-ACL filter, no forwarding port, out-ACL filter.
    return ~in | (in & pl.fwd_drop) | (in & pl.dropped_by_out_acl);
  }
  assert(y >= 1 && y <= num_ports());
  return in & pl.fwd[y - 1] & out_acl_[y - 1];
}

std::vector<FwdAtom> TransferFunction::transfer_atoms(PortId x,
                                                      PortId y) const {
  assert(x >= 1 && x <= num_ports());
  assert(y >= 1 && y <= num_ports());
  const HeaderSet gate = in_acl_[x - 1] & out_acl_[y - 1];
  std::vector<FwdAtom> out;
  for (const FwdAtom& a : plane(x).atoms[y - 1]) {
    HeaderSet h = a.headers & gate;
    if (!h.empty()) out.push_back(FwdAtom{std::move(h), a.rewrite});
  }
  return out;
}

const HeaderSet& TransferFunction::fwd(PortId x, PortId y) const {
  assert(y >= 1 && y <= num_ports());
  return plane(x).fwd[y - 1];
}

const HeaderSet& TransferFunction::fwd_drop(PortId x) const {
  return plane(x).fwd_drop;
}

const HeaderSet& TransferFunction::in_acl(PortId x) const {
  assert(x >= 1 && x <= num_ports());
  return in_acl_[x - 1];
}

const HeaderSet& TransferFunction::out_acl(PortId y) const {
  assert(y >= 1 && y <= num_ports());
  return out_acl_[y - 1];
}

}  // namespace veridp
