// Small synthetic topologies: a linear chain for unit tests, the paper's
// Figure-5 toy network (used to reproduce Table 1) and the Figure-7 grid
// (used by the fault-localization tests).
#include <cassert>

#include "common/str_cat.hpp"
#include "topo/generators.hpp"

namespace veridp {

Topology linear(int n) {
  assert(n >= 1);
  Topology t;
  std::vector<SwitchId> sw;
  for (int i = 0; i < n; ++i)
    sw.push_back(t.add_switch(str_cat("s", std::to_string(i + 1)), 3));
  for (int i = 0; i + 1 < n; ++i)
    t.add_link(PortKey{sw[static_cast<std::size_t>(i)], 2},
               PortKey{sw[static_cast<std::size_t>(i + 1)], 1});
  for (int i = 0; i < n; ++i)
    t.attach_subnet(PortKey{sw[static_cast<std::size_t>(i)], 3},
                    Prefix{Ipv4::of(10, 0, static_cast<std::uint8_t>(i), 0),
                           24});
  return t;
}

Topology toy_figure5() {
  Topology t;
  // Port wiring (matching the paper's Figure 5 and Table 1):
  //   S1: 1 = H1 edge, 2 = H2 edge, 3 -> S2.1, 4 -> S3.3
  //   S2: 1 <- S1.3, 2 -> S3.1, 3 = middlebox (pass-through)
  //   S3: 1 <- S2.2, 2 = H3 edge, 3 <- S1.4
  const SwitchId s1 = t.add_switch("S1", 4);
  const SwitchId s2 = t.add_switch("S2", 3);
  const SwitchId s3 = t.add_switch("S3", 3);
  t.add_link(PortKey{s1, 3}, PortKey{s2, 1});
  t.add_link(PortKey{s1, 4}, PortKey{s3, 3});
  t.add_link(PortKey{s2, 2}, PortKey{s3, 1});
  t.add_middlebox(PortKey{s2, 3});
  t.attach_subnet(PortKey{s1, 1}, Prefix{Ipv4::of(10, 0, 1, 1), 32});  // H1
  t.attach_subnet(PortKey{s1, 2}, Prefix{Ipv4::of(10, 0, 1, 2), 32});  // H2
  t.attach_subnet(PortKey{s3, 2}, Prefix{Ipv4::of(10, 0, 2, 1), 32});  // H3
  return t;
}

Topology grid_figure7() {
  Topology t;
  // Six 4-port switches wired as in Figure 7. The controller's path is
  // S1 -> S2 -> S4; the faulty data plane sends packets S1 -> S3 -> S6.
  const SwitchId s1 = t.add_switch("S1", 4);
  const SwitchId s2 = t.add_switch("S2", 4);
  const SwitchId s3 = t.add_switch("S3", 4);
  const SwitchId s4 = t.add_switch("S4", 4);
  const SwitchId s5 = t.add_switch("S5", 4);
  const SwitchId s6 = t.add_switch("S6", 4);
  t.add_link(PortKey{s1, 2}, PortKey{s2, 1});  // S1 -> S2
  t.add_link(PortKey{s1, 4}, PortKey{s3, 1});  // S1 -> S3
  t.add_link(PortKey{s2, 2}, PortKey{s4, 1});  // S2 -> S4
  t.add_link(PortKey{s2, 3}, PortKey{s5, 1});  // S2 -> S5
  t.add_link(PortKey{s3, 3}, PortKey{s6, 1});  // S3 -> S6
  t.add_link(PortKey{s5, 3}, PortKey{s6, 2});  // S5 -> S6
  t.add_link(PortKey{s3, 2}, PortKey{s4, 4});  // S3 -> S4 (unused backup)
  t.attach_subnet(PortKey{s1, 1}, Prefix{Ipv4::of(10, 0, 1, 1), 32});  // Src
  t.attach_subnet(PortKey{s4, 3}, Prefix{Ipv4::of(10, 0, 2, 1), 32});  // Dst
  t.attach_subnet(PortKey{s6, 3}, Prefix{Ipv4::of(10, 0, 3, 0), 24});
  return t;
}

}  // namespace veridp
