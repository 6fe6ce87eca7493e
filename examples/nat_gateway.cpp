// Header rewrites — the paper's §8 future work #1, implemented.
//
// A DNAT gateway rewrites a virtual service IP to the real server. The
// path table carries header-set IMAGES (BDD existential quantification +
// re-pinning), so rewritten flows verify end to end. Two faults follow:
// a rewrite to a dead address (detected) and a rewrite that aliases
// legitimate traffic (the documented blind spot that made the original
// paper defer rewrites).
//
// Run:  ./build/examples/nat_gateway
#include <cstdio>

#include "controller/routing.hpp"
#include "topo/generators.hpp"
#include "veridp/path_builder.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;

namespace {

PacketHeader to_vip() {
  PacketHeader h;
  h.src_ip = Ipv4::of(10, 0, 0, 1);
  h.dst_ip = Ipv4::of(10, 0, 9, 9);  // the virtual service address
  h.proto = kProtoTcp;
  h.src_port = 47000;
  h.dst_port = 443;
  return h;
}

void corrupt_nat(Network& net, Ipv4 target) {
  auto& table = net.at(1).config().table;
  for (const FlowRule& r : table.rules())
    if (!r.action.rewrite.empty()) {
      FlowRule bad = r;
      bad.action = Action::output_rewrite(2, Rewrite::dst_ip(target));
      table.remove(bad.id);
      table.add(bad);
      return;
    }
}

}  // namespace

int main() {
  Topology topo = linear(3);
  Controller controller(topo);
  routing::install_shortest_paths(controller);
  const Match vip = Match::dst_prefix(Prefix{Ipv4::of(10, 0, 9, 9), 32});
  controller.add_rule(0, 100, vip, Action::output(2));
  controller.add_rule(
      1, 100, vip,
      Action::output_rewrite(2, Rewrite::dst_ip(Ipv4::of(10, 0, 2, 1))));

  HeaderSpace space;
  ConfigTransferProvider provider(space, topo, controller.logical_configs());
  const PathTable table = PathTableBuilder(space, topo, provider).build();

  auto run = [&](const char* label, Network& net) {
    const auto r = net.inject(to_vip(), PortKey{0, 3});
    const bool ok =
        !r.reports.empty() && verify_report(r.reports.back(), table).ok();
    std::printf("%-28s exit dst %-12s at %s  => %s\n", label,
                to_string(r.reports.back().header.dst_ip).c_str(),
                to_string(r.exit).c_str(), ok ? "VERIFIED" : "INCONSISTENT");
    return ok;
  };

  Network healthy(topo);
  controller.deploy(healthy);
  const bool a = run("DNAT to real server", healthy);

  Network dead_target(topo);
  controller.deploy(dead_target);
  corrupt_nat(dead_target, Ipv4::of(10, 0, 77, 77));
  const bool b = !run("corrupted NAT (dead addr)", dead_target);

  Network aliased(topo);
  controller.deploy(aliased);
  corrupt_nat(aliased, Ipv4::of(10, 0, 2, 77));
  const bool blind = run("corrupted NAT (aliased)", aliased);
  std::printf("\nthe aliased corruption verifies: exit-header checking "
              "cannot see what the header USED to be — the ambiguity that "
              "made the paper defer rewrites.\n");

  std::printf("nat_gateway example: %s\n", a && b && blind ? "OK" : "FAILED");
  return a && b && blind ? 0 : 1;
}
