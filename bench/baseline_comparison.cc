// Baseline comparison (§3.1, §7):
//
//  (a) Monocle's probe-generation cost: the paper cites ~43 s for 10k
//      rules. We time our BDD-based probe computation per rule and
//      extrapolate, contrasting it with VeriDP's per-report verification
//      time (μs) — the reason Monocle "cannot keep up with frequent
//      network updates".
//  (b) Detection coverage: ATPG (reception-only) vs VeriDP (path-aware)
//      across the §2.3 fault classes on the Stanford-like network.
#include <chrono>

#include "baseline/atpg.hpp"
#include "baseline/monocle.hpp"
#include "bench_common.hpp"
#include "controller/policy.hpp"
#include "dataplane/fault.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

void monocle_cost() {
  std::printf("\n-- Monocle probe generation cost --\n");
  Setup s = make_internet2();
  // Probe the largest switch's table.
  SwitchId biggest = 0;
  for (SwitchId sw = 0; sw < s.topo.num_switches(); ++sw)
    if (s.controller.logical(sw).table.size() >
        s.controller.logical(biggest).table.size())
      biggest = sw;
  const SwitchConfig& cfg = s.controller.logical(biggest);
  const PortId n = s.topo.num_ports(biggest);

  const auto t0 = std::chrono::steady_clock::now();
  const auto run = baseline::generate_all(s.space, cfg, n);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const std::size_t rules = cfg.table.size();
  std::printf("switch %s: %zu rules -> %zu probes (+%zu unprobeable) in "
              "%.2f s (%.2f ms/rule)\n",
              s.topo.name(biggest).c_str(), rules, run.probes.size(),
              run.skipped, secs,
              1000.0 * secs / static_cast<double>(rules));
  std::printf("extrapolated to 10k rules: %.1f s (paper cites ~43 s); "
              "VeriDP verifies a report in ~2-3 us instead\n",
              10000.0 * secs / static_cast<double>(rules));
}

struct Outcome {
  bool atpg = false;
  bool veridp = false;
};

// Runs both detectors against a deployed fault. ATPG injects its
// generated probe set and checks reception; VeriDP passively verifies
// the *real* traffic mix (all-pairs pings plus the scenario's own
// flows, e.g. the SSH session an access policy is about).
Outcome detect(Setup& s, const PathTable& table, Network& net,
               const std::vector<workload::Flow>& scenario_flows = {}) {
  Outcome o;
  Rng rng(5005);
  const auto probes = baseline::generate_probes(table, rng);
  const auto atpg = baseline::run(net, probes);
  o.atpg = atpg.passed != atpg.probes;
  auto traffic = workload::ping_all(s.topo);
  traffic.insert(traffic.end(), scenario_flows.begin(), scenario_flows.end());
  for (const auto& f : traffic) {
    const auto r = net.inject(f.header, f.entry);
    for (const TagReport& rep : r.reports)
      if (!verify_report(rep, table).ok()) o.veridp = true;
  }
  return o;
}

void coverage_matrix() {
  std::printf("\n-- Detection coverage: ATPG vs VeriDP --\n");
  std::printf("%-34s %-6s %s\n", "fault (on Stanford-like)", "ATPG", "VeriDP");

  auto fresh = [] {
    Setup s("Stanford", stanford_like(14, 2));
    routing::install_shortest_paths(s.controller);
    return s;
  };

  // 1. Black hole: delivery rule replaced with drop.
  {
    Setup s = fresh();
    auto [table, secs] = timed_build(s);
    (void)secs;
    Network net(s.topo);
    s.controller.deploy(net);
    FaultInjector inject(net);
    const SwitchId boza = s.topo.find("boza");
    inject.replace_with_drop(boza,
                             net.at(boza).config().table.rules().front().id);
    const Outcome o = detect(s, table, net);
    std::printf("%-34s %-6s %s\n", "black hole (drop rule)",
                o.atpg ? "yes" : "NO", o.veridp ? "yes" : "NO");
  }
  // 2. Path deviation via the other backbone router: same exit port.
  {
    Setup s = fresh();
    auto [table, secs] = timed_build(s);
    (void)secs;
    Network net(s.topo);
    s.controller.deploy(net);
    FaultInjector inject(net);
    const SwitchId boza = s.topo.find("boza");
    const SwitchId coza = s.topo.find("coza");
    const Prefix dst = *s.topo.subnet(PortKey{coza, 4});
    for (const FlowRule& r : net.at(boza).config().table.rules())
      if (r.match.dst == dst && r.action.out == 1) {
        inject.rewrite_rule_output(boza, r.id, 2);
        break;
      }
    const Outcome o = detect(s, table, net);
    std::printf("%-34s %-6s %s\n", "path deviation (same exit)",
                o.atpg ? "yes" : "NO", o.veridp ? "yes" : "NO");
  }
  // 3. ACL entry lost: denied traffic is now delivered. ATPG's random
  // probe per behaviour class almost never lands in the denied slice,
  // while VeriDP verifies the actual SSH session and flags it.
  {
    Setup s = fresh();
    const SwitchId sozb = s.topo.find("sozb");
    const SwitchId coza = s.topo.find("coza");
    Match deny;
    deny.dst_port = 22;
    policy::deny_inbound(s.controller, sozb, 4, deny);
    auto [table, secs] = timed_build(s);
    (void)secs;
    Network net(s.topo);
    s.controller.deploy(net);
    FaultInjector inject(net);
    inject.remove_acl_entry(sozb, 4, /*inbound=*/true, 0);
    workload::Flow ssh{PortKey{sozb, 4},
                       PacketHeader{workload::host_in(*s.topo.subnet(PortKey{sozb, 4})),
                                    workload::host_in(*s.topo.subnet(PortKey{coza, 4})),
                                    kProtoTcp, 40000, 22}};
    const Outcome o = detect(s, table, net, {ssh});
    std::printf("%-34s %-6s %s\n", "access violation (lost ACL)",
                o.atpg ? "yes" : "NO", o.veridp ? "yes" : "NO");
  }
  // 3b. The §3.1 ill-inserted rule: an external rule broader than the
  // operator's deny overrides it for the denied slice only. Probes keep
  // passing (they exercise other headers of the same class); the real
  // SSH flow exposes the violation to VeriDP.
  {
    Setup s = fresh();
    const SwitchId boza = s.topo.find("boza");
    const SwitchId coza = s.topo.find("coza");
    const Prefix src = *s.topo.subnet(PortKey{boza, 4});
    Match deny;
    deny.src = src;
    deny.dst_port = 22;
    policy::drop_traffic(s.controller, boza, deny, 1000);
    auto [table, secs] = timed_build(s);
    (void)secs;
    Network net(s.topo);
    s.controller.deploy(net);
    FaultInjector inject(net);
    Match hijack = deny;
    inject.insert_external_rule(boza,
                                FlowRule{99998, 2000, hijack, Action::output(1)});
    workload::Flow ssh{PortKey{boza, 4},
                       PacketHeader{workload::host_in(src),
                                    workload::host_in(*s.topo.subnet(PortKey{coza, 4})),
                                    kProtoTcp, 40000, 22}};
    const Outcome o = detect(s, table, net, {ssh});
    std::printf("%-34s %-6s %s\n", "ill-inserted rule (3.1 example)",
                o.atpg ? "yes" : "NO", o.veridp ? "yes" : "NO");
  }
  // 4. Data-plane loop.
  {
    Setup s = fresh();
    auto [table, secs] = timed_build(s);
    (void)secs;
    Network net(s.topo);
    s.controller.deploy(net);
    FaultInjector inject(net);
    const SwitchId boza = s.topo.find("boza");
    const SwitchId bbra = s.topo.find("bbra");
    const SwitchId coza = s.topo.find("coza");
    const Prefix dst = *s.topo.subnet(PortKey{coza, 4});
    for (const FlowRule& r : net.at(bbra).config().table.rules())
      if (r.match.dst == dst) {
        inject.rewrite_rule_output(bbra, r.id, 1);  // back down to boza
        break;
      }
    (void)boza;
    const Outcome o = detect(s, table, net);
    std::printf("%-34s %-6s %s\n", "forwarding loop",
                o.atpg ? "yes" : "NO", o.veridp ? "yes" : "NO");
  }
  std::printf("\nexpected: ATPG misses the deviation and both access "
              "violations; VeriDP detects all five (see 3.1)\n");
}

// NetSight-style postcards (S7): "since each packet will trigger a
// postcard at each hop, NetSight will incur a huge volume of postcards
// traffic". We count the monitoring messages each approach emits for
// the same traffic.
void postcard_volume() {
  std::printf("\n-- Monitoring traffic: NetSight postcards vs VeriDP "
              "reports --\n");
  Setup s("Stanford", stanford_like(14, 2));
  routing::install_shortest_paths(s.controller);
  Network net(s.topo);
  s.controller.deploy(net);

  std::size_t packets = 0, postcards = 0, reports = 0;
  for (const auto& f : workload::ping_all(s.topo)) {
    const auto r = net.inject(f.header, f.entry);
    ++packets;
    postcards += r.path.size();   // NetSight: one postcard per hop
    reports += r.reports.size();  // VeriDP: one report per sampled packet
  }
  std::printf("%zu packets: NetSight %zu postcards (%.2f/pkt), VeriDP %zu "
              "reports (%.2f/pkt) at sampling interval 0\n",
              packets, postcards,
              static_cast<double>(postcards) / static_cast<double>(packets),
              reports,
              static_cast<double>(reports) / static_cast<double>(packets));
  std::printf("with the paper's per-flow sampling (4.5), VeriDP's report "
              "volume further drops by the sampling factor, while postcards "
              "track every packet\n");
}

}  // namespace

int main() {
  rule_header("Baseline comparison: Monocle & ATPG vs VeriDP");
  monocle_cost();
  coverage_matrix();
  postcard_volume();
  return 0;
}
