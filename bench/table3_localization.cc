// Table 3 — probability of successful fault localization on fat trees.
//
// Experiment (§6.3): rewire a random rule's output port at a random
// switch, let all hosts ping each other, verify every tag report, and
// for each failed verification try to recover the packet's real path
// with Algorithm 4. Paper: 99.2% (k=4), 96.6% (k=6).
//
// We additionally report how many failures were TTL-expired loops
// (whose 16-hop real paths are unrecoverable by construction) since our
// deterministic BFS tie-breaking produces more of them than the paper's
// routing did.
#include "bench_common.hpp"
#include "dataplane/fault.hpp"
#include "veridp/localizer.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

void campaign(int k, int trials, std::uint64_t seed) {
  // Reactive per-flow rules with in_port match, exactly as Floodlight's
  // forwarding module installs them from the paper's ping-all workload
  // (see routing::install_per_flow_paths). A deviated packet then
  // misses one hop after the fault and drops, which is what makes the
  // real path recoverable in the vast majority of cases.
  Setup s("FT(k=" + std::to_string(k) + ")", fat_tree(k));
  routing::install_per_flow_paths(s.controller);
  auto [table, secs] = timed_build(s);
  (void)secs;
  Localizer localizer(s.topo, s.controller.logical_configs());
  const auto flows = workload::ping_all(s.topo);

  Rng rng(seed);
  std::size_t failed = 0, recovered = 0, loops = 0, blamed = 0;
  SwitchId fault_switch = kNoSwitch;
  for (int t = 0; t < trials; ++t) {
    Network net(s.topo);
    s.controller.deploy(net);
    FaultInjector inject(net);
    for (;;) {
      const SwitchId sw = static_cast<SwitchId>(rng.index(s.topo.num_switches()));
      const auto& rules = net.at(sw).config().table.rules();
      if (rules.empty()) continue;
      const FlowRule& victim = rules[rng.index(rules.size())];
      const PortId wrong =
          static_cast<PortId>(1 + rng.index(s.topo.num_ports(sw)));
      if (wrong == victim.action.out) continue;
      if (inject.rewrite_rule_output(sw, victim.id, wrong)) {
        fault_switch = sw;
        break;
      }
    }
    for (const auto& f : flows) {
      const auto r = net.inject(f.header, f.entry);
      for (const TagReport& rep : r.reports) {
        if (verify_report(rep, table).ok()) continue;
        ++failed;
        if (r.disposition == Disposition::kTtlExpired) ++loops;
        const auto inferred = localizer.infer(rep);
        if (inferred.recovered(r.path)) {
          ++recovered;
          for (const Candidate& cand : inferred.candidates)
            if (cand.path == r.path && cand.deviating_switch == fault_switch) {
              ++blamed;
              break;
            }
        }
      }
    }
  }
  const std::size_t non_loop = failed - loops;
  std::printf("FT(k=%d)  %5zu failed verif. | %5zu recovered paths | "
              "localization %.1f%% | blamed faulty switch %.1f%% | "
              "%zu loops (excl.: %.1f%%)\n",
              k, failed, recovered,
              failed ? 100.0 * static_cast<double>(recovered) /
                           static_cast<double>(failed)
                     : 0.0,
              recovered ? 100.0 * static_cast<double>(blamed) /
                              static_cast<double>(recovered)
                        : 0.0,
              loops,
              non_loop ? 100.0 * static_cast<double>(recovered) /
                             static_cast<double>(non_loop)
                       : 0.0);
}

}  // namespace

int main() {
  rule_header("Table 3: fault localization probability (fat trees)");
  campaign(4, 600, 2024);
  campaign(6, 120, 2025);
  std::printf("\npaper: FT(k=4) 2527 failed / 2505 recovered = 99.2%%; "
              "FT(k=6) 7148 / 6902 = 96.6%%\n");
  return 0;
}
