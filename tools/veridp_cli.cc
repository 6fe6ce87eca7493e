// veridp_cli — command-line front end for the library.
//
//   veridp_cli topo <name>                     dump a topology
//   veridp_cli pathtable <name> [--rules N]    build + summarize the path table
//   veridp_cli monitor <name> --fault KIND [--seed S] [--repair]
//                                              run a fault scenario end to end
//   veridp_cli chaos <name> [--loss P] [--dup P] [--reorder P] [--corrupt P]
//                    [--rounds N] [--updates N] [--seed S] [--fault KIND]
//                                              drive reports through a lossy
//                                              channel + overload-aware ingest
//   veridp_cli parallel <name> [--workers N] [--producers P] [--rounds N]
//                      [--loss P] [--dup P] [--reorder P] [--corrupt P]
//                      [--seed S] [--fault KIND]
//                                              replay one chaos capture through
//                                              the sequential stack AND the
//                                              multi-threaded server; verdicts
//                                              must match exactly
//   veridp_cli control <name> [--ticks N] [--loss P] [--dup P] [--reorder P]
//                     [--corrupt P] [--seed S] [--wedge] [--json FILE]
//                                              drive a pressure ramp through
//                                              the closed control loop; print
//                                              the per-tick decision trace and
//                                              the regime transition summary
//   veridp_cli fuzz [--seed S | --seeds a,b,c] [--budget N]
//                   [--budget-seconds N] [--json FILE]
//                   [--corpus DIR] [--replay DIR] [--minimize FILE]
//                                              coverage-guided fault-fuzzing
//                                              campaign with a detection/
//                                              localization scorecard; or
//                                              replay a corpus / shrink one
//                                              failing schedule
//
// <name> ∈ {linear, fat4, fat6, stanford, internet2, toy}
// KIND   ∈ {drop-rule, blackhole, rewire, external, priority}
//
// The CLI exists so the system can be exercised without writing C++;
// every command prints a deterministic, diff-able report.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/minimizer.hpp"
#include "fuzz/scorecard.hpp"
#include "topo/generators.hpp"
#include "veridp/channel.hpp"
#include "veridp/control_loop.hpp"
#include "veridp/ingest.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/repair.hpp"
#include "veridp/server.hpp"
#include "veridp/workload.hpp"

using namespace veridp;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  veridp_cli topo <name>\n"
               "  veridp_cli pathtable <name> [--rules N]\n"
               "  veridp_cli monitor <name> --fault KIND [--seed S] [--repair]\n"
               "  veridp_cli chaos <name> [--loss P] [--dup P] [--reorder P]\n"
               "             [--corrupt P] [--rounds N] [--updates N]\n"
               "             [--seed S] [--fault KIND]\n"
               "  veridp_cli parallel <name> [--workers N] [--producers P]\n"
               "             [--rounds N] [--loss P] [--dup P] [--reorder P]\n"
               "             [--corrupt P] [--seed S] [--fault KIND]\n"
               "  veridp_cli control <name> [--ticks N] [--loss P] [--dup P]\n"
               "             [--reorder P] [--corrupt P] [--seed S] [--wedge]\n"
               "             [--json FILE]\n"
               "  veridp_cli fuzz [--seed S | --seeds a,b,c] [--budget N]\n"
               "             [--budget-seconds N] [--json FILE]\n"
               "             [--corpus DIR] [--replay DIR] [--minimize FILE]\n"
               "names:  linear fat4 fat6 stanford internet2 toy\n"
               "faults: drop-rule blackhole rewire external priority\n");
  return 2;
}

std::optional<Topology> make_topo(const std::string& name) {
  if (name == "linear") return linear(5);
  if (name == "fat4") return fat_tree(4);
  if (name == "fat6") return fat_tree(6);
  if (name == "stanford") return stanford_like(14, 4);
  if (name == "internet2") return internet2_like(8);
  if (name == "toy") return toy_figure5();
  return std::nullopt;
}

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

int cmd_topo(const Topology& topo) {
  std::printf("switches: %zu, links: %zu, edge ports: %zu, subnets: %zu\n",
              topo.num_switches(), topo.num_links(),
              topo.edge_ports().size(), topo.subnets().size());
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    std::printf("%-10s (%u ports)", topo.name(s).c_str(), topo.num_ports(s));
    for (PortId p = 1; p <= topo.num_ports(s); ++p) {
      const PortKey pk{s, p};
      if (auto peer = topo.peer(pk)) {
        if (*peer == pk)
          std::printf("  %u->middlebox", p);
        else
          std::printf("  %u->%s.%u", p, topo.name(peer->sw).c_str(),
                      peer->port);
      } else if (auto subnet = topo.subnet(pk)) {
        std::printf("  %u=%s", p, to_string(*subnet).c_str());
      }
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_pathtable(Topology topo, std::size_t extra_rules) {
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  if (extra_rules > 0) {
    Rng rng(1);
    const std::size_t added = workload::add_specific_rules(c, rng, extra_rules);
    std::printf("added %zu synthetic refinement rules\n", added);
  }
  server.sync();
  const auto s = server.stats();
  std::printf("rules: %zu\n", c.num_rules());
  std::printf("path table: %zu port pairs, %zu paths, avg path length %.2f\n",
              s.num_pairs, s.num_paths, s.avg_path_length);
  return 0;
}

int cmd_monitor(Topology topo, const std::string& fault_kind,
                std::uint64_t seed, bool do_repair) {
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  Rng rng(seed);
  FaultInjector inject(net);

  // Pick a victim rule on a switch that has any.
  SwitchId sw = kNoSwitch;
  RuleId victim = kNoRule;
  PortId victim_out = kDropPort;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const SwitchId cand = static_cast<SwitchId>(rng.index(topo.num_switches()));
    const auto& rules = net.at(cand).config().table.rules();
    if (rules.empty()) continue;
    const FlowRule& r = rules[rng.index(rules.size())];
    sw = cand;
    victim = r.id;
    victim_out = r.action.out;
    break;
  }
  if (sw == kNoSwitch) {
    std::fprintf(stderr, "no rules installed?\n");
    return 1;
  }

  if (fault_kind == "drop-rule") {
    inject.drop_rule(sw, victim);
  } else if (fault_kind == "blackhole") {
    inject.replace_with_drop(sw, victim);
  } else if (fault_kind == "rewire") {
    PortId wrong = static_cast<PortId>(1 + rng.index(topo.num_ports(sw)));
    if (wrong == victim_out) wrong = wrong == 1 ? 2 : wrong - 1;
    inject.rewrite_rule_output(sw, victim, wrong);
  } else if (fault_kind == "external") {
    inject.insert_external_rule(
        sw, FlowRule{999999, 100000, Match::any(),
                     Action::output(static_cast<PortId>(
                         1 + rng.index(topo.num_ports(sw))))});
  } else if (fault_kind == "priority") {
    inject.ignore_priority(sw);
  } else {
    return usage();
  }
  std::printf("fault: %s\n", inject.history().back().describe().c_str());

  std::size_t failures = 0, localized = 0;
  std::optional<TagReport> first;
  for (const auto& f : workload::ping_all(topo)) {
    const auto r = net.inject(f.header, f.entry);
    for (const TagReport& rep : r.reports) {
      if (server.verify(rep).ok()) continue;
      ++failures;
      if (!first) first = rep;
      if (server.localize(rep).recovered(r.path)) ++localized;
    }
  }
  std::printf("reports verified: %llu, failed: %zu, real path recovered: %zu\n",
              static_cast<unsigned long long>(server.reports_verified()),
              failures, localized);

  if (failures == 0) {
    std::printf("fault not exercised by the ping matrix (try another --seed)\n");
    return 1;
  }
  if (do_repair && first) {
    RepairEngine repair(c, net);
    for (const RepairReport& r : repair.repair_from(*first))
      std::printf("repaired %s: +%zu rules, -%zu foreign, %zu ACLs%s\n",
                  topo.name(r.sw).c_str(), r.reinstalled, r.removed,
                  r.acls_restored,
                  r.priority_mode_fixed ? ", priority mode reset" : "");
    std::size_t after = 0;
    for (const auto& f : workload::ping_all(topo)) {
      const auto r = net.inject(f.header, f.entry);
      for (const TagReport& rep : r.reports)
        if (!server.verify(rep).ok()) ++after;
    }
    std::printf("failures after repair: %zu\n", after);
    return after == 0 ? 0 : 1;
  }
  return 0;
}

// Chaos experiment: the full resilient report path (wire v2 → lossy
// channel → overload-aware ingest → epoch-aware server) under continuous
// rule updates, optionally with a real switch fault injected halfway.
// One control tick per round lets the governor slow sampling (§4.5).
int cmd_chaos(Topology topo, const ChannelConfig& ccfg, int rounds,
              std::size_t updates_per_round, std::uint64_t seed,
              const char* fault_kind) {
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  server.enable_epoch_checking();
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  ReportChannel channel(ccfg);
  ReportIngest ingest(server);
  IngestGovernor governor(ingest);
  governor.set_sampling_sink(
      [&net](double factor) { net.command_sampling(factor); });

  Rng rng(seed);
  FaultInjector inject(net);
  bool fault_armed = fault_kind != nullptr;
  const auto flows = workload::ping_all(topo);
  for (int round = 0; round < rounds; ++round) {
    if (fault_armed && round == rounds / 2) {
      // Inject the switch fault halfway so clean and faulty reports mix.
      const SwitchId sw =
          static_cast<SwitchId>(rng.index(topo.num_switches()));
      const auto& rules = net.at(sw).config().table.rules();
      if (!rules.empty()) {
        const FlowRule& victim = rules[rng.index(rules.size())];
        const std::string kind = fault_kind;
        bool done = true;
        if (kind == "drop-rule") {
          inject.drop_rule(sw, victim.id);
        } else if (kind == "blackhole") {
          inject.replace_with_drop(sw, victim.id);
        } else if (kind == "rewire") {
          PortId wrong = static_cast<PortId>(1 + rng.index(topo.num_ports(sw)));
          if (wrong == victim.action.out) wrong = wrong == 1 ? 2 : wrong - 1;
          inject.rewrite_rule_output(sw, victim.id, wrong);
        } else if (kind == "priority") {
          inject.ignore_priority(sw);
        } else if (kind == "external") {
          inject.insert_external_rule(
              sw, FlowRule{999999, 100000, Match::any(),
                           Action::output(static_cast<PortId>(
                               1 + rng.index(topo.num_ports(sw))))});
        } else {
          return usage();
        }
        if (done) {
          std::printf("fault: %s\n",
                      inject.history().back().describe().c_str());
          fault_armed = false;
        }
      }
    }

    for (const auto& f : flows) {
      const auto r = net.inject(f.header, f.entry, /*t=*/round);
      for (const TagReport& rep : r.reports) channel.send(rep);
      while (auto d = channel.deliver()) ingest.offer(*d);
    }
    ingest.process();
    governor.tick(server.in_failsafe());
    if (updates_per_round > 0) {
      // Config churn: blackhole the next few hosts at their edge switches
      // (works on every topology, including /32-subnet fat trees where
      // nested refinement rules cannot exist).
      const auto& subnets = topo.subnets();
      std::size_t changed = 0;
      for (std::size_t i = 0; i < updates_per_round; ++i) {
        const std::size_t at =
            static_cast<std::size_t>(round) * updates_per_round + i;
        if (at >= subnets.size()) break;
        const auto& [dst_port, subnet] = subnets[at];
        c.add_rule(dst_port.sw, 100000 + static_cast<std::int32_t>(at),
                   Match::dst_prefix(subnet), Action::drop());
        ++changed;
      }
      if (changed > 0) {
        c.deploy(net);
        net.set_config_epoch(c.epoch());
      }
    }
  }
  channel.flush();
  while (auto d = channel.deliver()) ingest.offer(*d);
  ingest.process();

  const ChannelStats& cs = channel.stats();
  std::printf("channel: sent %llu delivered %llu dropped %llu dup %llu "
              "reorder %llu delay %llu corrupt %llu\n",
              static_cast<unsigned long long>(cs.sent),
              static_cast<unsigned long long>(cs.delivered),
              static_cast<unsigned long long>(cs.dropped),
              static_cast<unsigned long long>(cs.duplicated),
              static_cast<unsigned long long>(cs.reordered),
              static_cast<unsigned long long>(cs.delayed),
              static_cast<unsigned long long>(cs.corrupted));
  const IngestHealth h = ingest.health();
  std::printf("ingest:  received %llu passed %llu failed %llu stale %llu "
              "shed %llu quarantined %llu deduped %llu\n",
              static_cast<unsigned long long>(h.received),
              static_cast<unsigned long long>(h.passed),
              static_cast<unsigned long long>(h.failed),
              static_cast<unsigned long long>(h.stale),
              static_cast<unsigned long long>(h.shed),
              static_cast<unsigned long long>(h.quarantined),
              static_cast<unsigned long long>(h.deduped));
  std::printf("ingest:  lost-estimate %llu regime %s sampling factor %.2f\n",
              static_cast<unsigned long long>(h.lost_estimate),
              to_string(h.regime), governor.loop().sampling_factor());
  std::printf("server:  epoch %u snapshots %zu verified %llu\n",
              server.epoch(), server.snapshot()->ranges.size(),
              static_cast<unsigned long long>(server.reports_verified()));
  const bool balanced = h.accounted() == h.received;
  std::printf("conservation: %s\n", balanced ? "ok" : "VIOLATED");
  if (!balanced) return 1;
  // Without an injected switch fault, any failure is a false positive.
  if (fault_kind == nullptr && h.failed != 0) {
    std::printf("FALSE POSITIVES under transport faults\n");
    return 1;
  }
  return 0;
}

// Parallel-vs-sequential replay: capture ONE chaos stream, feed the
// identical datagrams to the single-threaded stack (Server+ReportIngest)
// and to the ParallelServer behind P producer threads, then diff every
// health counter. Shedding is disabled on both sides — shed decisions
// depend on queue timing, everything else must match bit for bit.
int cmd_parallel(Topology topo, const ChannelConfig& ccfg, int rounds,
                 unsigned workers, unsigned producers, std::uint64_t seed,
                 const char* fault_kind) {
  Controller c(topo);
  Server oracle(c, Server::Mode::kFullRebuild);
  oracle.enable_epoch_checking();
  ParallelConfig pcfg;
  pcfg.workers = workers;
  pcfg.queue_capacity = 1u << 16;
  pcfg.high_watermark = 1u << 16;
  pcfg.dedup_window = 1u << 16;
  pcfg.failure_keep = 1u << 16;
  ParallelServer parallel(c, pcfg);
  parallel.enable_epoch_checking();
  routing::install_shortest_paths(c);
  oracle.sync();
  parallel.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  Rng rng(seed);
  FaultInjector inject(net);
  if (fault_kind != nullptr) {
    // First-round fault: its reports carry the sync epoch, so the
    // mismatches are judged definitively against the retired ring table.
    const SwitchId sw = static_cast<SwitchId>(rng.index(topo.num_switches()));
    const auto& rules = net.at(sw).config().table.rules();
    if (!rules.empty()) {
      const FlowRule& victim = rules[rng.index(rules.size())];
      const std::string kind = fault_kind;
      if (kind == "drop-rule") {
        inject.drop_rule(sw, victim.id);
      } else if (kind == "blackhole") {
        inject.replace_with_drop(sw, victim.id);
      } else if (kind == "rewire") {
        PortId wrong = static_cast<PortId>(1 + rng.index(topo.num_ports(sw)));
        if (wrong == victim.action.out) wrong = wrong == 1 ? 2 : wrong - 1;
        inject.rewrite_rule_output(sw, victim.id, wrong);
      } else if (kind == "priority") {
        inject.ignore_priority(sw);
      } else if (kind == "external") {
        inject.insert_external_rule(
            sw, FlowRule{999999, 100000, Match::any(),
                         Action::output(static_cast<PortId>(
                             1 + rng.index(topo.num_ports(sw))))});
      } else {
        return usage();
      }
      std::printf("fault: %s\n", inject.history().back().describe().c_str());
    }
  }

  ReportChannel channel(ccfg);
  const auto flows = workload::ping_all(topo);
  const auto& subnets = topo.subnets();
  for (int round = 0; round < rounds; ++round) {
    for (const auto& f : flows) {
      const auto r = net.inject(f.header, f.entry, /*t=*/round);
      for (const TagReport& rep : r.reports) channel.send(rep);
    }
    // Churn between rounds, while datagrams sit in the channel.
    const std::size_t at = static_cast<std::size_t>(round);
    if (at < subnets.size()) {
      const auto& [dst_port, subnet] = subnets[at];
      c.add_rule(dst_port.sw, 100000 + static_cast<std::int32_t>(at),
                 Match::dst_prefix(subnet), Action::drop());
      c.deploy(net);
      net.set_config_epoch(c.epoch());
    }
  }
  const std::vector<std::vector<std::uint8_t>> datagrams =
      channel.drain_all();
  std::printf("captured %zu datagrams\n", datagrams.size());

  // Sequential reference.
  IngestConfig icfg;
  icfg.capacity = 1u << 16;
  icfg.high_watermark = (1u << 16) - 1;
  icfg.dedup_window = 1u << 16;
  icfg.failure_keep = 1u << 16;
  ReportIngest ingest(oracle, icfg);
  for (const auto& d : datagrams) ingest.offer(d);
  ingest.process();
  const IngestHealth sh = ingest.health();

  // The same capture through P producers × N workers. The oracle Server
  // rebuilt lazily inside verify(); the parallel control plane publishes
  // explicitly before streaming.
  parallel.publish();
  parallel.start();
  std::printf("parallel: %u workers, %u producers\n", parallel.worker_count(),
              producers);
  std::vector<std::thread> pool;
  for (unsigned p = 0; p < producers; ++p)
    pool.emplace_back([&datagrams, &parallel, p, producers] {
      for (std::size_t i = p; i < datagrams.size(); i += producers)
        parallel.submit_datagram(datagrams[i]);
    });
  for (std::thread& t : pool) t.join();
  parallel.drain();
  parallel.stop();
  const IngestHealth ph = parallel.health();

  std::printf("%-12s %10s %10s\n", "", "sequential", "parallel");
  bool match = true;
  const auto row = [&match](const char* name, std::uint64_t seq,
                            std::uint64_t par) {
    const bool ok = seq == par;
    match = match && ok;
    std::printf("%-12s %10llu %10llu%s\n", name,
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(par), ok ? "" : "  <-- DIFF");
  };
  row("received", sh.received, ph.received);
  row("passed", sh.passed, ph.passed);
  row("failed", sh.failed, ph.failed);
  row("stale", sh.stale, ph.stale);
  row("deduped", sh.deduped, ph.deduped);
  row("quarantined", sh.quarantined, ph.quarantined);
  row("lost-est", sh.lost_estimate, ph.lost_estimate);
  row("shed", sh.shed, ph.shed);
  const bool conserved = ph.accounted() == ph.received;
  std::printf("conservation: %s\n", conserved ? "ok" : "VIOLATED");
  std::printf("oracle match: %s\n", match ? "ok" : "MISMATCH");
  return (match && conserved) ? 0 : 1;
}

// Pressure-ramp scenario for the closed control loop: nominal warm-up,
// a flood plateau (many injection copies per tick against a starved
// drain budget, optionally with the snapshot publisher wedged for a
// window), then cooldown to idle. Every tick prints the controller's
// decision; the exit status asserts the operational invariants the
// chaos harness checks in-process (conservation, zero false positives,
// regime returns to normal, failsafe edge-triggered once per wedge).
int cmd_control(Topology topo, const ChannelConfig& ccfg, int ticks,
                std::uint64_t seed, bool wedge_window,
                const char* json_path) {
  Controller c(topo);
  Server server(c, Server::Mode::kFullRebuild);
  server.enable_epoch_checking();
  routing::install_shortest_paths(c);
  server.sync();
  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  bool wedged = false;
  server.set_publish_fault([&wedged] { return wedged; });

  ReportChannel channel(ccfg);
  IngestConfig icfg;
  icfg.capacity = 256;
  icfg.high_watermark = 128;
  ReportIngest ingest(server, icfg);
  IngestGovernor governor(ingest);
  governor.set_sampling_sink(
      [&net](double factor) { net.command_sampling(factor); });

  // Ramp profile over `ticks`: quarter nominal, half flood, quarter
  // cooldown. The wedge window covers the middle of the flood.
  const int t_flood = ticks / 4;
  const int t_cool = ticks - ticks / 4;
  const int t_wedge_on = t_flood + (t_cool - t_flood) / 4;
  const int t_wedge_off = t_flood + 3 * (t_cool - t_flood) / 4;

  const auto flows = workload::ping_all(topo);
  const auto& subnets = topo.subnets();
  std::size_t churned = 0;
  double max_factor = 1.0;
  bool conserved = true;

  std::printf("%5s %9s %7s %8s %8s %7s %6s %6s %s\n", "tick", "pressure",
              "regime", "factor", "modulus", "queue", "shed", "flip",
              "failsafe");
  for (int t = 0; t < ticks; ++t) {
    const bool flood = t >= t_flood && t < t_cool;
    if (wedge_window) {
      if (t == t_wedge_on) wedged = true;
      if (t == t_wedge_off) wedged = false;
    }
    if (flood && t % 3 == 0 && !subnets.empty()) {
      // Config churn mid-flood: controller-deployed blackholes, so a
      // consistent plane — any verification failure is a false positive.
      const auto& [dst_port, subnet] = subnets[churned % subnets.size()];
      c.add_rule(dst_port.sw, 100000 + static_cast<std::int32_t>(churned),
                 Match::dst_prefix(subnet), Action::drop());
      ++churned;
      c.deploy(net);
      net.set_config_epoch(c.epoch());
    }
    const int copies = flood ? 6 : (t < t_flood ? 1 : 0);
    for (int k = 0; k < copies; ++k)
      for (const auto& f : flows) {
        const auto r = net.inject(f.header, f.entry, t + 0.001 * k);
        for (const TagReport& rep : r.reports) channel.send(rep);
      }
    while (auto d = channel.deliver()) {
      ingest.offer(*d);
      conserved = conserved && ingest.health().conserved();
    }
    ingest.process(flood ? 24 : SIZE_MAX);
    const ControlDecision dec = governor.tick(server.in_failsafe());
    conserved = conserved && ingest.health().conserved();
    max_factor = std::max(max_factor, dec.sampling_factor);
    std::printf("%5llu %9.3f %7s %8.2f %8u %7llu %6llu %6s %s\n",
                static_cast<unsigned long long>(dec.tick), dec.pressure,
                to_string(dec.regime), dec.sampling_factor, dec.shed_modulus,
                static_cast<unsigned long long>(ingest.health().in_queue),
                static_cast<unsigned long long>(ingest.health().shed),
                dec.regime_changed ? "<--" : "", dec.failsafe ? "WEDGED" : "");
  }
  channel.flush();
  while (auto d = channel.deliver()) ingest.offer(*d);
  ingest.process();
  governor.tick(server.in_failsafe());

  const IngestHealth h = ingest.health();
  const ChannelStats& cs = channel.stats();
  const ControlLoop& loop = governor.loop();
  std::printf("channel: sent %llu delivered %llu dropped %llu corrupt %llu\n",
              static_cast<unsigned long long>(cs.sent),
              static_cast<unsigned long long>(cs.delivered),
              static_cast<unsigned long long>(cs.dropped),
              static_cast<unsigned long long>(cs.corrupted));
  std::printf("ingest:  received %llu passed %llu failed %llu stale %llu "
              "shed %llu quarantined %llu deduped %llu\n",
              static_cast<unsigned long long>(h.received),
              static_cast<unsigned long long>(h.passed),
              static_cast<unsigned long long>(h.failed),
              static_cast<unsigned long long>(h.stale),
              static_cast<unsigned long long>(h.shed),
              static_cast<unsigned long long>(h.quarantined),
              static_cast<unsigned long long>(h.deduped));
  std::printf("control: ticks %llu transitions %llu max factor %.2f "
              "final regime %s\n",
              static_cast<unsigned long long>(loop.ticks()),
              static_cast<unsigned long long>(loop.transitions()), max_factor,
              to_string(loop.regime()));
  std::printf("failsafe: events %llu active %s\n",
              static_cast<unsigned long long>(server.failsafe_events()),
              server.in_failsafe() ? "yes" : "no");

  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out, "{\n  \"seed\": %llu,\n  \"trace\": [\n",
                 static_cast<unsigned long long>(seed));
    const auto& trace = loop.trace();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const ControlDecision& d = trace[i];
      std::fprintf(out,
                   "    {\"tick\": %llu, \"pressure\": %.6f, "
                   "\"sampling_factor\": %.6f, \"shed_modulus\": %u, "
                   "\"regime\": \"%s\", \"regime_changed\": %s, "
                   "\"failsafe\": %s}%s\n",
                   static_cast<unsigned long long>(d.tick), d.pressure,
                   d.sampling_factor, d.shed_modulus, to_string(d.regime),
                   d.regime_changed ? "true" : "false",
                   d.failsafe ? "true" : "false",
                   i + 1 < trace.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"transitions\": %llu,\n  \"failsafe_events\": "
                 "%llu,\n  \"conserved\": %s\n}\n",
                 static_cast<unsigned long long>(loop.transitions()),
                 static_cast<unsigned long long>(server.failsafe_events()),
                 conserved && h.conserved() ? "true" : "false");
    std::fclose(out);
    std::printf("trace written to %s\n", json_path);
  }

  conserved = conserved && h.conserved() && h.in_queue == 0;
  const bool no_false_positives = h.failed == 0;
  const bool settled = loop.regime() == AdmissionRegime::kNormal;
  const bool failsafe_ok =
      !wedge_window ||
      (server.failsafe_events() == 1 && !server.in_failsafe());
  std::printf("conservation: %s\n", conserved ? "ok" : "VIOLATED");
  if (!no_false_positives) std::printf("FALSE POSITIVES under ramp\n");
  if (!settled) std::printf("regime did not settle back to normal\n");
  if (!failsafe_ok) std::printf("failsafe invariant violated\n");
  return (conserved && no_false_positives && settled && failsafe_ok) ? 0 : 1;
}

// Fuzzing campaigns (DESIGN.md §10). Three modes:
//   --replay DIR     re-run every corpus entry, diff trace digests
//                    (exit 2 on any divergence)
//   --minimize FILE  ddmin a failing schedule / corpus entry to its
//                    minimal reproducer
//   (default)        coverage-guided campaign across --seeds × --budget;
//                    --json writes the scorecard, --corpus persists
//                    coverage-advancing schedules (exit 1 unless the
//                    scorecard is clean: zero false positives, zero
//                    conservation violations, zero parallel mismatches)
int cmd_fuzz(int argc, char** argv) {
  const fuzz::CampaignRunner runner;

  if (const char* dir = flag_value(argc, argv, "--replay")) {
    const auto paths = fuzz::list_corpus(dir);
    if (paths.empty()) {
      std::fprintf(stderr, "no corpus entries under %s\n", dir);
      return 2;
    }
    std::size_t diverged = 0;
    for (const std::string& path : paths) {
      const auto entry = fuzz::load_entry(path);
      if (!entry) {
        std::printf("replay %s: MALFORMED\n", path.c_str());
        ++diverged;
        continue;
      }
      const fuzz::RunResult r = runner.run(entry->schedule);
      if (r.digest == entry->digest) {
        std::printf("replay %s: ok (digest %llu)\n", entry->name.c_str(),
                    static_cast<unsigned long long>(r.digest));
      } else {
        std::printf("replay %s: DIVERGED (expected %llu got %llu)\n",
                    entry->name.c_str(),
                    static_cast<unsigned long long>(entry->digest),
                    static_cast<unsigned long long>(r.digest));
        ++diverged;
      }
    }
    std::printf("replayed %zu entries, divergences %zu\n", paths.size(),
                diverged);
    return diverged == 0 ? 0 : 2;
  }

  if (const char* file = flag_value(argc, argv, "--minimize")) {
    // Accept either a corpus entry or a bare schedule file.
    std::optional<fuzz::FuzzSchedule> schedule;
    if (const auto entry = fuzz::load_entry(file)) {
      schedule = entry->schedule;
    } else if (std::FILE* in = std::fopen(file, "rb")) {
      std::string text;
      char buf[4096];
      for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, in)) > 0;)
        text.append(buf, n);
      std::fclose(in);
      schedule = fuzz::parse_schedule(text);
    }
    if (!schedule) {
      std::fprintf(stderr, "cannot parse %s\n", file);
      return 2;
    }
    fuzz::MinimizeStats stats;
    const fuzz::FuzzSchedule shrunk = fuzz::minimize(
        runner, *schedule, fuzz::detects_inconsistency(), &stats);
    if (stats.evaluations == 1 && !runner.run(shrunk).detected) {
      std::fprintf(stderr,
                   "schedule does not detect an inconsistency; "
                   "nothing to minimize\n");
      return 1;
    }
    std::printf("minimized %zu actions -> %zu (%d evaluations, %d kept)\n",
                schedule->actions.size(), shrunk.actions.size(),
                stats.evaluations, stats.committed);
    std::printf("%s", fuzz::serialize(shrunk).c_str());
    return 0;
  }

  fuzz::CampaignOptions opts;
  if (const char* seed = flag_value(argc, argv, "--seed"))
    opts.seeds = {static_cast<std::uint64_t>(std::atoll(seed))};
  if (const char* seeds = flag_value(argc, argv, "--seeds")) {
    opts.seeds.clear();
    std::string tok;
    for (const char* p = seeds;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!tok.empty())
          opts.seeds.push_back(
              static_cast<std::uint64_t>(std::atoll(tok.c_str())));
        tok.clear();
        if (*p == '\0') break;
      } else {
        tok += *p;
      }
    }
    if (opts.seeds.empty()) return usage();
  }
  if (const char* budget = flag_value(argc, argv, "--budget"))
    opts.budget_per_seed = std::atoi(budget);
  if (opts.budget_per_seed <= 0) return usage();
  if (const char* secs = flag_value(argc, argv, "--budget-seconds")) {
    const long long v = std::atoll(secs);
    if (v <= 0) return usage();
    opts.budget_seconds = static_cast<std::uint64_t>(v);
  }

  const fuzz::CampaignOutcome outcome = fuzz::run_campaign(opts);
  const fuzz::Scorecard& card = outcome.card;
  for (const fuzz::RunResult& r : outcome.runs)
    std::printf("run seed=%llu topo=%s actions=%zu effectful=%d "
                "detected=%d localized=%d fp=%llu\n",
                static_cast<unsigned long long>(r.schedule.seed),
                r.schedule.topo.c_str(), r.schedule.actions.size(),
                r.harmful_effectful, r.detected ? 1 : 0, r.localized ? 1 : 0,
                static_cast<unsigned long long>(r.false_positives));
  if (opts.budget_seconds > 0)
    std::printf("campaign: %zu seeds, %llu s wall budget = %u total\n",
                opts.seeds.size(),
                static_cast<unsigned long long>(opts.budget_seconds),
                card.runs);
  else
    std::printf("campaign: %zu seeds x %d runs = %u total\n",
                opts.seeds.size(), opts.budget_per_seed, card.runs);
  std::printf("harmful %u detected %u localized %u\n", card.harmful_runs,
              card.detected_runs, card.localized_runs);
  std::printf("false positives %llu conservation violations %u "
              "parallel mismatches %u\n",
              static_cast<unsigned long long>(card.false_positives),
              card.conservation_violations, card.parallel_mismatches);
  std::printf("coverage keys %zu corpus new %u\n", card.coverage_keys,
              card.corpus_new);

  if (const char* dir = flag_value(argc, argv, "--corpus")) {
    std::size_t saved = 0;
    for (const fuzz::CorpusEntry& e : outcome.interesting)
      if (fuzz::save_entry(dir, e)) ++saved;
    std::printf("corpus: saved %zu entries to %s\n", saved, dir);
  }
  if (const char* path = flag_value(argc, argv, "--json")) {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    const std::string json = fuzz::to_json(card);
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("scorecard written to %s\n", path);
  }
  std::printf("scorecard: %s\n", card.clean() ? "clean" : "VIOLATED");
  return card.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "fuzz") == 0)
    return cmd_fuzz(argc, argv);
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  auto topo = make_topo(argv[2]);
  if (!topo) return usage();

  if (cmd == "topo") return cmd_topo(*topo);
  if (cmd == "pathtable") {
    const char* n = flag_value(argc, argv, "--rules");
    return cmd_pathtable(std::move(*topo),
                         n ? static_cast<std::size_t>(std::atoll(n)) : 0);
  }
  if (cmd == "monitor") {
    const char* kind = flag_value(argc, argv, "--fault");
    if (!kind) return usage();
    const char* seed = flag_value(argc, argv, "--seed");
    return cmd_monitor(std::move(*topo), kind,
                       seed ? static_cast<std::uint64_t>(std::atoll(seed)) : 7,
                       has_flag(argc, argv, "--repair"));
  }
  if (cmd == "chaos") {
    ChannelConfig ccfg;
    auto rate = [&](const char* flag, double* out) {
      if (const char* v = flag_value(argc, argv, flag)) *out = std::atof(v);
    };
    rate("--loss", &ccfg.drop_rate);
    rate("--dup", &ccfg.dup_rate);
    rate("--reorder", &ccfg.reorder_rate);
    rate("--corrupt", &ccfg.corrupt_rate);
    const char* seed = flag_value(argc, argv, "--seed");
    const std::uint64_t s =
        seed ? static_cast<std::uint64_t>(std::atoll(seed)) : 7;
    ccfg.seed = s;
    const char* rounds = flag_value(argc, argv, "--rounds");
    const char* updates = flag_value(argc, argv, "--updates");
    return cmd_chaos(std::move(*topo), ccfg,
                     rounds ? std::atoi(rounds) : 4,
                     updates ? static_cast<std::size_t>(std::atoll(updates)) : 3,
                     s, flag_value(argc, argv, "--fault"));
  }
  if (cmd == "parallel") {
    ChannelConfig ccfg;
    auto rate = [&](const char* flag, double* out) {
      if (const char* v = flag_value(argc, argv, flag)) *out = std::atof(v);
    };
    rate("--loss", &ccfg.drop_rate);
    rate("--dup", &ccfg.dup_rate);
    rate("--reorder", &ccfg.reorder_rate);
    rate("--corrupt", &ccfg.corrupt_rate);
    const char* seed = flag_value(argc, argv, "--seed");
    const std::uint64_t s =
        seed ? static_cast<std::uint64_t>(std::atoll(seed)) : 7;
    ccfg.seed = s;
    const char* rounds = flag_value(argc, argv, "--rounds");
    const char* workers = flag_value(argc, argv, "--workers");
    const char* producers = flag_value(argc, argv, "--producers");
    return cmd_parallel(
        std::move(*topo), ccfg, rounds ? std::atoi(rounds) : 3,
        workers ? static_cast<unsigned>(std::atoi(workers)) : 4,
        producers ? static_cast<unsigned>(std::atoi(producers)) : 4, s,
        flag_value(argc, argv, "--fault"));
  }
  if (cmd == "control") {
    ChannelConfig ccfg;
    auto rate = [&](const char* flag, double* out) {
      if (const char* v = flag_value(argc, argv, flag)) *out = std::atof(v);
    };
    rate("--loss", &ccfg.drop_rate);
    rate("--dup", &ccfg.dup_rate);
    rate("--reorder", &ccfg.reorder_rate);
    rate("--corrupt", &ccfg.corrupt_rate);
    const char* seed = flag_value(argc, argv, "--seed");
    const std::uint64_t s =
        seed ? static_cast<std::uint64_t>(std::atoll(seed)) : 7;
    ccfg.seed = s;
    const char* ticks = flag_value(argc, argv, "--ticks");
    return cmd_control(std::move(*topo), ccfg,
                       ticks ? std::atoi(ticks) : 24, s,
                       has_flag(argc, argv, "--wedge"),
                       flag_value(argc, argv, "--json"));
  }
  return usage();
}
