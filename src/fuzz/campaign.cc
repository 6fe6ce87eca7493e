#include "fuzz/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "controller/routing.hpp"
#include "dataplane/fault.hpp"
#include "dataplane/network.hpp"
#include "fuzz/schedule.hpp"
#include "topo/generators.hpp"
#include "veridp/channel.hpp"
#include "veridp/control_loop.hpp"
#include "veridp/ingest.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/server.hpp"
#include "veridp/workload.hpp"

namespace veridp {
namespace fuzz {

namespace {

/// A campaign-installed in-bound ACL: entry 0 denies the (src, dst)
/// probe pair on dst_port 80, entry 1 permits everything from src on 80.
/// Removing entry 0 or swapping the two changes first-match semantics
/// for exactly the pair flow — deterministic detectability for the ACL
/// fault classes (workload::add_edge_acls draws random ports that rarely
/// intersect the port-80 probes, so the campaign installs its own).
struct AclSite {
  SwitchId sw = kNoSwitch;
  PortId port = 0;
  Prefix src{};
  Prefix dst{};
};

/// Where a harmful mutation should focus probe traffic.
struct Hint {
  enum class Kind { kDstPrefix, kPair, kSwitch } kind = Kind::kSwitch;
  Prefix dst{};
  Prefix src{};
  SwitchId sw = kNoSwitch;
  bool broad = false;  ///< matched no flow — widen to the full probe set
};

const char* status_name(VerifyStatus s) {
  switch (s) {
    case VerifyStatus::kOk: return "ok";
    case VerifyStatus::kNoPath: return "no_path";
    case VerifyStatus::kTagMismatch: return "tag_mismatch";
    case VerifyStatus::kStaleEpoch: return "stale_epoch";
    case VerifyStatus::kMalformed: return "malformed";
    case VerifyStatus::kShed: return "shed";
  }
  return "unknown";
}

std::uint8_t verdict_bit(VerifyStatus s) {
  switch (s) {
    case VerifyStatus::kOk: return kSawOk;
    case VerifyStatus::kNoPath: return kSawNoPath;
    case VerifyStatus::kTagMismatch: return kSawTagMismatch;
    case VerifyStatus::kStaleEpoch: return kSawStale;
    default: return 0;
  }
}

std::uint8_t regime_bit(AdmissionRegime r) {
  switch (r) {
    case AdmissionRegime::kNormal: return kSawNormal;
    case AdmissionRegime::kSoft: return kSawSoft;
    case AdmissionRegime::kHard: return kSawHard;
  }
  return 0;
}

/// First switch at or after ordinal `a` (mod n) whose physical table is
/// non-empty; kNoSwitch if every table is empty.
SwitchId pick_switch_with_rules(const Network& net, std::uint32_t a) {
  const std::size_t n = net.num_switches();
  if (n == 0) return kNoSwitch;
  for (std::size_t i = 0; i < n; ++i) {
    const auto sw = static_cast<SwitchId>((a + i) % n);
    if (!net.at(sw).config().table.empty()) return sw;
  }
  return kNoSwitch;
}

/// First switch at or after ordinal `a` whose table holds >= 2 distinct
/// priorities (a priority shuffle is provably inert otherwise).
SwitchId pick_switch_with_priorities(const Network& net, std::uint32_t a) {
  const std::size_t n = net.num_switches();
  for (std::size_t i = 0; i < n; ++i) {
    const auto sw = static_cast<SwitchId>((a + i) % n);
    const auto& rules = net.at(sw).config().table.rules();
    if (rules.size() >= 2 && rules.front().priority != rules.back().priority)
      return sw;
  }
  return kNoSwitch;
}

/// Lookup decision of switch `sw` for every probe header (the probe
/// universe is closed: targeted flows are always drawn from `flows`).
std::vector<PortId> lookup_snapshot(const Network& net, SwitchId sw,
                                    const std::vector<workload::Flow>& flows) {
  std::vector<PortId> out;
  out.reserve(flows.size());
  const FlowTable& t = net.at(sw).config().table;
  for (const auto& f : flows) out.push_back(t.lookup_port(f.header));
  return out;
}

/// In-ACL admit decision at (sw, port) for every probe entering there.
std::vector<bool> acl_snapshot(const Network& net, const AclSite& site,
                               const std::vector<workload::Flow>& flows) {
  std::vector<bool> out;
  const Acl& acl = net.at(site.sw).config().in_acl(site.port);
  for (const auto& f : flows) {
    if (f.entry.sw == site.sw && f.entry.port == site.port)
      out.push_back(acl.permits(f.header));
  }
  return out;
}

std::string fmt_factor(double f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", f);
  return buf;
}

}  // namespace

const std::vector<std::string>& CampaignRunner::topo_shapes() {
  static const std::vector<std::string> kShapes = {"linear", "fat4",
                                                   "internet2"};
  return kShapes;
}

Topology CampaignRunner::make_topo(const std::string& name) {
  if (name == "fat4") return fat_tree(4);
  if (name == "internet2") return internet2_like(/*edge_ports_per_router=*/2);
  return linear(5);
}

RunResult CampaignRunner::run(const FuzzSchedule& schedule) const {
  RunResult result;
  result.schedule = schedule;

  // Defensive clamps: a mutated/shrunk schedule must never wedge the
  // harness, so out-of-range knobs saturate instead of erroring.
  const int rounds = std::clamp(schedule.rounds, 1, 32);
  const int copies = std::clamp(schedule.copies, 1, 8);
  const std::uint32_t stride = std::max<std::uint32_t>(schedule.probe_stride, 1);

  // ---- Environment -------------------------------------------------------
  Topology topo = make_topo(schedule.topo);
  Controller c(topo);
  // Both servers subscribe before any rule exists so their epoch views
  // mirror the controller from event zero.
  Server server(c, Server::Mode::kFullRebuild);
  server.enable_epoch_checking(/*snapshot_ring=*/32, /*grace_window=*/64);
  ParallelConfig pcfg;
  pcfg.workers = knobs_.parallel_workers;
  // The oracle queues the whole verified stream before the pool starts,
  // so no lane may ever fill. Lanes are deques: an unreachable bound
  // allocates nothing up front.
  pcfg.queue_capacity = SIZE_MAX;
  pcfg.high_watermark = SIZE_MAX - 1;
  ParallelServer parallel(c, pcfg);
  parallel.enable_epoch_checking(/*snapshot_ring=*/32, /*grace_window=*/64);

  routing::install_shortest_paths(c);
  Rng setup_rng(schedule.seed);
  workload::add_specific_rules(c, setup_rng, schedule.refine_rules);

  // Campaign ACLs (see AclSite). Sites pair distinct subnet-bearing edge
  // ports deterministically.
  std::vector<AclSite> acl_sites;
  {
    const auto& subs = topo.subnets();
    const std::uint32_t want = std::min<std::uint32_t>(
        schedule.edge_acls, subs.size() > 1
                                ? static_cast<std::uint32_t>(subs.size())
                                : 0);
    for (std::uint32_t k = 0; k < want; ++k) {
      const auto& [eport, esub] = subs[(k * 5 + 1) % subs.size()];
      const auto& [dport, dsub] = subs[(k * 5 + 3) % subs.size()];
      if (eport == dport) continue;
      Match deny;
      deny.src = esub;
      deny.dst = dsub;
      deny.dst_port = 80;
      Match permit;
      permit.src = esub;
      permit.dst_port = 80;
      Acl acl;
      acl.deny(deny).permit(permit);
      c.set_in_acl(eport.sw, eport.port, acl);
      acl_sites.push_back({eport.sw, eport.port, esub, dsub});
    }
  }

  server.sync();
  parallel.sync();

  Network net(topo);
  c.deploy(net);
  net.set_config_epoch(c.epoch());

  ChannelConfig chan_cfg;  // transport classes raise rates mid-run
  chan_cfg.seed = schedule.seed;
  ReportChannel channel(chan_cfg);

  IngestConfig icfg;
  icfg.capacity = knobs_.ingest_capacity;
  icfg.high_watermark = knobs_.ingest_watermark;
  ReportIngest ingest(server, icfg);
  IngestGovernor governor(ingest);
  governor.set_sampling_sink(
      [&net](double factor) { net.command_sampling(factor); });

  FaultInjector injector(net);

  const std::vector<workload::Flow> flows = workload::ping_all(topo);

  // ---- Oracle state + verdict tap ---------------------------------------
  std::ostringstream trace;
  trace << "veridp-fuzz-trace v1\n";
  trace << "schedule-digest " << fnv1a(serialize(schedule)) << "\n";

  int current_round = 0;
  int localized_budget = knobs_.localize_budget;
  std::vector<TagReport> verified_stream;
  std::uint64_t tally_passed = 0, tally_failed = 0, tally_stale = 0;

  ingest.set_verdict_sink([&](const TagReport& rep, const Verdict& v) {
    verified_stream.push_back(rep);
    result.verdict_kinds_seen |= verdict_bit(v.status);
    if (v.ok()) {
      ++tally_passed;
    } else if (v.status == VerifyStatus::kStaleEpoch) {
      ++tally_stale;
    } else {
      ++tally_failed;
      ++result.failed_verdicts;
      if (!result.detected) {
        result.detected = true;
        result.detect_round = current_round;
      }
      if (result.harmful_effectful == 0) ++result.false_positives;
      if (localized_budget > 0) {
        --localized_budget;
        trace << "fail round=" << current_round << " status="
              << status_name(v.status) << " sw=" << rep.outport.sw
              << " epoch=" << rep.epoch << "\n";
        const LocalizeResult lr = server.localize(rep);
        for (const Candidate& cand : lr.candidates) {
          if (cand.deviating_switch == kNoSwitch) continue;
          result.blamed.push_back(cand.deviating_switch);
          trace << "blame " << cand.deviating_switch << "\n";
        }
      }
    }
  });

  std::vector<Hint> hints;
  std::vector<SwitchId> rule_level_truth;  ///< repaired by a redeploy
  std::vector<SwitchId> flag_level_truth;  ///< survives a redeploy
  std::uint32_t ext_counter = 0, churn_counter = 0;

  auto note_effectful = [&](MutationClass cls, SwitchId sw, bool flag_level) {
    ++result.harmful_effectful;
    if (result.first_effectful_round < 0)
      result.first_effectful_round = current_round;
    if (std::find(result.effectful_classes.begin(),
                  result.effectful_classes.end(),
                  cls) == result.effectful_classes.end())
      result.effectful_classes.push_back(cls);
    if (sw != kNoSwitch)
      (flag_level ? flag_level_truth : rule_level_truth).push_back(sw);
  };

  // ---- Mutation application ---------------------------------------------
  // Returns true when the action executed (even if semantically inert);
  // effectful mutations additionally enter the ground truth.
  auto apply = [&](const FuzzAction& act) -> bool {
    const std::size_t nsw = net.num_switches();
    switch (act.cls) {
      case MutationClass::kDropRule:
      case MutationClass::kReplaceWithDrop:
      case MutationClass::kRewriteOutput: {
        const SwitchId sw = pick_switch_with_rules(net, act.a);
        if (sw == kNoSwitch) return false;
        const auto& rules = net.at(sw).config().table.rules();
        const FlowRule rule = rules[act.b % rules.size()];
        const auto before = lookup_snapshot(net, sw, flows);
        bool ok = false;
        if (act.cls == MutationClass::kDropRule) {
          ok = injector.drop_rule(sw, rule.id);
        } else if (act.cls == MutationClass::kReplaceWithDrop) {
          ok = injector.replace_with_drop(sw, rule.id);
        } else {
          PortId np = 1 + act.c % net.at(sw).num_ports();
          if (np == rule.action.out) np = 1 + np % net.at(sw).num_ports();
          ok = injector.rewrite_rule_output(sw, rule.id, np);
        }
        if (!ok) return false;
        const bool eff = before != lookup_snapshot(net, sw, flows);
        if (eff) note_effectful(act.cls, sw, /*flag_level=*/false);
        Hint h;
        if (!rule.match.dst.is_any()) {
          h.kind = Hint::Kind::kDstPrefix;
          h.dst = rule.match.dst;
        } else {
          h.kind = Hint::Kind::kSwitch;
          h.sw = sw;
        }
        hints.push_back(h);
        trace << "apply " << current_round << " " << to_string(act.cls)
              << " sw=" << sw << " rule=" << rule.id << " effectful=" << eff
              << "\n";
        return true;
      }
      case MutationClass::kExternalRule: {
        if (nsw == 0 || topo.subnets().empty()) return false;
        const auto sw = static_cast<SwitchId>(act.a % nsw);
        const auto& [dport, dsub] =
            topo.subnets()[act.b % topo.subnets().size()];
        (void)dport;
        FlowRule ext;
        ext.id = (1ull << 62) + ext_counter++;
        ext.priority = 100000 + static_cast<std::int32_t>(ext_counter);
        ext.match = Match::dst_prefix(dsub);
        ext.action = Action::output(1 + act.c % net.at(sw).num_ports());
        const auto before = lookup_snapshot(net, sw, flows);
        injector.insert_external_rule(sw, ext);
        const bool eff = before != lookup_snapshot(net, sw, flows);
        if (eff) note_effectful(act.cls, sw, /*flag_level=*/false);
        hints.push_back({Hint::Kind::kDstPrefix, dsub, {}, kNoSwitch, false});
        trace << "apply " << current_round << " external_rule sw=" << sw
              << " dst=" << to_string(dsub) << " effectful=" << eff << "\n";
        return true;
      }
      case MutationClass::kIgnorePriority: {
        if (nsw == 0 || topo.subnets().empty()) return false;
        const auto sw = static_cast<SwitchId>(act.a % nsw);
        // Guarantee a priority-sensitive overlap at sw: install a
        // consistent (both planes — benign on its own) high-priority
        // blackhole for a subnet, preferably one attached at sw, then
        // break the tie-breaking.
        const auto& subs = topo.subnets();
        std::size_t si = act.b % subs.size();
        for (std::size_t i = 0; i < subs.size(); ++i)
          if (subs[i].first.sw == sw) {
            si = i;
            break;
          }
        const Prefix target = subs[si].second;
        const RuleId id =
            c.add_rule(sw, 200000 + static_cast<std::int32_t>(act.b % 64),
                       Match::dst_prefix(target), Action::drop());
        const FlowRule* lr = c.logical(sw).table.find(id);
        if (lr) net.at(sw).config().table.add(*lr);
        const auto before = lookup_snapshot(net, sw, flows);
        injector.ignore_priority(sw, true);
        const bool eff = before != lookup_snapshot(net, sw, flows);
        if (eff) note_effectful(act.cls, sw, /*flag_level=*/true);
        hints.push_back({Hint::Kind::kDstPrefix, target, {}, kNoSwitch, false});
        trace << "apply " << current_round << " ignore_priority sw=" << sw
              << " shadowed=" << to_string(target) << " effectful=" << eff
              << "\n";
        return true;
      }
      case MutationClass::kPriorityShuffle: {
        const SwitchId sw = pick_switch_with_priorities(net, act.a);
        if (sw == kNoSwitch || topo.subnets().empty()) return false;
        // Synthetic refinements are ECMP-consistent (same egress as the
        // covering route), so inverting their order is behavior
        // preserving. Guarantee an order-sensitive overlap first: a
        // consistent high-priority blackhole (both planes — benign on
        // its own) that the inversion will sink below the route.
        const auto& subs = topo.subnets();
        std::size_t si = act.c % subs.size();
        for (std::size_t i = 0; i < subs.size(); ++i)
          if (subs[i].first.sw == sw) {
            si = i;
            break;
          }
        const Prefix target = subs[si].second;
        const RuleId bh =
            c.add_rule(sw, 200000 + static_cast<std::int32_t>(act.c % 64),
                       Match::dst_prefix(target), Action::drop());
        const FlowRule* lr = c.logical(sw).table.find(bh);
        if (lr) net.at(sw).config().table.add(*lr);
        hints.push_back({Hint::Kind::kDstPrefix, target, {}, kNoSwitch, false});
        const auto before = lookup_snapshot(net, sw, flows);
        FlowTable& t = net.at(sw).config().table;
        // Negate every priority: inverts the strict order (the strongest
        // deterministic permutation — lowest-priority rules now shadow
        // the refinements) while set_priority keeps insertion order, so
        // a subsequent ignore_priority still sees the original table.
        std::vector<std::pair<RuleId, std::int32_t>> prios;
        prios.reserve(t.rules().size());
        for (const FlowRule& r : t.rules()) prios.push_back({r.id, r.priority});
        for (const auto& [id, p] : prios) t.set_priority(id, -p);
        const bool eff = before != lookup_snapshot(net, sw, flows);
        if (eff) note_effectful(act.cls, sw, /*flag_level=*/false);
        hints.push_back({Hint::Kind::kSwitch, {}, {}, sw, false});
        trace << "apply " << current_round << " priority_shuffle sw=" << sw
              << " rules=" << prios.size() << " effectful=" << eff << "\n";
        return true;
      }
      case MutationClass::kRemoveAclEntry: {
        if (acl_sites.empty()) return false;
        const AclSite& site = acl_sites[act.a % acl_sites.size()];
        const auto& entries =
            net.at(site.sw).config().in_acl(site.port).entries();
        if (entries.empty()) return false;
        const std::size_t idx = act.b % entries.size();
        const auto before = acl_snapshot(net, site, flows);
        if (!injector.remove_acl_entry(site.sw, site.port, /*inbound=*/true,
                                       idx))
          return false;
        const bool eff = before != acl_snapshot(net, site, flows);
        if (eff) note_effectful(act.cls, site.sw, /*flag_level=*/false);
        hints.push_back(
            {Hint::Kind::kPair, site.dst, site.src, kNoSwitch, false});
        trace << "apply " << current_round << " remove_acl_entry sw="
              << site.sw << " port=" << site.port << " idx=" << idx
              << " effectful=" << eff << "\n";
        return true;
      }
      case MutationClass::kAclShuffle: {
        if (acl_sites.empty()) return false;
        const AclSite& site = acl_sites[act.a % acl_sites.size()];
        auto& acls = net.at(site.sw).config().in_acls;
        auto it = acls.find(site.port);
        if (it == acls.end() || it->second.entries().size() < 2) return false;
        const std::size_t n = it->second.entries().size();
        std::size_t i = act.b % n, j = act.c % n;
        if (i == j) {
          i = 0;
          j = 1;
        }
        const auto before = acl_snapshot(net, site, flows);
        if (!it->second.swap_entries(i, j)) return false;
        const bool eff = before != acl_snapshot(net, site, flows);
        if (eff) note_effectful(act.cls, site.sw, /*flag_level=*/false);
        hints.push_back(
            {Hint::Kind::kPair, site.dst, site.src, kNoSwitch, false});
        trace << "apply " << current_round << " acl_shuffle sw=" << site.sw
              << " port=" << site.port << " i=" << i << " j=" << j
              << " effectful=" << eff << "\n";
        return true;
      }
      case MutationClass::kInstallLoss: {
        // Redeploying repairs every earlier rule/ACL-level mutation (the
        // physical tables are cleared and rebuilt), so their ground
        // truth is withdrawn; flag-level faults (ignore_priority)
        // survive FlowTable::clear and stay.
        const double loss = std::clamp(act.a, 50u, 500u) / 1000.0;
        RecordingLossyChannel lossy(
            loss, fnv1a(serialize(schedule) + ":install:" +
                        std::to_string(act.b)));
        c.deploy(net, &lossy);
        net.set_config_epoch(c.epoch());
        rule_level_truth.clear();
        int hinted = 0;
        bool eff = false;
        for (const auto& lost : lossy.lost()) {
          bool diverges = false;
          const FlowTable& log = c.logical(lost.sw).table;
          const FlowTable& phys = net.at(lost.sw).config().table;
          for (const auto& f : flows)
            if (log.lookup_port(f.header) != phys.lookup_port(f.header)) {
              diverges = true;
              break;
            }
          if (!diverges) continue;
          eff = true;
          rule_level_truth.push_back(lost.sw);
          if (hinted < 4 && !lost.rule.match.dst.is_any()) {
            hints.push_back({Hint::Kind::kDstPrefix, lost.rule.match.dst,
                             {},
                             kNoSwitch,
                             false});
            ++hinted;
          }
        }
        if (eff) note_effectful(act.cls, kNoSwitch, /*flag_level=*/false);
        trace << "apply " << current_round << " install_loss lost="
              << lossy.lost().size() << " effectful=" << eff << "\n";
        return true;
      }
      case MutationClass::kReportDrop:
      case MutationClass::kReportDuplicate:
      case MutationClass::kReportReorder:
      case MutationClass::kReportDelay:
      case MutationClass::kReportCorrupt: {
        const double rate = std::min(act.a, 500u) / 1000.0;
        if (act.cls == MutationClass::kReportDrop) chan_cfg.drop_rate = rate;
        if (act.cls == MutationClass::kReportDuplicate)
          chan_cfg.dup_rate = rate;
        if (act.cls == MutationClass::kReportReorder)
          chan_cfg.reorder_rate = rate;
        if (act.cls == MutationClass::kReportDelay) chan_cfg.delay_rate = rate;
        if (act.cls == MutationClass::kReportCorrupt)
          chan_cfg.corrupt_rate = rate;
        channel.configure(chan_cfg);
        trace << "apply " << current_round << " " << to_string(act.cls)
              << " rate=" << act.a << "\n";
        return true;
      }
      case MutationClass::kChurn: {
        // Controller-intended change, installed as a DELTA in both planes
        // (never via deploy(), which would silently repair injected
        // faults): a /32 blackhole inside an attached subnet.
        const auto& subs = topo.subnets();
        if (subs.empty()) return false;
        const auto& [port, sub] = subs[act.a % subs.size()];
        const Prefix p32(Ipv4{sub.addr | 2u}, 32);
        const RuleId id =
            c.add_rule(port.sw, 9000 + static_cast<std::int32_t>(churn_counter++),
                       Match::dst_prefix(p32), Action::drop());
        const FlowRule* lr = c.logical(port.sw).table.find(id);
        if (lr) net.at(port.sw).config().table.add(*lr);
        trace << "apply " << current_round << " churn sw=" << port.sw
              << " dst=" << to_string(p32) << "\n";
        return true;
      }
      case MutationClass::kAclChurn: {
        // A controller-intended ACL change after sync, mirrored onto the
        // physical port (both planes; like kChurn, never via deploy(),
        // which would repair injected faults). At an edge port that is
        // no campaign ACL site: add a port-80 deny toward a peer subnet,
        // or remove the ACL an earlier acl_churn left there.
        const auto& subs = topo.subnets();
        if (subs.size() < 2) return false;
        const auto& [eport, esub] = subs[act.a % subs.size()];
        const Prefix dsub = subs[act.b % subs.size()].second;
        for (const AclSite& site : acl_sites)
          if (site.sw == eport.sw && site.port == eport.port) return false;
        const bool add =
            c.logical(eport.sw).in_acl(eport.port).trivially_permits_all();
        Acl acl;  // permit-all: the removal
        if (add) {
          Match deny;
          deny.src = esub;
          deny.dst = dsub;
          deny.dst_port = 80;
          acl.deny(deny);
        }
        c.set_in_acl(eport.sw, eport.port, acl);
        net.at(eport.sw).config().in_acls[eport.port] = acl;
        hints.push_back({Hint::Kind::kPair, dsub, esub, kNoSwitch, false});
        trace << "apply " << current_round << " acl_churn sw=" << eport.sw
              << " port=" << eport.port << (add ? " added" : " removed")
              << "\n";
        return true;
      }
      case MutationClass::kOddPriority: {
        // A controller-intended rule whose priority is not its prefix
        // length, installed in both planes as a delta (as kChurn). Odd
        // salt: the subnet widened by one bit, delivered to the subnet's
        // port above every route, so the sibling half follows it there.
        // Even salt: the subnet itself at priority 1, shadowed by its
        // route.
        const auto& subs = topo.subnets();
        if (subs.empty()) return false;
        const auto& [port, sub] = subs[act.a % subs.size()];
        const bool above = act.b % 2 == 1;
        const std::uint8_t len =
            above && sub.len > 1 ? static_cast<std::uint8_t>(sub.len - 1)
                                 : sub.len;
        const Prefix p(Ipv4{sub.addr & Prefix::mask(len)}, len);
        const std::int32_t prio =
            above ? 50000 + static_cast<std::int32_t>(act.b) : 1;
        const RuleId id =
            c.add_rule(port.sw, prio, Match::dst_prefix(p),
                       above ? Action::output(port.port) : Action::drop());
        const FlowRule* lr = c.logical(port.sw).table.find(id);
        if (lr) net.at(port.sw).config().table.add(*lr);
        hints.push_back({Hint::Kind::kDstPrefix, p, {}, kNoSwitch, false});
        trace << "apply " << current_round << " odd_priority sw=" << port.sw
              << " dst=" << to_string(p) << " priority=" << prio << "\n";
        return true;
      }
    }
    return false;
  };

  // ---- Round loop --------------------------------------------------------
  std::vector<char> selected(flows.size(), 0);
  for (int round = 0; round < rounds; ++round) {
    current_round = round;

    for (const FuzzAction& act : schedule.actions) {
      const int eff_round = std::min(act.round, rounds - 1);
      if (eff_round != round) continue;
      if (apply(act)) {
        ++result.applied;
      } else {
        trace << "skip " << round << " " << to_string(act.cls) << "\n";
      }
    }

    // Align both servers on the post-mutation epoch BEFORE stamping any
    // probe: reports must only ever carry epochs the snapshot rings
    // cover, or sequential and parallel could classify staleness
    // differently.
    net.set_config_epoch(c.epoch());
    (void)server.table();
    parallel.publish();

    // Probe set: the control sample plus every active mutation's
    // targeted flows.
    std::fill(selected.begin(), selected.end(), 0);
    bool broad = false;
    for (const Hint& h : hints)
      if (h.broad) broad = true;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (broad || i % stride == 0) {
        selected[i] = 1;
        continue;
      }
      for (const Hint& h : hints) {
        const auto& f = flows[i];
        const bool hit =
            (h.kind == Hint::Kind::kDstPrefix && h.dst.contains(f.header.dst_ip)) ||
            (h.kind == Hint::Kind::kPair && h.src.contains(f.header.src_ip) &&
             h.dst.contains(f.header.dst_ip)) ||
            (h.kind == Hint::Kind::kSwitch && f.entry.sw == h.sw);
        if (hit) {
          selected[i] = 1;
          break;
        }
      }
    }
    // A switch-scoped hint that selected nothing beyond the sample means
    // the mutated switch owns no probe entry point — widen to every flow
    // so transit paths through it are still exercised.
    for (Hint& h : hints) {
      if (h.kind != Hint::Kind::kSwitch || h.broad) continue;
      bool any = false;
      for (std::size_t i = 0; i < flows.size(); ++i)
        if (flows[i].entry.sw == h.sw) any = true;
      if (!any) {
        h.broad = true;
        std::fill(selected.begin(), selected.end(), 1);
      }
    }

    std::size_t probes = 0;
    for (int k = 0; k < copies; ++k) {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (!selected[i]) continue;
        ++probes;
        const auto r = net.inject(flows[i].header, flows[i].entry,
                                  static_cast<double>(round) + 0.01 * k);
        for (const TagReport& rep : r.reports) channel.send(rep);
      }
    }

    while (auto d = channel.deliver()) {
      ingest.offer(*d);
      if (!ingest.health().conserved()) result.conserved = false;
    }
    ingest.process();
    const ControlDecision dec = governor.tick(server.in_failsafe());
    result.regimes_seen |= regime_bit(dec.regime);
    if (!ingest.health().conserved()) result.conserved = false;

    const IngestHealth h = ingest.health();
    trace << "round " << round << " probes=" << probes << " sent="
          << channel.stats().sent << " passed=" << h.passed << " failed="
          << h.failed << " stale=" << h.stale << " shed=" << h.shed
          << " quar=" << h.quarantined << " dedup=" << h.deduped
          << " regime=" << to_string(dec.regime) << " factor="
          << fmt_factor(dec.sampling_factor) << "\n";
  }

  // ---- Cooldown + final accounting --------------------------------------
  current_round = rounds;
  channel.flush();
  while (auto d = channel.deliver()) {
    ingest.offer(*d);
    if (!ingest.health().conserved()) result.conserved = false;
  }
  ingest.process();
  for (int i = 0; i < 3; ++i) governor.tick(server.in_failsafe());
  if (!ingest.health().conserved()) result.conserved = false;

  result.faulty_switches = rule_level_truth;
  result.faulty_switches.insert(result.faulty_switches.end(),
                                flag_level_truth.begin(),
                                flag_level_truth.end());
  std::sort(result.faulty_switches.begin(), result.faulty_switches.end());
  result.faulty_switches.erase(std::unique(result.faulty_switches.begin(),
                                           result.faulty_switches.end()),
                               result.faulty_switches.end());
  for (const SwitchId b : result.blamed)
    if (std::binary_search(result.faulty_switches.begin(),
                           result.faulty_switches.end(), b))
      result.localized = true;

  const IngestHealth h = ingest.health();
  result.received = h.received;
  result.passed = h.passed;
  result.stale = h.stale;
  result.shed = h.shed;
  result.quarantined = h.quarantined;
  result.deduped = h.deduped;

  trace << "final received=" << h.received << " passed=" << h.passed
        << " failed=" << h.failed << " stale=" << h.stale << " shed="
        << h.shed << " quarantined=" << h.quarantined << " dedup="
        << h.deduped << " conserved=" << result.conserved << "\n";
  trace << "truth effectful=" << result.harmful_effectful << " switches=";
  for (std::size_t i = 0; i < result.faulty_switches.size(); ++i)
    trace << (i ? "," : "") << result.faulty_switches[i];
  trace << " classes=";
  for (std::size_t i = 0; i < result.effectful_classes.size(); ++i)
    trace << (i ? "," : "") << to_string(result.effectful_classes[i]);
  trace << "\n";
  trace << "oracle detected=" << result.detected << " round="
        << result.detect_round << " localized=" << result.localized
        << " false_positives=" << result.false_positives << "\n";

  // ---- Sequential/parallel oracle equality -------------------------------
  // The verified stream runs through the lanes of the stopped server.
  // Its copies carry seq 0: seq never reaches a verdict or the memo key,
  // and seq 0 skips dedup, so every report must be verified — a shed or
  // deduped one is a mismatch, not a silent drop.
  if (knobs_.check_parallel) {
    parallel.publish();
    for (TagReport r : verified_stream) {
      r.seq = 0;
      parallel.submit(r);
    }
    parallel.start();
    parallel.drain();
    const IngestHealth t = parallel.health();
    result.parallel_match = t.shed == 0 && t.deduped == 0 &&
                            t.verified == verified_stream.size() &&
                            t.passed == tally_passed &&
                            t.failed == tally_failed &&
                            t.stale == tally_stale;
    trace << "parallel verified=" << t.verified << " passed=" << t.passed
          << " failed=" << t.failed << " stale=" << t.stale << " match="
          << result.parallel_match << "\n";
  }

  result.trace = trace.str();
  result.digest = fnv1a(result.trace);
  return result;
}

}  // namespace fuzz
}  // namespace veridp
