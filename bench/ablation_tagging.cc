// Ablation: Bloom-filter tags vs hash-based (XOR) tags — the §3.3
// design decision. "Initially, we were tempted to use hash-based
// tagging ... Later, we found that this tagging method prevents us from
// localizing the faulty switch."
//
// We repeat the Table-3 experiment on a fat tree with both schemes.
// Detection: both flag deviations (XOR tags even collide less at equal
// width). Localization: the Bloom scheme recovers the real path via
// Algorithm 4's membership tests; for XOR tags no membership test
// exists, so the only recourse is enumerating candidate paths and
// re-hashing each — we bound that search and report both its success
// rate within the budget and the number of candidate paths it must try.
#include <deque>

#include "bench_common.hpp"
#include "bloom/xor_tag.hpp"
#include "dataplane/fault.hpp"
#include "flow/walk.hpp"
#include "veridp/localizer.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

XorHashTag xor_tag_of(const std::vector<Hop>& path, int bits) {
  XorHashTag t(bits);
  for (const Hop& h : path) t.insert(h);
  return t;
}

// Brute-force localization for XOR tags: enumerate paths that share a
// prefix with the correct path, deviate once, and continue along the
// control plane; accept a candidate iff its XOR hash equals the tag.
// Unlike Algorithm 4 there is no per-hop test to prune with, so the
// search must fully expand each deviation branch.
struct XorSearchResult {
  bool recovered = false;
  std::size_t candidates_hashed = 0;
};

XorSearchResult xor_localize(const Topology& topo,
                             const std::vector<SwitchConfig>& configs,
                             const TagReport& report,
                             const XorHashTag& reported,
                             const std::vector<Hop>& real_path, int bits,
                             std::size_t budget) {
  XorSearchResult res;
  const std::vector<Hop> correct =
      logical_walk(topo, configs, report.inport, report.header);
  for (std::size_t keep = 0; keep <= correct.size(); ++keep) {
    // Keep `keep` hops of the correct path, then deviate at the next
    // switch through every output port.
    if (keep == correct.size()) break;
    std::vector<Hop> prefix(correct.begin(),
                            correct.begin() + static_cast<std::ptrdiff_t>(keep));
    const Hop at = correct[keep];
    for (PortId y = 1; y <= topo.num_ports(at.sw) + 1; ++y) {
      const PortId out = y == topo.num_ports(at.sw) + 1 ? kDropPort : y;
      std::vector<Hop> cand = prefix;
      cand.push_back(Hop{at.in, at.sw, out});
      if (out != kDropPort && !topo.is_edge_port(PortKey{at.sw, out})) {
        const auto peer = topo.peer(PortKey{at.sw, out});
        if (!peer) continue;
        const auto rest = logical_walk(topo, configs, *peer, report.header);
        cand.insert(cand.end(), rest.begin(), rest.end());
      }
      if (PortKey{cand.back().sw, cand.back().out} != report.outport)
        continue;
      ++res.candidates_hashed;
      if (res.candidates_hashed > budget) return res;
      if (xor_tag_of(cand, bits) == reported && cand == real_path) {
        res.recovered = true;
        return res;
      }
    }
  }
  return res;
}

}  // namespace

int main() {
  rule_header("Ablation: Bloom-filter tags vs XOR-hash tags (3.3)");
  const int bits = 16;

  struct Row {
    std::string name;
    std::size_t reports = 0;
    std::size_t bloom_detected = 0, bloom_recovered = 0, bloom_tests = 0;
    std::size_t xor_detected = 0, xor_recovered = 0, xor_hashes = 0;
  };
  std::vector<Row> rows;

  auto campaign = [&](std::string name, Topology topo, int trials,
                      bool per_flow, std::uint64_t seed) {
    Row row;
    row.name = std::move(name);
    Controller c(topo);
    if (per_flow)
      routing::install_per_flow_paths(c);
    else
      routing::install_shortest_paths(c);
    HeaderSpace space;
    ConfigTransferProvider provider(space, topo, c.logical_configs());
    const PathTable table =
        PathTableBuilder(space, topo, provider, bits).build();
    Localizer localizer(topo, c.logical_configs());
    const auto flows = workload::ping_all(topo);

    Rng rng(seed);
    for (int t = 0; t < trials; ++t) {
      Network net(topo, bits);
      c.deploy(net);
      FaultInjector inject(net);
      for (;;) {
        const SwitchId sw =
            static_cast<SwitchId>(rng.index(topo.num_switches()));
        const auto& rules = net.at(sw).config().table.rules();
        if (rules.empty()) continue;
        const FlowRule& victim = rules[rng.index(rules.size())];
        const PortId wrong =
            static_cast<PortId>(1 + rng.index(topo.num_ports(sw)));
        if (wrong == victim.action.out) continue;
        if (inject.rewrite_rule_output(sw, victim.id, wrong)) break;
      }

      for (const auto& f : flows) {
        const auto r = net.inject(f.header, f.entry);
        for (const TagReport& rep : r.reports) {
          const bool bloom_fail = !verify_report(rep, table).ok();
          const XorHashTag carried = xor_tag_of(r.path, bits);
          const std::vector<Hop> correct = logical_walk(
              topo, c.logical_configs(), rep.inport, rep.header);
          const bool header_routed =
              PortKey{correct.back().sw, correct.back().out} == rep.outport;
          const bool xor_fail =
              !header_routed || !(carried == xor_tag_of(correct, bits));
          if (!bloom_fail && !xor_fail) continue;
          ++row.reports;
          if (bloom_fail) {
            ++row.bloom_detected;
            // Algorithm 4's work: per-hop membership tests, roughly
            // path length x out-degree at the backtrack frontier.
            row.bloom_tests +=
                correct.size() * (topo.num_ports(correct[0].sw) + 1);
            if (localizer.infer(rep).recovered(r.path)) ++row.bloom_recovered;
          }
          if (xor_fail) {
            ++row.xor_detected;
            const auto sr = xor_localize(topo, c.logical_configs(), rep,
                                         carried, r.path, bits, 1000000);
            row.xor_hashes += sr.candidates_hashed;
            if (sr.recovered) ++row.xor_recovered;
          }
        }
      }
    }
    rows.push_back(row);
  };

  campaign("FT(k=4) per-flow", fat_tree(4), 150, true, 606);
  campaign("FT(k=6) per-flow", fat_tree(6), 30, true, 607);
  campaign("Stanford dst-based", stanford_like(14, 3), 30, false, 608);

  std::printf("%-20s %8s | %8s %9s %11s | %8s %9s %11s\n", "setup",
              "reports", "B.detect", "B.recover", "B.hop-tests", "X.detect",
              "X.recover", "X.rehashes");
  for (const Row& r : rows)
    std::printf("%-20s %8zu | %8zu %9zu %11zu | %8zu %9zu %11zu\n",
                r.name.c_str(), r.reports, r.bloom_detected,
                r.bloom_recovered, r.bloom_tests, r.xor_detected,
                r.xor_recovered, r.xor_hashes);

  std::printf(
      "\nBloom tags answer per-hop membership queries, so Algorithm 4 does\n"
      "a handful of constant-time tests per report. XOR tags admit no\n"
      "membership test: localization degenerates to enumerating candidate\n"
      "paths and re-hashing whole paths (X.rehashes), which only covers\n"
      "single-deviation faults and grows with degree x path length; on the\n"
      "dst-routed backbone it also misses the loop-back deviations that\n"
      "Algorithm 4 can still explain. XOR additionally cancels any hop\n"
      "traversed an even number of times (see test_wildcard.cc), hiding\n"
      "period-2 loop segments from detection. This is why the paper chose\n"
      "Bloom filters over plain hashes (3.3).\n");
  return 0;
}
