#include "veridp/localizer.hpp"

#include "bloom/bloom.hpp"

namespace veridp {

namespace {

void add_candidate(LocalizeResult& result, std::vector<Hop> path,
                   SwitchId blamed) {
  for (const Candidate& c : result.candidates)
    if (c.path == path) return;  // dedupe
  result.candidates.push_back(Candidate{std::move(path), blamed});
}

}  // namespace

LocalizeResult Localizer::infer(const TagReport& report) const {
  LocalizeResult result;

  // Phase 1: the correct path's prefix that the tag agrees with. Per the
  // pseudocode, the first *failing* hop is pushed too and popped first.
  std::vector<Hop> com_path;
  for (const Hop& hop :
       logical_walk(*topo_, *configs_, report.inport, report.header)) {
    com_path.push_back(hop);
    if (!report.tag.may_contain(hop)) break;
  }

  // Phase 2: backtrack, trying alternative output ports at each popped
  // hop's switch and following (assumed healthy) downstream control
  // plane until the reported outport is reached.
  while (!com_path.empty()) {
    const Hop dev_hop = com_path.back();
    com_path.pop_back();
    const SwitchId s = dev_hop.sw;
    const PortId x = dev_hop.in;
    const PortId n = topo_->num_ports(s);

    // Candidate output hops: data ports, then ⊥.
    for (PortId yi = 1; yi <= n + 1; ++yi) {
      const PortId y = (yi == n + 1) ? kDropPort : yi;
      const Hop first{x, s, y};
      if (!report.tag.may_contain(first)) continue;

      std::vector<Hop> dev_path{first};
      const PortKey out{s, y};

      if (y == kDropPort || topo_->is_edge_port(out)) {
        // The deviating hop itself terminates the path.
        if (out == report.outport) {
          std::vector<Hop> full = com_path;
          full.push_back(first);
          add_candidate(result, std::move(full), s);
        }
        continue;
      }

      const auto next = topo_->peer(out);
      if (!next) continue;
      const std::vector<Hop> downstream =
          logical_walk(*topo_, *configs_, *next, report.header);
      for (const Hop& hop : downstream) {
        if (!report.tag.may_contain(hop)) break;  // dismiss this branch
        dev_path.push_back(hop);
        if (PortKey{hop.sw, hop.out} == report.outport) {
          std::vector<Hop> full = com_path;
          full.insert(full.end(), dev_path.begin(), dev_path.end());
          add_candidate(result, std::move(full), s);
          break;
        }
      }
    }
  }
  return result;
}

}  // namespace veridp
