// End-to-end, layer-attributed benchmark of VeriDP's report path and
// update path.
//
//   perfbench_e2e --workload NAME --seed N --seconds S [--trace 0|1]
//                 [--trace-out FILE] [--tiny]
//
// One process runs one workload, so set-up time and peak memory belong
// to that workload alone. A workload is a closed loop of rounds on one
// producer thread; each round runs, in order:
//
//   1. Network::inject for the round's flows (Algorithm 1 sampling and
//      tagging in the simulated switches),
//   2. wire::encode_report for every report,
//   3. ReportChannel send/deliver for every datagram,
//   4. ReportIngest::offer + process on the sequential Server,
//   5. Server::localize for every failed verdict,
//   6. the same datagrams through ParallelServer (2 workers):
//      submit_datagram, then drain,
//   7. the round's rule events: controller add/delete, Server::table(),
//      ParallelServer::publish(), Controller::deploy.
//
// Every layer is timed from outside, around the calls into its public
// functions; round 0 is a warm-up and is not timed. Ground truth is
// recorded at inject time (the real path against logical_walk over the
// controller's configs) and matched to the sequential verdicts by
// (reporting switch, seq). The process exits 1 on any false positive,
// conservation violation or sequential/parallel disagreement.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}} with every metric that
// has samples on this workload. With --trace 1 alternate measured rounds
// record spans, and the per-layer self times and counts are printed; the
// spans are written to --trace-out at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "dataplane/fault.hpp"
#include "dataplane/wire.hpp"
#include "flow/walk.hpp"
#include "trace.hpp"
#include "veridp/channel.hpp"
#include "veridp/ingest.hpp"
#include "veridp/parallel_server.hpp"
#include "veridp/report_batch.hpp"

namespace veridp::perfbench {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Independent deterministic streams from one --seed (splitmix64).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Traffic {
  kUniform,  ///< uniform draws from a pool of random flows
  kSkewed,   ///< skewed draws from all host pairs, a fixed share faulty
};

struct Workload {
  const char* name;
  Server::Mode mode;  ///< sequential Server maintenance mode
  Traffic traffic;
  std::size_t flow_pool;  ///< distinct flows (kUniform)
  std::size_t flows_per_round;
  std::size_t events_per_round;  ///< 0 = no churn
  bool faults;
  ChannelConfig channel;
  std::size_t setups;  ///< set-ups timed for setup_s (about 2 s of them)
};

// Why these three: stanford_steady stresses the simulated data plane and
// memo-miss verify on a large table and bypasses the update path and the
// localizer; internet2_churn stresses the update path (incremental
// update, publish, epoch checking) and ingest dedup/quarantine under a
// lossy channel; fattree_faults stresses the localizer and memo-hit
// verify. See BENCHMARK.json for the per-workload notes.
std::optional<Workload> find_workload(const std::string& name, bool tiny) {
  const std::size_t per_round = tiny ? 100 : 4000;
  const auto setups = [tiny](std::size_t n) { return tiny ? 2 : n; };
  if (name == "stanford_steady")
    return Workload{"stanford_steady", Server::Mode::kFullRebuild,
                    Traffic::kUniform, tiny ? 500u : 20000u, per_round, 0,
                    false, ChannelConfig{}, setups(3)};
  if (name == "internet2_churn") {
    ChannelConfig ch;
    ch.drop_rate = 0.05;
    ch.dup_rate = 0.05;
    ch.reorder_rate = 0.05;
    ch.corrupt_rate = 0.01;
    return Workload{"internet2_churn", Server::Mode::kIncremental,
                    Traffic::kUniform, tiny ? 200u : 4000u, per_round, 2,
                    false, ch, setups(21)};
  }
  if (name == "fattree_faults")
    return Workload{"fattree_faults", Server::Mode::kFullRebuild,
                    Traffic::kSkewed, 0, per_round, 0, true, ChannelConfig{},
                    setups(41)};
  return std::nullopt;
}

bench::Setup make_setup(const std::string& name, bool tiny) {
  if (name == "stanford_steady")
    return tiny ? bench::make_stanford(1, 300, 10) : bench::make_stanford();
  if (name == "internet2_churn")
    return tiny ? bench::make_internet2(2, 100) : bench::make_internet2(10, 2000);
  return bench::make_fat_tree(tiny ? 4 : 8);
}

ParallelConfig parallel_config() {
  ParallelConfig cfg;
  cfg.workers = 2;
  // The sequential ingest's batch size, so both servers verify the same
  // batches' worth of reports per kernel call.
  cfg.batch_size = autotuned_batch_size();
  // Large enough that a round never sheds: shedding depends on thread
  // timing, and the sequential/parallel parity check needs both sides
  // to verify every admitted report.
  cfg.queue_capacity = 1u << 16;
  cfg.high_watermark = (1u << 16) - 1;
  return cfg;
}

IngestConfig ingest_config() {
  IngestConfig cfg;
  cfg.capacity = 1u << 16;
  cfg.high_watermark = (1u << 16) - 1;
  return cfg;
}

/// A more-specific dst-prefix rule installed by the churn sequence.
struct ChurnRule {
  SwitchId sw = kNoSwitch;
  RuleId id = kNoRule;
  Prefix prefix;
  PortId out = kDropPort;
};

/// Equal-cost next-hop ports toward `dst` for every switch (BFS).
std::vector<std::vector<PortId>> ecmp_toward(const Topology& topo,
                                             SwitchId dst) {
  std::vector<int> dist(topo.num_switches(), -1);
  dist[dst] = 0;
  std::deque<SwitchId> queue{dst};
  while (!queue.empty()) {
    const SwitchId cur = queue.front();
    queue.pop_front();
    for (const auto& [port, remote] : topo.neighbors(cur)) {
      (void)port;
      if (dist[remote.sw] == -1) {
        dist[remote.sw] = dist[cur] + 1;
        queue.push_back(remote.sw);
      }
    }
  }
  std::vector<std::vector<PortId>> next(topo.num_switches());
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    for (const auto& [port, remote] : topo.neighbors(s))
      if (dist[s] > 0 && dist[remote.sw] == dist[s] - 1)
        next[s].push_back(port);
  return next;
}

/// Rule churn of internet2_churn: adds and deletes alternate, so the
/// table size stays level. Rules are /29–/30 dst prefixes (longer than
/// every generated rule, so never a duplicate) with priority equal to
/// the prefix length — the §4.4 fragment kIncremental accepts — and
/// forward along a random equal-cost shortest path, so they never loop.
class Churn {
 public:
  Churn(const Topology& topo, std::uint64_t seed) : topo_(&topo), rng_(seed) {
    for (const auto& [port, subnet] : topo.subnets())
      if (!ecmp_.contains(port.sw)) ecmp_.emplace(port.sw, ecmp_toward(topo, port.sw));
  }

  /// Draws the next rule to add (the untimed part of an add event).
  ChurnRule draw() {
    const auto& subnets = topo_->subnets();
    for (;;) {
      const auto& [dst, subnet] = subnets[rng_.index(subnets.size())];
      if (subnet.len >= 29) continue;
      const auto len = static_cast<std::uint8_t>(rng_.uniform(29, 30));
      const auto bits = static_cast<std::uint32_t>(rng_.uniform(0, 0xffffffffULL));
      const Prefix p(subnet.addr | (bits & ~Prefix::mask(subnet.len)), len);
      const auto sw = static_cast<SwitchId>(rng_.index(topo_->num_switches()));
      PortId out = dst.port;
      if (sw != dst.sw) {
        const auto& hops = ecmp_.at(dst.sw)[sw];
        if (hops.empty()) continue;
        out = hops[rng_.index(hops.size())];
      }
      if (!used_.insert(key(sw, p)).second) continue;
      return ChurnRule{sw, kNoRule, p, out};
    }
  }
  /// Installs a drawn rule through the controller (publishing its event).
  void add(Controller& c, ChurnRule r) {
    r.id = c.add_rule(r.sw, r.prefix.len, Match::dst_prefix(r.prefix),
                      Action::output(r.out));
    live_.push_back(r);
  }
  /// Picks a live rule to delete and forgets it (the untimed part).
  ChurnRule take_victim() {
    const std::size_t i = rng_.index(live_.size());
    const ChurnRule r = live_[i];
    live_[i] = live_.back();
    live_.pop_back();
    used_.erase(key(r.sw, r.prefix));
    return r;
  }

 private:
  const Topology* topo_;
  Rng rng_;
  std::unordered_map<SwitchId, std::vector<std::vector<PortId>>> ecmp_;
  std::unordered_set<std::uint64_t> used_;
  std::vector<ChurnRule> live_;

  static std::uint64_t key(SwitchId sw, const Prefix& p) {
    return (std::uint64_t{sw} << 40) | (std::uint64_t{p.len} << 32) | p.addr;
  }
};

/// Kinds of the seeded switch faults of fattree_faults.
enum FaultKind {
  kCatchAllToHost,    ///< external rule: one host port's packets to another host
  kRewrite,           ///< a quarter of the uplink rules point at another uplink
  kCatchAllToUplink,  ///< external rule: one host port's packets up one uplink
  kFaultKinds
};

/// Seeded switch faults for fattree_faults, on half the edge switches in
/// a seeded order, kinds in the fixed cycle host catch-all, rewrite,
/// uplink catch-all, rewrite. The seed picks only which switch, port and
/// rules — symmetric choices in a fat tree — so the mix of fault kinds,
/// and with it the localization cost, does not depend on the seed. Each
/// kind only touches traffic entering from the switch's own hosts, so a
/// faulty path deviates at exactly one switch, its entry switch, with
/// healthy switches downstream — the single-deviation case Algorithm 4
/// localizes. (A path crossing two faulty switches is outside it.)
/// Returns the kind of fault on each faulty switch.
std::unordered_map<SwitchId, FaultKind> place_faults(const Topology& topo,
                                                     Network& net,
                                                     FaultInjector& inj,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  const auto ports = [&topo](SwitchId s, bool host) {
    std::vector<PortId> out;
    for (PortId p = 1; p <= topo.num_ports(s); ++p)
      if (topo.is_edge_port(PortKey{s, p}) == host) out.push_back(p);
    return out;
  };
  std::vector<SwitchId> edges;
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    if (!ports(s, true).empty()) edges.push_back(s);
  std::shuffle(edges.begin(), edges.end(), rng.engine());
  std::unordered_map<SwitchId, FaultKind> faulty;
  for (std::size_t i = 0; i < edges.size() / 2; ++i) {
    const SwitchId sw = edges[i];
    const auto uplinks = ports(sw, false);
    if (i % 2 == 0) {
      const FaultKind kind = i % 4 == 0 ? kCatchAllToHost : kCatchAllToUplink;
      const auto hosts = ports(sw, true);
      Match from_host;
      from_host.in_port = hosts[rng.index(hosts.size())];
      auto outs = kind == kCatchAllToHost ? hosts : uplinks;
      std::erase(outs, *from_host.in_port);
      if (outs.empty()) continue;
      inj.insert_external_rule(
          sw, FlowRule{static_cast<RuleId>(900001 + i), 1000, from_host,
                       Action::output(outs[rng.index(outs.size())])});
      faulty.emplace(sw, kind);
      continue;
    }
    std::vector<FlowRule> up;
    for (const FlowRule& r : net.at(sw).config().table.rules())
      if (topo.valid_port(PortKey{sw, r.action.out}) &&
          !topo.is_edge_port(PortKey{sw, r.action.out}))
        up.push_back(r);
    if (up.empty() || uplinks.size() < 2) continue;
    std::shuffle(up.begin(), up.end(), rng.engine());
    for (std::size_t v = 0; v < (up.size() + 3) / 4; ++v) {
      auto others = uplinks;
      std::erase(others, up[v].action.out);
      inj.rewrite_rule_output(sw, up[v].id, others[rng.index(others.size())]);
    }
    faulty.emplace(sw, kRewrite);
  }
  return faulty;
}

/// Rules the data plane scans to forward `h` along `path` (tables are
/// scanned in priority order): with the hop count, a flow's
/// data-plane cost.
std::size_t rules_scanned(const std::vector<SwitchConfig>& configs,
                          const std::vector<Hop>& path,
                          const PacketHeader& h) {
  std::size_t n = 0;
  for (const Hop& hop : path)
    for (const FlowRule& r : configs[hop.sw].table.rules()) {
      ++n;
      if (r.match.applies_at(hop.in) && r.match.matches(h)) break;
    }
  return n;
}

/// Zipf(s) draws over [0, n): a small hot set takes most draws.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
  }
  std::size_t draw(Rng& rng) const {
    const double u = rng.real() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One deployment: topology and rules, both servers synced, the data
/// plane deployed and (fattree_faults) the faults placed. Constructing
/// it is what setup_s measures.
struct World {
  World(const Workload& w, bool tiny, std::uint64_t seed)
      : setup(make_setup(w.name, tiny)),
        churn(setup.topo, sub_seed(seed, 1)),
        server(setup.controller, w.mode, BloomTag::kDefaultBits, setup.space),
        parallel(setup.controller, parallel_config()),
        net(setup.topo),
        injector(net) {
    if (w.events_per_round > 0)
      for (int i = 0; i < (tiny ? 8 : 64); ++i)
        churn.add(setup.controller, churn.draw());
    server.enable_epoch_checking();
    parallel.enable_epoch_checking();
    server.sync();
    parallel.sync();
    setup.controller.deploy(net);
    net.set_config_epoch(setup.controller.epoch());
    if (w.faults)
      faulty_switches =
          place_faults(setup.topo, net, injector, sub_seed(seed, 2));
  }

  bench::Setup setup;
  Churn churn;
  Server server;
  ParallelServer parallel;
  Network net;
  FaultInjector injector;
  std::unordered_map<SwitchId, FaultKind> faulty_switches;
};

// ---------------------------------------------------------------------------
// Timing

enum Layer {
  kRound,
  kInject,
  kEncode,
  kChannel,
  kOffer,
  kProcess,
  kLocalize,
  kSubmit,
  kDrain,
  kEvent,
  kController,
  kTable,
  kPublish,
  kDeploy,
  kLayers
};

/// Span names: the module each timed call goes into, then the call.
constexpr const char* kLayerName[kLayers] = {
    "round",
    "dataplane.inject",
    "wire.encode",
    "channel.carry",
    "ingest.offer",
    "verifier.process",
    "localizer.localize",
    "parallel_server.submit",
    "parallel_server.drain",
    "rule_event",
    "controller.event",
    "server.table",
    "parallel_server.publish",
    "controller.deploy"};

struct Totals {
  std::uint64_t ns[kLayers] = {};
  std::uint64_t items[kLayers] = {};
  std::uint64_t calls[kLayers] = {};
};

/// Ground-truth gate counters. Every check is one attempted operation;
/// the failed ones make up error_rate.
struct Gate {
  std::uint64_t checked = 0;     ///< verdicts matched to ground truth
  std::uint64_t false_pos = 0;   ///< failed verdict, real path correct
  std::uint64_t false_neg = 0;   ///< passed verdict, real path wrong
  std::uint64_t unmatched = 0;   ///< verdict with no recorded report
  std::uint64_t localized = 0;   ///< localize calls
  std::uint64_t localize_miss = 0;  ///< real path not among candidates
  std::uint64_t conservation_checks = 0;
  std::uint64_t conservation_violations = 0;
  std::uint64_t parity_checks = 0;  ///< sequential vs parallel failed count
  std::uint64_t parity_mismatches = 0;

  [[nodiscard]] std::uint64_t attempted() const {
    return checked + unmatched + localized + conservation_checks +
           parity_checks;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return false_pos + false_neg + unmatched + localize_miss +
           conservation_violations + parity_mismatches;
  }
  /// Failures that make the run incorrect (exit 1).
  [[nodiscard]] bool fatal() const {
    return false_pos + unmatched + conservation_violations +
               parity_mismatches >
           0;
  }
};

struct Truth {
  std::uint32_t round = 0;
  bool faulty = false;
  std::vector<Hop> path;  ///< real path, kept for faulty reports only
};

std::uint64_t report_key(const TagReport& r) {
  return (std::uint64_t{r.outport.sw} << 32) | r.seq;
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(const Workload& w, World& world, std::uint64_t seed)
      : w_(w),
        world_(world),
        channel_([&] {
          ChannelConfig ch = w.channel;
          ch.seed = sub_seed(seed, 3);
          return ch;
        }()),
        ingest_(world.server, ingest_config()),
        flow_rng_(sub_seed(seed, 4)) {
    ingest_.set_verdict_sink([this](const TagReport& r, const Verdict& v) {
      verdicts_.push_back({report_key(r), v.status});
      if (v.failed()) failed_reports_.push_back(r);
    });
    make_flows(seed);
  }

  void run(double seconds, bool trace, std::size_t max_rounds);
  [[nodiscard]] std::vector<Metric> end_to_end(double setup_s) const;
  [[nodiscard]] std::vector<Metric> per_layer() const;
  void print_self_times() const;
  [[nodiscard]] const Gate& gate() const { return gate_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }
  [[nodiscard]] std::uint32_t measured_rounds() const { return measured_rounds_; }
  [[nodiscard]] std::size_t event_samples() const { return update_ms_.size(); }
  [[nodiscard]] std::size_t localize_samples() const {
    return localize_us_.size();
  }
  [[nodiscard]] std::size_t faulty_pairs() const {
    std::size_t n = 0;
    for (const auto& c : faulty_) n += c.size();
    return n;
  }
  [[nodiscard]] std::size_t undetectable() const { return undetectable_; }

 private:
  /// Times one call (or loop of calls) into a layer: accumulates into
  /// the measured totals and, in traced rounds, records a span.
  class Timed {
   public:
    Timed(Bench& b, Layer l, std::int32_t parent)
        : b_(b), l_(l), t0_(now_ns()),
          span_(b.tracer_.open(kLayerName[l], parent, b.round_, t0_)) {}
    std::uint64_t stop(std::uint64_t items) {
      const std::uint64_t t1 = now_ns();
      b_.tracer_.close(span_, t1, items);
      const std::uint64_t d = t1 - t0_;
      if (b_.measuring_) {
        b_.tot_.ns[l_] += d;
        b_.tot_.items[l_] += items;
        ++b_.tot_.calls[l_];
      }
      return d;
    }
    [[nodiscard]] std::int32_t span() const { return span_; }

   private:
    Bench& b_;
    Layer l_;
    std::uint64_t t0_;
    std::int32_t span_;
  };

  void make_flows(std::uint64_t seed);
  void draw_round_flows();
  void run_round();
  void record_truth(std::size_t flow, const ForwardResult& fr);
  void check_verdicts();
  void rule_event(std::int32_t parent);

  const Workload& w_;
  World& world_;
  ReportChannel channel_;
  ReportIngest ingest_;
  Rng flow_rng_;
  Tracer tracer_;
  Gate gate_;
  Totals tot_;
  bool measuring_ = false;
  std::uint32_t round_ = 0;
  std::uint32_t measured_rounds_ = 0;
  std::uint64_t events_ = 0;

  // Traffic.
  std::vector<workload::Flow> flows_;
  // kSkewed: healthy flow indices by rank, faulty ones by fault kind.
  std::vector<std::size_t> clean_;
  std::vector<std::vector<std::size_t>> faulty_;
  std::size_t faulty_drawn_ = 0;
  std::size_t undetectable_ = 0;  ///< changed pairs with the correct tag
  std::optional<Zipf> clean_zipf_;
  std::vector<std::size_t> round_flows_;

  // Per-round buffers (reused).
  std::vector<ForwardResult> results_;
  std::vector<const TagReport*> reports_;
  std::vector<std::vector<std::uint8_t>> encoded_;
  std::vector<std::vector<std::uint8_t>> delivered_;
  std::vector<std::pair<std::uint64_t, VerifyStatus>> verdicts_;
  std::vector<TagReport> failed_reports_;
  std::unordered_map<std::uint64_t, Truth> truth_;

  // Samples and counters over measured rounds.
  std::vector<double> update_ms_, publish_ms_, localize_us_, event_ms_;
  std::uint64_t localize_hits_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  std::uint64_t memo_hits0_ = 0, memo_hits1_ = 0;
  std::uint64_t verified0_ = 0, verified1_ = 0;
  ScalTotals prof0_, prof1_;
  // Per measured round: the time each end-to-end rate divides by.
  struct RoundRecord {
    std::uint64_t seq_ns;     ///< sequential loop (steps 1-5 and 7 minus publish)
    std::uint64_t server_ns;  ///< inside the sequential monitor's calls
    std::uint64_t par_ns;     ///< submit_datagram ... drain
    std::uint64_t verified;   ///< sequential verdicts
    std::uint64_t offered;    ///< datagrams offered (and submitted)
    bool traced;
  };
  std::vector<RoundRecord> rounds_;
  /// First quartile of the per-round rates items/ns: the rate three in
  /// four measured rounds reach. On a shared host, load from outside
  /// the process makes stretches of a run faster or slower for seconds
  /// at a time; the lower quartile follows the steady rate they leave,
  /// where a median or mean follows how much of the run they covered.
  /// Traced runs pick traced or untraced rounds only.
  template <class Items, class Ns>
  double round_rate(Items items, Ns ns, int traced = -1) const;
};

void Bench::make_flows(std::uint64_t seed) {
  const Topology& topo = world_.setup.topo;
  Rng rng(sub_seed(seed, 6));
  if (w_.traffic == Traffic::kUniform) {
    flows_ = workload::random_flows(topo, rng, w_.flow_pool);
    return;
  }
  // Skewed: classify every host pair by whether the placed faults
  // change its path (a walk over the physical tables). Every tenth flow
  // of a round is a faulty pair, from each fault kind in turn and
  // uniformly among the pairs that kind changes; the rest are drawn with
  // Zipf skew from the healthy pairs, ranked so that each rank has about
  // the same data-plane cost whatever the seed. The failed share, the
  // data-plane cost and the localization cost then do not depend on
  // which pairs the seed chose. A changed path whose Bloom tag equals
  // the correct path's tag at the same exit port passes verification by
  // design (the paper's tag false negative); such pairs are counted and
  // not drawn.
  flows_ = workload::ping_all(topo);
  std::vector<SwitchConfig> phys;
  for (SwitchId s = 0; s < topo.num_switches(); ++s)
    phys.push_back(world_.net.at(s).config());
  const auto& logical = world_.setup.controller.logical_configs();
  std::vector<std::vector<std::size_t>> by_kind(kFaultKinds);
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> healthy;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto& f = flows_[i];
    const auto real = logical_walk(topo, phys, f.entry, f.header);
    const auto want = logical_walk(topo, logical, f.entry, f.header);
    if (real == want) {
      healthy.emplace_back(want.size(), rules_scanned(phys, want, f.header), i);
    } else if (!real.empty() && !want.empty() &&
               real.back().sw == want.back().sw &&
               real.back().out == want.back().out &&
               BloomTag::of_path(real.data(), real.size()) ==
                   BloomTag::of_path(want.data(), want.size())) {
      ++undetectable_;
    } else {
      by_kind[world_.faulty_switches.at(f.entry.sw)].push_back(i);
    }
  }
  // Healthy pairs sorted by data-plane cost and cut into equal bands;
  // rank r takes the next pair of band r % bands, in a seeded order
  // within the band.
  std::sort(healthy.begin(), healthy.end());
  const std::size_t bands = std::min<std::size_t>(32, healthy.size());
  std::vector<std::vector<std::size_t>> band(bands);
  for (std::size_t j = 0; j < healthy.size(); ++j)
    band[j * bands / healthy.size()].push_back(std::get<2>(healthy[j]));
  for (auto& b : band) std::shuffle(b.begin(), b.end(), rng.engine());
  for (std::size_t r = 0; clean_.size() < healthy.size(); ++r)
    if (r / bands < band[r % bands].size())
      clean_.push_back(band[r % bands][r / bands]);
  clean_zipf_.emplace(clean_.size(), 1.0);
  for (auto& c : by_kind)
    if (!c.empty()) faulty_.push_back(std::move(c));
}

void Bench::draw_round_flows() {
  round_flows_.clear();
  for (std::size_t i = 0; i < w_.flows_per_round; ++i) {
    if (w_.traffic == Traffic::kUniform) {
      round_flows_.push_back(flow_rng_.index(flows_.size()));
    } else if (!faulty_.empty() && i % 10 == 0) {
      const auto& pairs = faulty_[faulty_drawn_++ % faulty_.size()];
      round_flows_.push_back(pairs[flow_rng_.index(pairs.size())]);
    } else {
      round_flows_.push_back(clean_[clean_zipf_->draw(flow_rng_)]);
    }
  }
}

void Bench::record_truth(std::size_t flow, const ForwardResult& fr) {
  const workload::Flow& f = flows_[flow];
  const bool faulty =
      fr.path != logical_walk(world_.setup.topo,
                              world_.setup.controller.logical_configs(),
                              f.entry, f.header);
  for (const TagReport& r : fr.reports) {
    Truth& t = truth_[report_key(r)];
    t.round = round_;
    t.faulty = faulty;
    if (faulty) t.path = fr.path;
  }
}

void Bench::check_verdicts() {
  for (const auto& [key, status] : verdicts_) {
    const auto it = truth_.find(key);
    if (it == truth_.end()) {
      ++gate_.unmatched;
      continue;
    }
    ++gate_.checked;
    const bool failed = status == VerifyStatus::kNoPath ||
                        status == VerifyStatus::kTagMismatch;
    if (failed && !it->second.faulty) ++gate_.false_pos;
    if (status == VerifyStatus::kOk && it->second.faulty) ++gate_.false_neg;
    if (!failed) truth_.erase(it);  // failed ones are erased after localize
  }
  verdicts_.clear();
}

void Bench::rule_event(std::int32_t parent) {
  Controller& c = world_.setup.controller;
  Timed ev(*this, kEvent, parent);
  // Adds and deletes alternate, so the table size stays level.
  const bool add = events_++ % 2 == 0;
  const ChurnRule r = add ? world_.churn.draw() : world_.churn.take_victim();
  Timed ctrl(*this, kController, ev.span());
  if (add)
    world_.churn.add(c, r);
  else
    c.delete_rule(r.sw, r.id);
  const std::uint64_t ctrl_ns = ctrl.stop(1);
  Timed table(*this, kTable, ev.span());
  (void)world_.server.table();
  const std::uint64_t table_ns = table.stop(1);
  Timed pub(*this, kPublish, ev.span());
  world_.parallel.publish();
  const std::uint64_t pub_ns = pub.stop(1);
  Timed dep(*this, kDeploy, ev.span());
  c.deploy(world_.net);
  world_.net.set_config_epoch(c.epoch());
  dep.stop(1);
  ev.stop(1);
  if (measuring_) {
    event_ms_.push_back(static_cast<double>(ctrl_ns) / 1e6);
    update_ms_.push_back(static_cast<double>(ctrl_ns + table_ns) / 1e6);
    publish_ms_.push_back(static_cast<double>(pub_ns) / 1e6);
  }
}

void Bench::run_round() {
  draw_round_flows();
  const Totals start = tot_;
  Timed round(*this, kRound, -1);
  const std::int32_t rs = round.span();

  // 1. Data plane: sampling, tagging and forwarding.
  results_.resize(round_flows_.size());
  {
    Timed t(*this, kInject, rs);
    for (std::size_t i = 0; i < round_flows_.size(); ++i) {
      const workload::Flow& f = flows_[round_flows_[i]];
      results_[i] = world_.net.inject(f.header, f.entry, round_);
    }
    t.stop(round_flows_.size());
  }
  reports_.clear();
  for (std::size_t i = 0; i < results_.size(); ++i) {
    record_truth(round_flows_[i], results_[i]);
    for (const TagReport& r : results_[i].reports) reports_.push_back(&r);
  }

  // 2. Wire encode.
  encoded_.resize(reports_.size());
  {
    Timed t(*this, kEncode, rs);
    for (std::size_t i = 0; i < reports_.size(); ++i)
      encoded_[i] = wire::encode_report(*reports_[i]);
    t.stop(reports_.size());
  }

  // 3. Report channel.
  delivered_.clear();
  {
    Timed t(*this, kChannel, rs);
    for (std::size_t i = 0; i < encoded_.size(); ++i) {
      channel_.send_bytes(std::move(encoded_[i]), reports_[i]->outport.sw,
                          reports_[i]->seq);
      while (auto d = channel_.deliver()) delivered_.push_back(std::move(*d));
    }
    t.stop(encoded_.size());
  }

  // 4. Sequential monitor: ingest, then batched verify.
  {
    Timed t(*this, kOffer, rs);
    for (const auto& d : delivered_) ingest_.offer(d);
    t.stop(delivered_.size());
  }
  max_queue_depth_ =
      std::max<std::uint64_t>(max_queue_depth_, ingest_.queue_depth());
  failed_reports_.clear();
  {
    Timed t(*this, kProcess, rs);
    const std::size_t n = ingest_.process();
    t.stop(n);
  }
  const std::size_t verified_now = verdicts_.size();
  check_verdicts();

  // 5. Localization of every failed verdict.
  for (const TagReport& r : failed_reports_) {
    Timed t(*this, kLocalize, rs);
    const LocalizeResult res = world_.server.localize(r);
    const std::uint64_t ns = t.stop(1);
    ++gate_.localized;
    const auto it = truth_.find(report_key(r));
    const bool hit = it != truth_.end() && res.recovered(it->second.path);
    if (!hit) ++gate_.localize_miss;
    if (it != truth_.end()) truth_.erase(it);
    if (measuring_) {
      localize_us_.push_back(static_cast<double>(ns) / 1e3);
      localize_hits_ += hit ? 1 : 0;
    }
  }

  // 6. The same datagrams through the parallel server.
  {
    Timed t(*this, kSubmit, rs);
    for (const auto& d : delivered_) world_.parallel.submit_datagram(d);
    t.stop(delivered_.size());
  }
  {
    Timed t(*this, kDrain, rs);
    world_.parallel.drain();
    t.stop(delivered_.size());
  }
  (void)world_.parallel.take_failures();

  const IngestHealth ih = ingest_.health();
  const ParallelHealth ph = world_.parallel.health();
  gate_.conservation_checks += 2;
  gate_.conservation_violations += (ih.conserved() ? 0 : 1) +
                                   (ph.conserved() ? 0 : 1);
  ++gate_.parity_checks;
  if (ih.failed != ph.failed) ++gate_.parity_mismatches;

  // 7. Rule events.
  for (std::size_t e = 0; e < w_.events_per_round; ++e) rule_event(rs);
  round.stop(round_flows_.size());

  // Reports the channel lost never get a verdict; forget their truth.
  if (round_ % 8 == 0)
    std::erase_if(truth_, [this](const auto& kv) {
      return kv.second.round + 8 < round_;
    });

  if (measuring_) {
    const auto spent = [&](std::initializer_list<Layer> ls) {
      std::uint64_t sum = 0;
      for (Layer l : ls) sum += tot_.ns[l] - start.ns[l];
      return sum;
    };
    rounds_.push_back(RoundRecord{
        spent({kInject, kEncode, kChannel, kOffer, kProcess, kLocalize,
               kController, kTable, kDeploy}),
        spent({kOffer, kProcess, kLocalize, kController, kTable}),
        spent({kSubmit, kDrain}), verified_now, delivered_.size(),
        tracer_.enabled()});
  }
}

void Bench::run(double seconds, bool trace, std::size_t max_rounds) {
  // Round 0 warms caches, the verify memo and lazy state; not timed.
  run_round();
  ++round_;
  measuring_ = true;
  memo_hits0_ = world_.server.memo_hits();
  verified0_ = world_.server.reports_verified();
  prof0_ = world_.parallel.profiler().totals();
  const std::uint64_t t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  while (measured_rounds_ < 2 ||
         (now_ns() - t0 < budget && measured_rounds_ < max_rounds)) {
    // Traced runs alternate traced and untraced rounds, so the tracing
    // overhead is measured on the same process and inputs.
    tracer_.set_enabled(trace && measured_rounds_ % 2 == 1);
    run_round();
    ++round_;
    ++measured_rounds_;
  }
  tracer_.set_enabled(false);
  memo_hits1_ = world_.server.memo_hits();
  verified1_ = world_.server.reports_verified();
  prof1_ = world_.parallel.profiler().totals();
}

double rate(std::uint64_t items, std::uint64_t ns) {
  return ns == 0 ? 0.0
                 : static_cast<double>(items) * 1e9 / static_cast<double>(ns);
}

template <class Items, class Ns>
double Bench::round_rate(Items items, Ns ns, int traced) const {
  std::vector<double> rates;
  for (const RoundRecord& r : rounds_)
    if (traced < 0 || r.traced == (traced == 1))
      rates.push_back(rate(items(r), ns(r)));
  return rates.empty() ? 0.0 : percentile(std::move(rates), 0.25);
}

std::vector<Metric> Bench::end_to_end(double setup_s) const {
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"e2e_reports_per_s",
               round_rate([](const RoundRecord& r) { return r.verified; },
                          [](const RoundRecord& r) { return r.seq_ns; }),
               "1/s"});
  m.push_back({"server_reports_per_s",
               round_rate([](const RoundRecord& r) { return r.offered; },
                          [](const RoundRecord& r) { return r.server_ns; }),
               "1/s"});
  m.push_back({"par_reports_per_s",
               round_rate([](const RoundRecord& r) { return r.offered; },
                          [](const RoundRecord& r) { return r.par_ns; }),
               "1/s"});
  if (!update_ms_.empty()) {
    m.push_back({"update_p50_ms", percentile(update_ms_, 0.5), "ms"});
    m.push_back({"update_p90_ms", percentile(update_ms_, 0.9), "ms"});
    m.push_back({"publish_p50_ms", percentile(publish_ms_, 0.5), "ms"});
    m.push_back({"publish_p90_ms", percentile(publish_ms_, 0.9), "ms"});
  }
  if (!localize_us_.empty()) {
    m.push_back({"localize_p50_us", percentile(localize_us_, 0.5), "us"});
    m.push_back({"localize_p99_us", percentile(localize_us_, 0.99), "us"});
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
  const std::uint64_t att = gate_.attempted();
  m.push_back({"error_rate",
               att ? static_cast<double>(gate_.failed()) /
                         static_cast<double>(att)
                   : 0.0,
               "ratio"});
  return m;
}

std::vector<Metric> Bench::per_layer() const {
  std::vector<Metric> m;
  const auto per = [this](Layer l, double scale) {
    return tot_.items[l] ? static_cast<double>(tot_.ns[l]) /
                               static_cast<double>(tot_.items[l]) / scale
                         : 0.0;
  };
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  m.push_back({"dataplane.ns_per_pkt", per(kInject, 1.0), "ns"});
  m.push_back({"wire.encode_ns", per(kEncode, 1.0), "ns"});
  m.push_back({"channel.ns_per_datagram", per(kChannel, 1.0), "ns"});
  const ChannelStats& cs = channel_.stats();
  m.push_back({"channel.sent", count(cs.sent), "count"});
  m.push_back({"channel.delivered", count(cs.delivered), "count"});
  m.push_back({"channel.dropped", count(cs.dropped), "count"});
  m.push_back({"channel.duplicated", count(cs.duplicated), "count"});
  m.push_back({"channel.reordered", count(cs.reordered), "count"});
  m.push_back({"channel.corrupted", count(cs.corrupted), "count"});
  m.push_back({"ingest.offer_ns", per(kOffer, 1.0), "ns"});
  const IngestHealth ih = ingest_.health();
  m.push_back({"ingest.deduped", count(ih.deduped), "count"});
  m.push_back({"ingest.quarantined", count(ih.quarantined), "count"});
  m.push_back({"ingest.shed", count(ih.shed), "count"});
  m.push_back({"ingest.lost_estimate", count(ih.lost_estimate), "count"});
  m.push_back({"ingest.max_queue_depth", count(max_queue_depth_), "count"});
  m.push_back({"verifier.process_ns", per(kProcess, 1.0), "ns"});
  const std::uint64_t verified = verified1_ - verified0_;
  m.push_back({"verifier.memo_hit_rate",
               verified ? static_cast<double>(memo_hits1_ - memo_hits0_) /
                              static_cast<double>(verified)
                        : 0.0,
               "ratio"});
  if (!localize_us_.empty()) {
    m.push_back({"localizer.call_us", per(kLocalize, 1e3), "us"});
    m.push_back({"localizer.hit_rate",
                 static_cast<double>(localize_hits_) /
                     static_cast<double>(localize_us_.size()),
                 "ratio"});
  }
  if (!event_ms_.empty()) {
    m.push_back({"controller.event_ms", mean(event_ms_), "ms"});
    m.push_back({"parallel_server.publish_ms", mean(publish_ms_), "ms"});
  }
  m.push_back({"parallel_server.submit_ns", per(kSubmit, 1.0), "ns"});
  m.push_back({"parallel_server.drain_ms",
               tot_.calls[kDrain] ? static_cast<double>(tot_.ns[kDrain]) / 1e6 /
                                        static_cast<double>(tot_.calls[kDrain])
                                  : 0.0,
               "ms"});
  std::uint64_t offered = 0;
  for (const RoundRecord& r : rounds_) offered += r.offered;
  const double dgrams = static_cast<double>(std::max<std::uint64_t>(offered, 1));
  m.push_back({"parallel_server.queue_wait_ns",
               static_cast<double>(prof1_.queue_wait_ns - prof0_.queue_wait_ns) /
                   dgrams,
               "ns"});
  m.push_back({"parallel_server.busy_ns",
               static_cast<double>(prof1_.busy_ns - prof0_.busy_ns) / dgrams,
               "ns"});
  m.push_back({"parallel_server.snapshot_loads",
               count(prof1_.snapshot_loads - prof0_.snapshot_loads), "count"});
  m.push_back({"parallel_server.stolen_batches",
               count(prof1_.stolen_batches - prof0_.stolen_batches), "count"});
  const std::uint64_t batches = prof1_.batches - prof0_.batches;
  m.push_back({"parallel_server.batch_occupancy",
               batches ? static_cast<double>(prof1_.batch_items -
                                             prof0_.batch_items) /
                             static_cast<double>(batches)
                       : 0.0,
               "count"});
  m.push_back({"bdd.node_count",
               count(world_.setup.space.manager().node_count()), "count"});
  const auto reports = [](const RoundRecord& r) { return r.verified; };
  const auto seq_ns = [](const RoundRecord& r) { return r.seq_ns; };
  if (rounds_.size() >= 2)
    m.push_back({"trace.overhead_reports_per_s",
                 round_rate(reports, seq_ns, 1) -
                     round_rate(reports, seq_ns, 0),
                 "1/s"});
  return m;
}

void Bench::print_self_times() const {
  std::printf("\nper-layer self time (traced rounds, %zu spans)\n",
              tracer_.size());
  std::printf("  %-26s %8s %10s %12s %12s\n", "layer", "spans", "items",
              "self_ms", "total_ms");
  for (const auto& [name, l] : tracer_.layers())
    std::printf("  %-26s %8llu %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(l.spans),
                static_cast<unsigned long long>(l.items),
                static_cast<double>(l.self_ns) / 1e6,
                static_cast<double>(l.total_ns) / 1e6);
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_json(bool correct, const Gate& g,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(g.attempted()),
              static_cast<unsigned long long>(g.failed()));
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload stanford_steady|"
               "internet2_churn|fattree_faults --seed N --seconds S\n"
               "                     [--trace 0|1] [--trace-out FILE] "
               "[--tiny]\n");
  return 2;
}

int run_main(int argc, char** argv) {
  std::string name, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      name = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--tiny") {
      tiny = true;
    } else {
      return usage();
    }
  }
  const std::optional<Workload> w = find_workload(name, tiny);
  if (!w || !(seconds > 0.0)) return usage();

  // Set up the workload's fixed number of times and report the median;
  // keep the last world. A count rather than a time budget, so the
  // sample does not grow or shrink with the host's speed.
  std::vector<double> setup_times;
  std::unique_ptr<World> world;
  for (std::size_t i = 0; i < w->setups; ++i) {
    world.reset();
    const std::uint64_t t0 = now_ns();
    world = std::make_unique<World>(*w, tiny, seed);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  world->parallel.start();

  Bench bench(*w, *world, seed);
  bench.run(seconds, trace, tiny ? 6 : SIZE_MAX);
  world->parallel.stop();

  const Gate& g = bench.gate();
  std::printf("workload %s seed %llu: closed loop, 1 producer + %u parallel "
              "workers + 1 failure consumer; %zu flows and %zu rule events "
              "per round; %u measured rounds after 1 warm-up\n",
              w->name, static_cast<unsigned long long>(seed),
              world->parallel.worker_count(), w->flows_per_round,
              w->events_per_round, bench.measured_rounds());
  std::printf("gate: checked %llu false_pos %llu false_neg %llu unmatched %llu "
              "localized %llu localize_miss %llu conservation %llu/%llu "
              "parity %llu/%llu\n",
              static_cast<unsigned long long>(g.checked),
              static_cast<unsigned long long>(g.false_pos),
              static_cast<unsigned long long>(g.false_neg),
              static_cast<unsigned long long>(g.unmatched),
              static_cast<unsigned long long>(g.localized),
              static_cast<unsigned long long>(g.localize_miss),
              static_cast<unsigned long long>(g.conservation_violations),
              static_cast<unsigned long long>(g.conservation_checks),
              static_cast<unsigned long long>(g.parity_mismatches),
              static_cast<unsigned long long>(g.parity_checks));
  std::printf("samples: %zu rule events (update_*, publish_*), "
              "%zu localize calls (localize_*), in measured rounds\n",
              bench.event_samples(), bench.localize_samples());
  if (w->faults)
    std::printf("faults: %zu switches, changing %zu host pairs; %zu more "
                "changed pairs keep the correct tag (undetectable by design, "
                "not drawn)\n",
                world->faulty_switches.size(), bench.faulty_pairs(),
                bench.undetectable());

  std::vector<Metric> metrics = bench.end_to_end(median(setup_times));
  print_metrics("end-to-end", metrics);
  if (trace) {
    const std::vector<Metric> layers = bench.per_layer();
    print_metrics("per-layer", layers);
    bench.print_self_times();
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    if (!trace_out.empty() && !bench.tracer().write_json(trace_out))
      std::fprintf(stderr, "cannot write spans to %s\n", trace_out.c_str());
  }
  const bool correct = !g.fatal();
  if (!correct) std::printf("GATE FAILED\n");
  std::fflush(stdout);
  print_json(correct, g, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace veridp::perfbench

int main(int argc, char** argv) {
  return veridp::perfbench::run_main(argc, argv);
}
