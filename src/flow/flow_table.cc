#include "flow/flow_table.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

namespace veridp {

// veridp-lint: hot-path

namespace {

constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

std::uint64_t l4_word(std::uint64_t proto, std::uint64_t sport,
                      std::uint64_t dport) {
  return proto << 32 | sport << 16 | dport;
}

std::uint64_t ip_word(std::uint32_t src, std::uint32_t dst) {
  return std::uint64_t{src} << 32 | dst;
}

/// Mixes a key's words into a slot hash. A collision costs only a probe:
/// keys are always compared in full.
std::size_t slot_hash(std::uint64_t ips, std::uint64_t l4,
                      std::uint32_t in_port) {
  std::uint64_t x = ips * 0x9E3779B97F4A7C15ULL ^ l4 * 0xC2B2AE3D27D4EB4FULL ^
                    std::uint64_t{in_port} * 0x165667B19E3779F9ULL;
  x ^= x >> 32;
  x *= 0xD6E8FEB86659FD93ULL;
  x ^= x >> 32;
  return static_cast<std::size_t>(x);
}

/// Power-of-two slot count keeping the load factor at or below 1/2, so
/// every probe sequence reaches a free slot.
std::size_t slot_count(std::size_t n) {
  std::size_t cap = 2;
  while (cap < 2 * n) cap *= 2;
  return cap;
}

/// A dst-only rule for the interval index: (len << 32 | addr, rank).
using DstRule = std::pair<std::uint64_t, std::uint32_t>;

/// Fills the interval index from dst-only rules.
void build_intervals(std::vector<DstRule>& rules,
                     IntervalMap<std::uint32_t>& index) {
  index.clear();
  if (rules.empty()) return;  // no index: lookups skip the search
  // By length, then address, then rank: of equal prefixes only the first
  // can win, so the rest are dropped.
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              rules.end());
  auto last = [](std::uint64_t key) {
    return static_cast<std::uint32_t>(key) |
           ~Prefix::mask(static_cast<std::uint8_t>(key >> 32));
  };
  std::vector<std::uint32_t>& starts = index.starts;
  starts.assign(1, 0);
  for (const auto& [key, rank] : rules) {
    starts.push_back(static_cast<std::uint32_t>(key));
    starts.push_back(last(key) + 1);  // wraps to 0 past the top address
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  // Prefixes of one length are disjoint and come in address order, so
  // one forward sweep over the intervals per length covers them all.
  std::vector<std::uint32_t>& best = index.values;
  best.assign(starts.size(), kEmpty);
  std::size_t i = 0;
  std::uint64_t len = 64;
  for (const auto& [key, rank] : rules) {
    if (key >> 32 != len) {
      len = key >> 32;
      i = 0;
    }
    while (starts[i] < static_cast<std::uint32_t>(key)) ++i;  // a start
    for (; i < starts.size() && starts[i] <= last(key); ++i)
      best[i] = std::min(best[i], rank);
  }
}

}  // namespace

void FlowTable::add(const FlowRule& rule) {
  // Insert after the last rule with priority >= rule.priority, so equal
  // priorities keep insertion order.
  auto pos = std::upper_bound(
      rules_.begin(), rules_.end(), rule.priority,
      [](std::int32_t prio, const FlowRule& r) { return prio > r.priority; });
  rules_.insert(pos, rule);
  order_.push_back(rule.id);
  stale_ = true;
}

std::optional<FlowRule> FlowTable::remove(RuleId id) {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [id](const FlowRule& r) { return r.id == id; });
  if (it == rules_.end()) return std::nullopt;
  FlowRule removed = *it;
  rules_.erase(it);
  order_.erase(std::find(order_.begin(), order_.end(), id));
  stale_ = true;
  return removed;
}

bool FlowTable::set_action(RuleId id, Action a) {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [id](const FlowRule& r) { return r.id == id; });
  if (it == rules_.end()) return false;
  it->action = a;  // the index holds positions, not actions: still valid
  return true;
}

bool FlowTable::set_priority(RuleId id, std::int32_t priority) {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [id](const FlowRule& r) { return r.id == id; });
  if (it == rules_.end()) return false;
  FlowRule moved = *it;
  moved.priority = priority;
  rules_.erase(it);
  auto pos = std::upper_bound(
      rules_.begin(), rules_.end(), moved.priority,
      [](std::int32_t prio, const FlowRule& r) { return prio > r.priority; });
  rules_.insert(pos, moved);  // order_ untouched: insertion order persists
  stale_ = true;
  return true;
}

void FlowTable::rebuild() const {
  // Rank the rules in the order the first-match walk meets them: rules_
  // order, or with priorities ignored, the first insertion-order index
  // whose id `find` resolves to the rule (rules hidden behind a duplicate
  // id are never met and get no rank).
  entries_.clear();
  entries_.reserve(rules_.size());
  auto rank = [this](std::uint32_t rule) {
    const Match& m = rules_[rule].match;
    entries_.push_back(Entry{ip_word(m.src.addr, m.dst.addr),
                             l4_word(m.proto.value_or(0),
                                     m.src_port.value_or(0),
                                     m.dst_port.value_or(0)),
                             m.in_port.value_or(0), rule});
  };
  if (!ignore_priority_) {
    for (std::uint32_t i = 0; i < rules_.size(); ++i) rank(i);
  } else {
    // veridp-lint: allow(hot-path-node-map, rebuild, not per lookup)
    std::unordered_map<RuleId, std::uint32_t> first;  // what find(id) hits
    first.reserve(rules_.size());
    for (auto i = static_cast<std::uint32_t>(rules_.size()); i-- > 0;)
      first[rules_[i].id] = i;
    for (RuleId id : order_) {
      auto it = first.find(id);
      if (it == first.end()) continue;  // ranked already
      rank(it->second);
      first.erase(it);
    }
  }

  // Dst-only rules of two or more prefix lengths go to the interval
  // index; with one length they stay a tuple (one hash probe is then an
  // exact longest-prefix match, cheaper than a search).
  std::uint64_t lens = 0;
  for (const Entry& e : entries_) {
    const Match& m = rules_[e.rule].match;
    if (m.is_dst_prefix_only()) lens |= std::uint64_t{1} << m.dst.len;
  }
  const bool intervals = (lens & (lens - 1)) != 0;

  // Group the rest by shape. Ranks ascend, so tuples come out in
  // ascending min_rank and a tuple's min_rank is the rank of its first
  // rule.
  tuples_.clear();
  std::vector<DstRule> indexed;
  std::vector<std::uint32_t> tuple_of(entries_.size());
  std::vector<std::size_t> counts;
  for (std::uint32_t k = 0; k < entries_.size(); ++k) {
    const Match& m = rules_[entries_[k].rule].match;
    if (intervals && m.is_dst_prefix_only()) {
      indexed.emplace_back(std::uint64_t{m.dst.len} << 32 | m.dst.addr, k);
      tuple_of[k] = kEmpty;
      continue;
    }
    const Entry mask{
        ip_word(Prefix::mask(m.src.len), Prefix::mask(m.dst.len)),
        l4_word(m.proto ? 0xFF : 0, m.src_port ? 0xFFFF : 0,
                m.dst_port ? 0xFFFF : 0),
        m.in_port ? ~std::uint32_t{0} : 0, 0};
    std::size_t t = 0;
    while (t < tuples_.size() && !tuples_[t].mask.same_key(mask)) ++t;
    if (t == tuples_.size()) {
      tuples_.push_back(Tuple{mask, k, {}});
      counts.push_back(0);
    }
    tuple_of[k] = static_cast<std::uint32_t>(t);
    ++counts[t];
  }
  for (std::size_t i = 0; i < tuples_.size(); ++i)
    tuples_[i].slots.assign(slot_count(counts[i]), kEmpty);

  // Fill. The first rule to claim a key has the best rank for it.
  for (std::uint32_t k = 0; k < entries_.size(); ++k) {
    if (tuple_of[k] == kEmpty) continue;  // in the interval index
    const Entry& e = entries_[k];
    std::vector<std::uint32_t>& slots = tuples_[tuple_of[k]].slots;
    const std::size_t mask = slots.size() - 1;
    std::size_t i = slot_hash(e.ips, e.l4, e.in_port) & mask;
    while (slots[i] != kEmpty && !entries_[slots[i]].same_key(e))
      i = (i + 1) & mask;
    if (slots[i] == kEmpty) slots[i] = k;
  }
  build_intervals(indexed, intervals_);
  stale_ = false;
}

const FlowRule* FlowTable::lookup(const PacketHeader& h,
                                  PortId in_port) const {
  if (stale_) rebuild();
  std::uint32_t best =
      intervals_.empty() ? kEmpty : intervals_.at(h.dst_ip.value);
  const std::uint64_t ips = ip_word(h.src_ip.value, h.dst_ip.value);
  const std::uint64_t l4 = l4_word(h.proto, h.src_port, h.dst_port);
  for (const Tuple& t : tuples_) {
    if (t.min_rank >= best) break;  // no later tuple can beat the hit
    const Entry key{ips & t.mask.ips, l4 & t.mask.l4,
                    in_port & t.mask.in_port, 0};
    const std::size_t mask = t.slots.size() - 1;
    std::size_t i = slot_hash(key.ips, key.l4, key.in_port) & mask;
    while (t.slots[i] != kEmpty && !entries_[t.slots[i]].same_key(key))
      i = (i + 1) & mask;
    best = std::min(best, t.slots[i]);  // a free slot's kEmpty never wins
  }
  return best == kEmpty ? nullptr : &rules_[entries_[best].rule];
}

bool FlowTable::has_in_port_rules() const {
  for (const FlowRule& r : rules_)
    if (r.match.in_port) return true;
  return false;
}

const FlowRule* FlowTable::find(RuleId id) const {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [id](const FlowRule& r) { return r.id == id; });
  return it == rules_.end() ? nullptr : &*it;
}

}  // namespace veridp
