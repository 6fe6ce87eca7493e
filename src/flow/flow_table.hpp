// A prioritized flow table, the per-switch forwarding state.
//
// Lookup returns the highest-priority matching rule (ties broken by
// insertion order, like OpenFlow implementations that keep stable order
// within a priority). The table also supports a deliberately broken
// lookup mode that ignores priorities — modelling the HP ProCurve 5406zl
// behaviour the paper cites (§2.2, "premature switch implementation") —
// which the fault injector can enable.
//
// Lookup has two parts, and each rule lives in exactly one of them.
//  - A dst-prefix interval index. Rules that match on a dst prefix alone
//    split the address space into elementary intervals, each with one
//    best rule (Delta-net's atoms). When such rules span two or more
//    prefix lengths, they are held as the sorted interval starts and the
//    best rank per interval, and a lookup finds its interval with one
//    branchless binary search.
//  - Tuple space search (Srinivasan et al., SIGCOMM '99), the classifier
//    Open vSwitch uses, for every other rule: rules are grouped by match
//    shape, each group is an exact-match hash table, and a lookup probes
//    the groups in rank order until no later group can hold a better
//    rule than the best found so far. Dst-prefix rules of one length stay
//    a tuple: there one hash probe is already a longest-prefix match.
// Both parts are rebuilt lazily, in O(n log n), on the first lookup after
// a mutation (or the first lookup of a new table).
//
// Thread safety: single-threaded by contract. `lookup` is const but may
// rebuild both mutable parts of the index, so one table must not be
// looked up from two threads at once. Every caller (the data plane,
// `logical_walk`, the Localizer) runs on the control thread.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/interval_map.hpp"
#include "flow/rule.hpp"

namespace veridp {

// veridp-lint: hot-path

class FlowTable {
 public:
  /// Inserts a rule; keeps the table sorted by descending priority.
  void add(const FlowRule& rule);

  /// Removes the rule with this id; returns the removed rule if present.
  std::optional<FlowRule> remove(RuleId id);

  /// Replaces the action of rule `id`; returns false if absent.
  bool set_action(RuleId id, Action a);

  /// Re-prioritizes rule `id` in place (the table re-sorts; insertion
  /// order — and thus the ignore_priority lookup — is preserved). Models
  /// a switch that mangles priorities on install; the fuzz layer's
  /// priority-shuffle mutation is built on it. Returns false if absent.
  bool set_priority(RuleId id, std::int32_t priority);

  /// Highest-priority rule matching `h` received on `in_port`, or
  /// nullptr for a table miss. With `ignore_priority(true)`, the *oldest
  /// inserted* matching rule is returned instead, regardless of priority.
  [[nodiscard]] const FlowRule* lookup(const PacketHeader& h,
                                       PortId in_port = kAnyInPort) const;

  /// Convenience: the output port for `h` (kDropPort on miss or drop rule).
  [[nodiscard]] PortId lookup_port(const PacketHeader& h,
                                   PortId in_port = kAnyInPort) const {
    const FlowRule* r = lookup(h, in_port);
    return r ? r->action.out : kDropPort;
  }

  /// True if any rule matches on in_port (transfer predicates then become
  /// per-input-port).
  [[nodiscard]] bool has_in_port_rules() const;

  [[nodiscard]] const FlowRule* find(RuleId id) const;

  /// Rules in descending-priority order.
  [[nodiscard]] const std::vector<FlowRule>& rules() const { return rules_; }
  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  [[nodiscard]] bool empty() const { return rules_.empty(); }
  void clear() {
    rules_.clear();
    order_.clear();
    stale_ = true;
  }

  void ignore_priority(bool on) {
    ignore_priority_ = on;
    stale_ = true;
  }
  [[nodiscard]] bool priority_ignored() const { return ignore_priority_; }

 private:
  /// A ranked rule: its exact-match key (the masked header fields plus
  /// in_port) and its index in rules_. A rule's rank is its position in
  /// entries_: the order in which a first-match walk meets the rules.
  struct Entry {
    std::uint64_t ips = 0;      // src_ip << 32 | dst_ip
    std::uint64_t l4 = 0;       // proto << 32 | src_port << 16 | dst_port
    std::uint32_t in_port = 0;  // 0 unless the shape matches on in_port
    std::uint32_t rule = 0;

    [[nodiscard]] bool same_key(const Entry& o) const {
      return ips == o.ips && l4 == o.l4 && in_port == o.in_port;
    }
  };
  /// All rules of one shape (src/dst prefix lengths and which of proto,
  /// ports and in_port are set): the shape's field masks and a flat
  /// open-addressing table holding the best rank per key.
  struct Tuple {
    Entry mask;  // key fields only; `rule` is unused
    std::uint32_t min_rank = 0;
    std::vector<std::uint32_t> slots;  // ranks; kEmpty marks a free slot
  };

  void rebuild() const;

  std::vector<FlowRule> rules_;   // descending priority, stable
  std::vector<RuleId> order_;     // insertion order (for the broken mode)
  bool ignore_priority_ = false;
  // The lookup index over rules_; rebuilt when stale_.
  mutable std::vector<Entry> entries_;  // by rank
  mutable std::vector<Tuple> tuples_;   // ascending min_rank
  // Interval index over dst, empty if no rule is indexed. Else each
  // interval holds the best rank of an indexed rule covering it, or
  // kEmpty.
  mutable IntervalMap<std::uint32_t> intervals_;
  mutable bool stale_ = true;
};

}  // namespace veridp
