// The path table (§3.4): the control-plane abstraction VeriDP verifies
// against. It maps a pair of edge ports <inport, outport> to the list of
// paths packets may take between them; each path carries the header set
// admitted on it and the Bloom-filter tag a correctly-forwarded packet
// would accumulate.
//
// Header sets of distinct paths for the same port pair are disjoint by
// construction (Algorithm 2 partitions the header space at every branch),
// which is what makes Algorithm 3's first-header-match verification
// sound; a debug checker (`disjoint_headers`) asserts it in tests.
//
// Thread-safety: a fully built PathTable read through its const
// interface — lookup, stats, for_each, outports, empty — is immutable
// and race-free for any number of concurrent verification threads (the
// HeaderSets it hands out obey the membership-side contract in
// header_set.hpp). The mutators (add_path, remove_path, clear) and
// `disjoint_headers` (which runs BDD set algebra on the shared manager)
// require exclusive access to the table AND its HeaderSpace. The parallel server never mutates a published table; it
// builds a replacement in a fresh space and swaps pointers.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "bloom/bloom.hpp"
#include "common/types.hpp"
#include "header/header_set.hpp"

namespace veridp {

/// One path: <headers, tag> plus the hop sequence (kept for localization
/// and diagnostics; the paper's Table 1 shows the same three columns).
struct PathEntry {
  HeaderSet headers;
  std::vector<Hop> path;
  BloomTag tag{BloomTag::kDefaultBits};
};

/// Aggregate statistics (Table 2's columns).
struct PathTableStats {
  std::size_t num_pairs = 0;    ///< # <inport, outport> entries
  std::size_t num_paths = 0;    ///< total paths across entries
  double avg_path_length = 0.0; ///< mean hop count over all paths
};

class PathTable {
 public:
  using EntryList = std::vector<PathEntry>;

  /// Adds a path. If an entry with the identical hop sequence already
  /// exists for the pair, its header set is widened instead (the §4.4
  /// "update its header set by q.headers ∨ h" case).
  void add_path(PortKey inport, PortKey outport, HeaderSet headers,
                std::vector<Hop> path, BloomTag tag);

  /// The paths recorded for a pair, or nullptr if none.
  [[nodiscard]] const EntryList* lookup(PortKey inport,
                                        PortKey outport) const;

  /// Removes a specific path entry; returns false if absent.
  bool remove_path(PortKey inport, PortKey outport,
                   const std::vector<Hop>& path);

  [[nodiscard]] PathTableStats stats() const;

  /// Visits every (inport, outport, entry) triple.
  void for_each(const std::function<void(PortKey, PortKey, const PathEntry&)>&
                    fn) const;

  /// All distinct outports recorded for an inport.
  [[nodiscard]] std::vector<PortKey> outports(PortKey inport) const;

  [[nodiscard]] bool empty() const { return table_.empty(); }
  void clear() { table_.clear(); }

  /// Debug invariant: header sets of same-pair entries are pairwise
  /// disjoint. O(paths^2) per pair — test use only.
  [[nodiscard]] bool disjoint_headers() const;

 private:
  // inport -> outport -> paths. Two-level so an inport's entries can be
  // dropped in O(1) during incremental updates.
  std::unordered_map<PortKey, std::unordered_map<PortKey, EntryList>> table_;
};

/// Structural equality of two path tables built over the SAME HeaderSpace:
/// identical pairs, and per pair the same set of (path, tag, headers)
/// entries regardless of order. Used by the incremental-vs-rebuild
/// property tests.
bool equivalent(const PathTable& a, const PathTable& b);

}  // namespace veridp
