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
// Per-inport classifier (DESIGN.md §11). BDD variables run src IP
// (0-31), then dst IP (32-63), then the rest, so fixing a header's src
// bits leads every entry of an inport to one node, and fixing its dst
// bits too leads to one more: the residual, a test on the remaining
// fields only (TRUE for an entry that tests none). An inport's
// classifier stores that in three stages: a src interval search picks
// the src class (the src intervals on which every entry reaches the
// same dst-level node), that class's dst interval search picks the
// interval, and the interval lists its candidates — the entries whose
// header set holds some header in it, in the order of their pair
// lists, each with its residual. An entry contains a header exactly
// when it is a candidate of the header's interval and its residual
// holds the header's remaining bits, so Algorithm 3 there is two
// interval searches and a residual test per same-outport candidate. An
// inport whose entries test dst bits only has one class and no src
// stage. Only an inport whose entries cut its fields into more than
// 2^16 pieces (say, one testing every odd dst address) or with entries
// from two BDD arenas has none and keeps the BDD walk. An inport's
// classifier is built on the first call that asks for it
// (InportView::classifier), never when the table is built, and each
// mutator drops the classifier of the inport it edits.
//
// Thread-safety: a fully built PathTable read through its const
// interface — lookup, inport, stats, for_each, outports, empty —
// is race-free for any number of concurrent verification threads (the
// HeaderSets it hands out obey the membership-side contract in
// header_set.hpp). The one write a const call makes is
// InportView::classifier installing an inport's classifier. That is
// race-free too: the build only reads entries (read-only BDD walks),
// the slot is an atomic pointer installed with a release CAS and read
// with acquire, and a thread that loses the install race frees its own
// copy and uses the winner's. A built classifier is immutable, and its
// residual tests (InportClassifier::admits) are read-only eval_with
// walks in the entries' own arena. The mutators (add_path, remove_path,
// subtract_headers, clear) and `disjoint_headers` (which runs BDD set
// algebra on the shared manager) require exclusive access to the table
// AND its HeaderSpace. The parallel server never mutates a published table; it
// builds a replacement in a fresh space and swaps pointers. A table
// edited in place (kIncremental) has one reader, the editing thread, so
// dropping a classifier there races with nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "bloom/bloom.hpp"
#include "common/interval_map.hpp"
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

/// One candidate of a classifier interval: an entry whose header set
/// holds some header of the interval, that entry's outport, a copy of
/// its tag (so a verdict loads no entry), its residual's index in the
/// classifier (0: TRUE, no test) and the index of the interval's next
/// candidate in the classifier's overflow list (0: none). A gap between
/// entries is one candidate with entry == nullptr.
struct IntervalCandidate {
  const PathEntry* entry = nullptr;
  PortKey outport{};
  BloomTag tag{BloomTag::kDefaultBits};
  std::uint32_t residual = 0;
  std::uint32_t next = 0;
};

/// One inport's classifier (see the header comment). Immutable once
/// built; every residual lives in `mgr`'s arena.
struct InportClassifier {
  /// The arena of every residual, beside the refs it owns.
  const BddManager* mgr = nullptr;
  /// Residual BDDs by index; [0] is unused (index 0 is TRUE).
  std::vector<BddRef> residuals;
  /// src interval → class index; empty when there is one class.
  IntervalMap<std::uint32_t> src;
  /// Per class, dst interval → its first candidate.
  std::vector<IntervalMap<IntervalCandidate>> classes;
  /// Candidates after an interval's first, chained by `next`; [0] unused.
  std::vector<IntervalCandidate> overflow;

  /// The interval map of the class holding src address `src_ip`.
  [[nodiscard]] const IntervalMap<IntervalCandidate>& dst_map(
      std::uint32_t src_ip) const {
    return src.empty() ? classes.front() : classes[src.at(src_ip)];
  }
  /// The candidate after `c` in its interval, or nullptr.
  [[nodiscard]] const IntervalCandidate* next(
      const IntervalCandidate& c) const {
    return c.next == 0 ? nullptr : &overflow[c.next];
  }
  /// Whether `c`'s residual holds a header given as packed bits
  /// (PacketHeader::bits_packed). Read-only BDD walk.
  [[nodiscard]] bool admits(const IntervalCandidate& c,
                            const std::array<std::uint64_t, 2>& bits) const {
    return c.residual == 0 ||
           mgr->eval_with(residuals[c.residual], [&bits](int v) {
             return (bits[static_cast<std::size_t>(v >> 6)] >>
                     (63 - (v & 63))) & 1;
           });
  }
};

class PathTable {
  struct Inport;

 public:
  using EntryList = std::vector<PathEntry>;

  /// One inport's entries, found with one probe: what a verifier needs
  /// per report. Default-constructed, or for an inport without entries,
  /// it finds nothing.
  class InportView {
   public:
    InportView() = default;
    /// The paths recorded for (this inport, outport), or nullptr.
    [[nodiscard]] const EntryList* lookup(PortKey outport) const;
    /// This inport's classifier (see the header comment), built on the
    /// first call for the inport; nullptr if it is not classifiable.
    /// Valid until the next mutation of its entries.
    [[nodiscard]] const InportClassifier* classifier() const;

   private:
    friend class PathTable;
    explicit InportView(const Inport* in) : in_(in) {}
    const Inport* in_ = nullptr;
  };

  /// Adds a path. If an entry with the identical hop sequence already
  /// exists for the pair, its header set is widened instead (the §4.4
  /// "update its header set by q.headers ∨ h" case).
  void add_path(PortKey inport, PortKey outport, HeaderSet headers,
                std::vector<Hop> path, BloomTag tag);

  /// The paths recorded for a pair, or nullptr if none.
  [[nodiscard]] const EntryList* lookup(PortKey inport,
                                        PortKey outport) const {
    return this->inport(inport).lookup(outport);
  }

  /// `inport`'s entries, for lookups and its classifier.
  [[nodiscard]] InportView inport(PortKey inport) const;

  /// Removes a specific path entry; returns false if absent.
  bool remove_path(PortKey inport, PortKey outport,
                   const std::vector<Hop>& path);

  /// Narrows a specific path entry's header set by `headers`, removing
  /// the entry once it is empty. Returns whether the entry is still
  /// present afterwards (false if it was absent).
  bool subtract_headers(PortKey inport, PortKey outport,
                        const std::vector<Hop>& path,
                        const HeaderSet& headers);

  /// Inports whose classifier slot is filled — built, whether or not the
  /// inport turned out classifiable. Diagnostics and tests.
  [[nodiscard]] std::size_t classifiers_built() const;

  [[nodiscard]] PathTableStats stats() const;

  /// Visits every (inport, outport, entry) triple.
  void for_each(const std::function<void(PortKey, PortKey, const PathEntry&)>&
                    fn) const;

  /// All distinct outports recorded for an inport.
  [[nodiscard]] std::vector<PortKey> outports(PortKey inport) const;

  [[nodiscard]] bool empty() const { return table_.empty(); }
  void clear() { table_.clear(); }  // each Inport frees its classifier

  /// Debug invariant: header sets of same-pair entries are pairwise
  /// disjoint. O(paths^2) per pair — test use only.
  [[nodiscard]] bool disjoint_headers() const;

 private:
  /// One inport's entries by outport, and its classifier slot: null
  /// until first asked for, then an owned classifier, or a shared
  /// sentinel for an inport found unclassifiable. Pinned in place: the
  /// map's nodes never move.
  struct Inport {
    std::unordered_map<PortKey, EntryList> by_out;
    mutable std::atomic<const InportClassifier*> classifier{nullptr};

    Inport() = default;
    Inport(const Inport&) = delete;
    Inport& operator=(const Inport&) = delete;
    ~Inport() { drop_classifier(); }
    /// Empties the slot; the next InportView::classifier refills it.
    void drop_classifier();
  };

  // inport -> outport -> paths. Grouped by inport because the
  // classifier spans all of an inport's outports.
  std::unordered_map<PortKey, Inport> table_;
};

/// Structural equality of two path tables built over the SAME HeaderSpace:
/// identical pairs, and per pair the same set of (path, tag, headers)
/// entries regardless of order. Used by the incremental-vs-rebuild
/// property tests.
bool equivalent(const PathTable& a, const PathTable& b);

}  // namespace veridp
