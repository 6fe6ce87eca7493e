// Tag verification (Algorithm 3).
//
// On a report <inport, outport, header, tag>: look up the path list for
// the port pair, find the path whose header set contains the header, and
// compare tags. Verification fails when no path admits the header (the
// packet exited at a port it should never reach) or when the tag differs
// (the packet took a different path than configured).
//
// Soundness note (§6.3): a consistent data plane always passes — there
// are no false positives. False negatives require both (1) arrival at the
// correct destination port and (2) a Bloom-filter tag collision.
//
// Thread-safety: verification is a pure read — `verify_report` and
// `verify_epoch_aware` touch only const PathTable lookups, BDD
// membership evaluation and tag comparison, all race-free on immutable
// tables (see the contracts in path_table.hpp / header_set.hpp /
// bdd.hpp). The batched kernel may also install an inport's classifier
// on first use, which path_table.hpp makes race-free. Any
// number of threads may verify against the same table(s) concurrently;
// this is what the ParallelServer workers rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dataplane/packet.hpp"
#include "veridp/path_table.hpp"

namespace veridp {

// veridp-lint: hot-path

struct ReportBatch;

enum class VerifyStatus {
  kOk,           ///< header matched a path and tags are equal
  kNoPath,       ///< no path for the pair admits this header
  kTagMismatch,  ///< header matched a path but the tag differs
  kStaleEpoch,   ///< report predates the snapshot window; inconclusive,
                 ///< never counted as a data-plane failure
  kMalformed,    ///< payload failed decode; quarantined by the ingest
  kShed,         ///< dropped by ingest load shedding, never verified
};

struct Verdict {
  VerifyStatus status = VerifyStatus::kNoPath;
  /// The path whose header set matched (kOk / kTagMismatch), else null.
  /// Points into the path table the report was checked against; the
  /// server keeps superseded tables alive in its snapshot ring, so the
  /// pointer stays valid across rule updates until the snapshot ages out.
  const PathEntry* matched = nullptr;
  /// Config epoch of the table the report was checked against.
  std::uint32_t epoch = 0;

  [[nodiscard]] bool ok() const { return status == VerifyStatus::kOk; }
  /// A definitive data-plane inconsistency (not ok, not inconclusive).
  [[nodiscard]] bool failed() const {
    return status == VerifyStatus::kNoPath ||
           status == VerifyStatus::kTagMismatch;
  }
};

/// Algorithm 3 on one report against one table. Pure read.
[[nodiscard]] Verdict verify_report(const TagReport& report,
                                    const PathTable& table);

/// A non-owning view of "which path table verifies which config epoch":
/// the current table, the ring of retired tables (newest first) and the
/// grace window. Both servers' published EpochSnapshots expose their
/// state through this view and run reports through the single
/// `verify_epoch_aware` below — which is what makes the two servers'
/// verdicts bit-identical on the same input by
/// construction, not by parallel maintenance of two copies of the logic.
struct EpochTables {
  struct Range {
    std::uint32_t first_epoch = 0;  ///< valid range, inclusive
    std::uint32_t last_epoch = 0;
    const PathTable* table = nullptr;
  };

  bool epoch_checking = false;
  std::uint32_t epoch = 0;             ///< latest observed config epoch
  std::uint32_t table_valid_from = 0;  ///< current table's first epoch
  /// Last epoch the current table DEFINITIVELY covers. When the owner is
  /// clean this equals `epoch`; when rule events are pending (a lazy
  /// rebuild not yet run, or a wedged snapshot publisher in failsafe)
  /// it stops at the last pre-event epoch. Reports stamped beyond it
  /// were sampled under a config this table does not reflect — they may
  /// still conclusively PASS against it, but a mismatch is classified
  /// kStaleEpoch, never failed (the ahead-of-table rule below). The
  /// default covers owners that never publish staleness.
  std::uint32_t table_valid_to = UINT32_MAX;
  std::uint32_t grace_window = 0;
  const PathTable* current = nullptr;
  const Range* ring = nullptr;  ///< retired tables, newest first
  std::size_t ring_size = 0;

  /// The table covering epoch `e`, or nullptr if none is retained.
  [[nodiscard]] const PathTable* for_epoch(std::uint32_t e) const;
};

/// One published unit — the snapshot model of both servers: the current
/// table, the retired ring and the epoch bookkeeping verify_epoch_aware
/// needs. Server publishes it; ParallelServer republishes the snapshots
/// of the kFullRebuild Server it owns. Never mutated after publication;
/// destroyed when the last reader drops its shared_ptr. (A kIncremental
/// Server is the one exception: its `current` aliases the updater's
/// table, which each refresh edits in place, so that server republishes
/// a fresh snapshot after every refresh and never lets another thread
/// read it.)
struct EpochSnapshot {
  std::uint32_t epoch = 0;
  std::uint32_t table_valid_from = 0;
  /// Last epoch the snapshot's current table definitively covers —
  /// the epoch at publication. Reports stamped beyond it (rule events
  /// the publisher has not absorbed, e.g. while wedged in failsafe) fall
  /// under verify_epoch_aware's ahead-of-table rule: pass-conclusive,
  /// mismatch → kStaleEpoch, never a false positive.
  std::uint32_t table_valid_to = UINT32_MAX;
  std::uint32_t grace_window = 64;
  bool epoch_checking = false;
  std::shared_ptr<const PathTable> current;
  /// Retired tables kept alive for the ring (newest first, parallel to
  /// `ranges`).
  std::vector<std::shared_ptr<const PathTable>> retained;
  std::vector<EpochTables::Range> ranges;

  [[nodiscard]] EpochTables view() const;
};

/// Epoch-checking settings of a server (enable_epoch_checking).
struct EpochPolicy {
  bool checking = false;
  std::size_t ring_capacity = 8;   ///< superseded tables retained
  std::uint32_t grace_window = 64;
};

/// The one publication rule of both servers: `table`, current from
/// `epoch` on, supersedes `prev` (null for the first snapshot). With
/// epoch checking on and retire_below > prev->table_valid_from, prev's
/// table is retired into the ring as [prev->table_valid_from,
/// retire_below - 1] — reports sampled under those epochs are still in
/// flight and must be judged against it; pass 0 to retire nothing (a
/// table edited in place has no old version to keep). prev's ring
/// follows, newest first, cut to policy.ring_capacity entries.
[[nodiscard]] std::shared_ptr<const EpochSnapshot> next_snapshot(
    const EpochSnapshot* prev, std::shared_ptr<const PathTable> table,
    std::uint32_t epoch, std::uint32_t retire_below,
    const EpochPolicy& policy);

/// Epoch-aware Algorithm 3: selects the table by the report's epoch
/// stamp (ring lookup, then the grace-window rule — a stale report may
/// still pass against the current table but never fail, see server.hpp).
/// Reports stamped AHEAD of table_valid_to (the publisher lags the
/// config — e.g. the failsafe is serving the last published snapshot)
/// get the symmetric treatment: a pass against the current table is
/// conclusive, a mismatch is kStaleEpoch — so a wedged publisher can
/// degrade verification to "inconclusive", never to a false positive.
/// With epoch_checking off it degenerates to plain `verify_report`
/// against the current table. Pure read; safe to call concurrently from
/// any number of threads over the same EpochTables.
[[nodiscard]] Verdict verify_epoch_aware(const TagReport& report,
                                         const EpochTables& tables);

/// Direct-mapped lossy memo of verify_epoch_aware verdicts, keyed on the
/// exact report fields the verdict depends on — (inport, outport, header,
/// tag, epoch); `seq` never affects a verdict and is excluded. Duplicate
/// sampled headers are common under Fig-9-style sampling (the same flow's
/// packets hash to the same report); a hit skips the path-list walk and
/// the BDD membership evaluations entirely, returning a verdict
/// bit-identical to recomputation (exact key compare — collisions evict,
/// they can never alias).
///
/// A memo is valid only against ONE EpochTables state: the cached
/// verdicts (including their `matched` pointers) are functions of the
/// tables, so the OWNER MUST clear() it whenever the tables it verifies
/// against change, and must keep those tables alive while cached
/// verdicts are in use. NOT thread-safe — one memo per verifying thread
/// (the parallel server keeps one per worker).
class VerifyMemo {
 public:
  /// `entries` is rounded up to a power of two.
  explicit VerifyMemo(std::size_t entries = 1u << 12);

  void clear();

  // Effectiveness counters (diagnostics / bench).
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  friend Verdict verify_epoch_aware(const TagReport&, const EpochTables&,
                                    VerifyMemo*);
  friend void verify_epoch_aware_batch(const ReportBatch&, std::size_t,
                                       std::size_t, const EpochTables&,
                                       VerifyMemo*, Verdict*);
  struct Entry {
    bool valid = false;
    PortKey inport{};
    PortKey outport{};
    PacketHeader header{};
    BloomTag tag{BloomTag::kDefaultBits};
    std::uint32_t epoch = 0;
    Verdict verdict{};
  };
  // The hash and key compare in field form, shared by the scalar
  // (TagReport) probe and the batched (column) probe so the two paths
  // can never index differently for the same report.
  [[nodiscard]] static std::uint64_t hash_fields(PortKey in, PortKey out,
                                                 const PacketHeader& h,
                                                 std::uint64_t tag_value,
                                                 std::uint32_t epoch);
  [[nodiscard]] static bool matches_fields(const Entry& e, PortKey in,
                                           PortKey out, const PacketHeader& h,
                                           std::uint64_t tag_value,
                                           int tag_bits, std::uint32_t epoch);
  [[nodiscard]] std::size_t index(const TagReport& r) const;
  [[nodiscard]] static bool matches(const Entry& e, const TagReport& r);

  std::vector<Entry> slots_;
  std::size_t mask_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
};

/// Memoizing variant: consults/fills `memo` (may be null — then identical
/// to the two-argument form). See VerifyMemo for the validity contract.
[[nodiscard]] Verdict verify_epoch_aware(const TagReport& report,
                                         const EpochTables& tables,
                                         VerifyMemo* memo);

/// Batched verify_epoch_aware over lanes [first, first + count) of a
/// ReportBatch, filling out[0..count). Bit-identical to running the
/// memoized scalar form lane by lane in order — the verdicts (status,
/// matched pointer, epoch) AND the memo's end state (surviving entries
/// and hit/lookup counters): the probe pass tracks which lane will fill
/// each slot, so intra-batch duplicates and slot evictions resolve
/// exactly as the scalar probe-then-fill interleaving would.
///
/// The speedup levers (DESIGN.md §11): lanes are bucketed by their
/// epoch-resolved table so snapshot resolution happens once per bucket;
/// a lane on a classified inport (path_table.hpp) is decided by its src
/// class, its dst interval and the residual tests of that interval's
/// same-outport candidates, with no pair probe and no lockstep walk — on
/// an inport whose entries test dst bits only, that is one interval
/// search and a compare. Only an inport over the classifier's piece cap,
/// or with entries in two BDD arenas, keeps the pair walk: consecutive
/// same-pair lanes share one path-table probe, and BDD membership runs
/// through BddManager::eval_packed_many, overlapping the dependent node
/// loads across lanes. Tags compare against raw columns. The memo probe still
/// runs first: the classifier replaces only memo-miss work. Lanes the
/// kernel cannot take — no table covers the epoch (grace/stale/
/// ahead-of-table edges) or a path list spans BDD arenas — fall back to
/// the scalar form per lane, so every edge keeps its scalar semantics
/// by construction.
///
/// Same memo contract as the scalar form (memo may be null). Reads the
/// tables, besides installing inport classifiers on first use (race-free,
/// see path_table.hpp); single-threaded per (memo, out) like the
/// scalar path.
void verify_epoch_aware_batch(const ReportBatch& batch, std::size_t first,
                              std::size_t count, const EpochTables& tables,
                              VerifyMemo* memo, Verdict* out);

}  // namespace veridp
