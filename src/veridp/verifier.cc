#include "veridp/verifier.hpp"

#include <algorithm>

#include "bdd/bdd.hpp"
#include "veridp/report_batch.hpp"

namespace veridp {

// veridp-lint: hot-path

Verdict verify_report(const TagReport& report, const PathTable& table) {
  const PathTable::EntryList* paths =
      table.lookup(report.inport, report.outport);
  if (paths) {
    // Linear search is intended: the per-pair path count is small
    // (Figure 6). Without rewrites the per-pair header sets are
    // disjoint and the first match decides; with the header-rewrite
    // extension two paths may map different entry headers onto the
    // same exit header, so every matching entry gets a chance before
    // declaring a tag mismatch.
    const PathEntry* matched = nullptr;
    for (const PathEntry& p : *paths) {
      if (!p.headers.contains(report.header)) continue;
      if (p.tag == report.tag)
        return Verdict{VerifyStatus::kOk, &p, report.epoch};
      if (!matched) matched = &p;
    }
    if (matched)
      return Verdict{VerifyStatus::kTagMismatch, matched, report.epoch};
  }
  return Verdict{VerifyStatus::kNoPath, nullptr, report.epoch};
}

const PathTable* EpochTables::for_epoch(std::uint32_t e) const {
  if (e >= table_valid_from && e <= table_valid_to) return current;
  for (std::size_t i = 0; i < ring_size; ++i)
    if (ring[i].first_epoch <= e && e <= ring[i].last_epoch)
      return ring[i].table;
  return nullptr;
}

EpochTables EpochSnapshot::view() const {
  // Checked builds abort here on use-after-retire / use-across-
  // failsafe-flip (lockdep.hpp); release builds see gen 0 and pass.
  lockdep::snapshot::check(lifecycle_gen, "EpochSnapshot::view");
  EpochTables t;
  t.epoch_checking = epoch_checking;
  t.epoch = epoch;
  t.table_valid_from = table_valid_from;
  t.table_valid_to = table_valid_to;
  t.grace_window = grace_window;
  t.current = current.get();
  t.ring = ranges.data();
  t.ring_size = ranges.size();
  return t;
}

std::shared_ptr<const EpochSnapshot> next_snapshot(
    const EpochSnapshot* prev, std::shared_ptr<const PathTable> table,
    std::uint32_t epoch, std::uint32_t retire_below,
    const EpochPolicy& policy) {
  auto next = std::make_shared<EpochSnapshot>();
  next->epoch = epoch;
  next->table_valid_from = epoch;
  next->table_valid_to = epoch;  // covers exactly what it was built from
  next->grace_window = policy.grace_window;
  next->epoch_checking = policy.checking;
  next->current = std::move(table);
  if (prev == nullptr) return next;
  if (policy.checking && retire_below > prev->table_valid_from) {
    next->retained.push_back(prev->current);
    next->ranges.push_back(
        {prev->table_valid_from, retire_below - 1, prev->current.get()});
  }
  for (std::size_t i = 0; i < prev->ranges.size(); ++i) {
    next->retained.push_back(prev->retained[i]);
    next->ranges.push_back(prev->ranges[i]);
  }
  const std::size_t keep = std::min(next->ranges.size(), policy.ring_capacity);
  next->retained.resize(keep);
  next->ranges.resize(keep);
  return next;
}

Verdict verify_epoch_aware(const TagReport& report, const EpochTables& t) {
  if (!t.epoch_checking) {
    Verdict v = verify_report(report, *t.current);
    v.epoch = t.table_valid_from;
    return v;
  }

  if (const PathTable* tbl = t.for_epoch(report.epoch))
    return verify_report(report, *tbl);

  // Ahead-of-table: the report was stamped under an epoch newer than
  // anything the current table definitively covers (the publisher lags
  // the config — dirty-but-unpublished events, or the A/B failsafe
  // serving the last-good snapshot while the publisher is wedged). A
  // pass against the current table is conclusive; a mismatch may merely
  // reflect the config delta the table has not absorbed yet, so it is
  // inconclusive — never a data-plane failure.
  if (report.epoch > t.table_valid_to) {
    const Verdict v = verify_report(report, *t.current);
    if (v.ok()) return v;
    return Verdict{VerifyStatus::kStaleEpoch, nullptr, report.epoch};
  }

  // No table covers the report's epoch (a snapshot that aged out, or an
  // epoch that fell between two lazy rebuilds). Within the grace window
  // the report gets a chance against the current table — a pass is
  // conclusive (the current config admits exactly this path), a failure
  // is not (the path may have been correct under the sampling-time
  // config), so it is classified stale, never failed.
  if (t.epoch - report.epoch <= t.grace_window) {
    Verdict v = verify_report(report, *t.current);
    if (v.ok()) return v;
  }
  return Verdict{VerifyStatus::kStaleEpoch, nullptr, report.epoch};
}

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

VerifyMemo::VerifyMemo(std::size_t entries)
    : slots_(next_pow2(entries == 0 ? 1 : entries)),
      mask_(slots_.size() - 1) {}

void VerifyMemo::clear() {
  for (Entry& e : slots_) e.valid = false;
}

std::uint64_t VerifyMemo::hash_fields(PortKey in, PortKey out,
                                      const PacketHeader& hdr,
                                      std::uint64_t tag_value,
                                      std::uint32_t epoch) {
  std::uint64_t h = std::hash<PacketHeader>{}(hdr);
  // Not a bare XOR pack: each port pair is assembled with | over
  // disjoint lanes and multiplied by an odd constant before folding, so
  // field aliasing cannot cancel. veridp-lint: allow(xor-hash-key)
  h ^= (static_cast<std::uint64_t>(in.sw) << 32 | in.port) *
       0x9E3779B97F4A7C15ULL;
  // veridp-lint: allow(xor-hash-key) -- same | + odd-multiply shape
  h ^= (static_cast<std::uint64_t>(out.sw) << 32 | out.port) *
       0xC2B2AE3D27D4EB4FULL;
  h ^= tag_value * 0x165667B19E3779F9ULL;
  // Epoch occupies its own lane; the avalanche below mixes it.
  // veridp-lint: allow(xor-hash-key)
  h ^= static_cast<std::uint64_t>(epoch) << 17;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return h;
}

bool VerifyMemo::matches_fields(const Entry& e, PortKey in, PortKey out,
                                const PacketHeader& hdr,
                                std::uint64_t tag_value, int tag_bits,
                                std::uint32_t epoch) {
  return e.valid && e.epoch == epoch && e.inport == in && e.outport == out &&
         e.tag.value() == tag_value && e.tag.bits() == tag_bits &&
         e.header == hdr;
}

std::size_t VerifyMemo::index(const TagReport& r) const {
  return static_cast<std::size_t>(hash_fields(r.inport, r.outport, r.header,
                                              r.tag.value(), r.epoch)) &
         mask_;
}

bool VerifyMemo::matches(const Entry& e, const TagReport& r) {
  return matches_fields(e, r.inport, r.outport, r.header, r.tag.value(),
                        r.tag.bits(), r.epoch);
}

Verdict verify_epoch_aware(const TagReport& report, const EpochTables& t,
                           VerifyMemo* memo) {
  if (!memo) return verify_epoch_aware(report, t);
  ++memo->lookups_;
  const std::size_t i = memo->index(report);
  VerifyMemo::Entry& e = memo->slots_[i];
  if (VerifyMemo::matches(e, report)) {
    ++memo->hits_;
    return e.verdict;
  }
  const Verdict v = verify_epoch_aware(report, t);
  e = VerifyMemo::Entry{true,       report.inport, report.outport,
                        report.header, report.tag, report.epoch,
                        v};
  return v;
}

void verify_epoch_aware_batch(const ReportBatch& b, std::size_t first,
                              std::size_t count, const EpochTables& t,
                              VerifyMemo* memo, Verdict* out) {
  if (count == 0) return;

  enum class Lane : std::uint8_t { kHit, kWork, kFallback, kDup };
  std::vector<Lane> kind(count, Lane::kWork);
  // Intra-batch duplicate lanes: verdict deferred to the lane that will
  // fill their memo slot (the hit they would take under the scalar
  // loop's probe-then-fill interleaving).
  std::vector<std::uint32_t> dup_of(memo ? count : 0);
  // Per memo slot, the latest miss lane that will fill it — the
  // in-batch image of the memo's evolving slot state, so the probe pass
  // sees exactly what a scalar probe at that lane's turn would see.
  // Open-addressed, linear probe, keyed slot+1 (0 = empty); capacity
  // 2×count keeps the load factor ≤ 1/2, so probes stay O(1) array
  // touches (an unordered_map here measurably dragged the whole batch).
  std::vector<std::int64_t> filler_key;
  std::vector<std::uint32_t> filler_lane;
  std::size_t fmask = 0;
  if (memo) {
    std::size_t cap = 4;
    while (cap < count * 2) cap <<= 1;
    filler_key.assign(cap, 0);
    filler_lane.resize(cap);
    fmask = cap - 1;
  }
  // Index of `slot`'s entry, or of the empty cell where it would go.
  // Memo slots are already avalanche-mixed, so masking is enough.
  const auto filler_find = [&filler_key, fmask](std::size_t slot) {
    std::size_t fi = slot & fmask;
    while (filler_key[fi] != 0 &&
           filler_key[fi] != static_cast<std::int64_t>(slot) + 1)
      fi = (fi + 1) & fmask;
    return fi;
  };
  const auto same_key = [&b](std::size_t x, std::size_t y) {
    return b.epoch[x] == b.epoch[y] && b.inport[x] == b.inport[y] &&
           b.outport[x] == b.outport[y] && b.tag[x] == b.tag[y] &&
           b.tag_width[x] == b.tag_width[y] && b.header[x] == b.header[y];
  };

  // Lanes grouped by the table their epoch resolves to — usually one
  // bucket (the current table), at most ring_size + 1.
  struct Bucket {
    const PathTable* table;
    std::vector<std::uint32_t> lanes;  // ascending, so runs survive
  };
  std::vector<Bucket> buckets;

  // Probe pass: memo first (same hash/key as the scalar probe), then
  // epoch resolution. A lane no retained table covers takes the scalar
  // fallback — the grace-window / ahead-of-table / stale edges stay on
  // the one authoritative implementation.
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = first + k;
    if (memo) {
      ++memo->lookups_;
      const std::uint64_t h = VerifyMemo::hash_fields(
          b.inport[i], b.outport[i], b.header[i], b.tag[i], b.epoch[i]);
      const std::size_t slot = static_cast<std::size_t>(h) & memo->mask_;
      const std::size_t fi = filler_find(slot);
      if (filler_key[fi] != 0) {
        // An earlier lane of this batch will have (re)filled the slot
        // by this lane's scalar turn; probe against THAT, not the
        // pre-batch entry it evicts.
        if (same_key(first + filler_lane[fi], i)) {
          ++memo->hits_;
          kind[k] = Lane::kDup;
          dup_of[k] = filler_lane[fi];
          continue;
        }
      } else {
        const VerifyMemo::Entry& e = memo->slots_[slot];
        if (VerifyMemo::matches_fields(e, b.inport[i], b.outport[i],
                                       b.header[i], b.tag[i], b.tag_width[i],
                                       b.epoch[i])) {
          ++memo->hits_;
          out[k] = e.verdict;
          kind[k] = Lane::kHit;
          continue;
        }
      }
      // A miss: this lane fills the slot.
      filler_key[fi] = static_cast<std::int64_t>(slot) + 1;
      filler_lane[fi] = static_cast<std::uint32_t>(k);
    }
    const PathTable* tbl =
        t.epoch_checking ? t.for_epoch(b.epoch[i]) : t.current;
    if (tbl == nullptr) {
      kind[k] = Lane::kFallback;
      continue;
    }
    Bucket* bk = nullptr;
    for (Bucket& cand : buckets)
      if (cand.table == tbl) {
        bk = &cand;
        break;
      }
    if (bk == nullptr) {
      buckets.push_back(Bucket{tbl, {}});
      bk = &buckets.back();
    }
    bk->lanes.push_back(static_cast<std::uint32_t>(k));
  }

  // A lane still testing path entries: Algorithm 3's cursor state.
  struct LaneWork {
    std::uint32_t lane;
    const PathTable::EntryList* paths;
    const PathEntry* matched;  // first header match with a differing tag
    std::uint32_t next;        // next entry index to test
  };
  std::vector<LaneWork> live;
  std::vector<BddRef> roots;
  std::vector<std::array<std::uint64_t, 2>> hdrs;
  std::vector<std::uint8_t> member;

  for (const Bucket& bk : buckets) {
    live.clear();

    // Pair probes with run sharing: a switch's report stream repeats
    // the same (inport, outport) in bursts, so consecutive lanes reuse
    // one lookup. Each new run is also vetted for the lockstep kernel:
    // every entry's header set must live in one BDD arena (one
    // HeaderSpace per table by construction; a mixed list — never built
    // by our table builders — falls back to scalar lanes).
    const BddManager* mgr = nullptr;  // the bucket's (single) arena
    const PathTable::EntryList* run_paths = nullptr;
    bool have_run = false;
    bool run_batchable = false;
    PortKey run_in{};
    PortKey run_out{};
    for (std::uint32_t k : bk.lanes) {
      const std::size_t i = first + k;
      if (!have_run || !(b.inport[i] == run_in) ||
          !(b.outport[i] == run_out)) {
        run_in = b.inport[i];
        run_out = b.outport[i];
        run_paths = bk.table->lookup(run_in, run_out);
        have_run = true;
        run_batchable = true;
        if (run_paths) {
          for (const PathEntry& p : *run_paths) {
            const BddManager* em = p.headers.manager();
            if (em == nullptr) continue;  // contains() is const false
            if (mgr == nullptr) mgr = em;
            if (em != mgr) {
              run_batchable = false;
              break;
            }
          }
        }
      }
      if (run_paths == nullptr) {
        out[k] = Verdict{VerifyStatus::kNoPath, nullptr, b.epoch[i]};
        continue;
      }
      if (!run_batchable) {
        kind[k] = Lane::kFallback;
        continue;
      }
      live.push_back(LaneWork{k, run_paths, nullptr, 0});
    }

    // Rounds: each live lane tests its next entry; membership for the
    // whole round is one lockstep multi-root eval. Exactly the scalar
    // entry walk — first member with an equal tag is kOk, the first
    // member with a differing tag is remembered for kTagMismatch.
    while (!live.empty()) {
      const std::size_t n = live.size();
      roots.clear();
      hdrs.clear();
      for (const LaneWork& w : live) {
        const PathEntry& p = (*w.paths)[w.next];
        // A manager-less header set contains nothing: the FALSE
        // terminal encodes that arena-independently.
        roots.push_back(p.headers.manager() ? p.headers.ref() : kBddFalse);
        hdrs.push_back(b.bits[first + w.lane]);
      }
      member.assign(n, 0);
      if (mgr != nullptr)
        mgr->eval_packed_many(roots.data(), hdrs.data(), n, member.data());

      std::size_t wr = 0;
      for (std::size_t li = 0; li < n; ++li) {
        LaneWork w = live[li];
        const std::size_t i = first + w.lane;
        const PathEntry& p = (*w.paths)[w.next];
        bool done = false;
        if (member[li]) {
          if (p.tag.value() == b.tag[i] && p.tag.bits() == b.tag_width[i]) {
            out[w.lane] = Verdict{VerifyStatus::kOk, &p, b.epoch[i]};
            done = true;
          } else if (w.matched == nullptr) {
            w.matched = &p;
          }
        }
        if (!done && ++w.next == w.paths->size()) {
          out[w.lane] =
              w.matched != nullptr
                  ? Verdict{VerifyStatus::kTagMismatch, w.matched, b.epoch[i]}
                  : Verdict{VerifyStatus::kNoPath, nullptr, b.epoch[i]};
          done = true;
        }
        if (!done) live[wr++] = w;
      }
      live.resize(wr);
    }
  }

  // Scalar lanes: the rare edges run the authoritative implementation
  // end to end (including the !epoch_checking epoch rewrite).
  for (std::size_t k = 0; k < count; ++k)
    if (kind[k] == Lane::kFallback)
      out[k] = verify_epoch_aware(b.report(first + k), t);

  // The scalar wrapper stamps verdicts with the table's first epoch
  // when epoch checking is off; kernel lanes get the same rewrite.
  if (!t.epoch_checking) {
    for (std::size_t k = 0; k < count; ++k)
      if (kind[k] == Lane::kWork) out[k].epoch = t.table_valid_from;
  }

  // Intra-batch duplicates take their filler lane's (final, rewritten)
  // verdict — exactly the cached verdict a scalar probe would return.
  // A filler is always a computed lane: dup lanes never enter the
  // filler table.
  for (std::size_t k = 0; k < count; ++k)
    if (kind[k] == Lane::kDup) out[k] = out[dup_of[k]];

  // Fill pass over the miss lanes, ascending — the scalar loop's fill
  // order, so the memo's end state (surviving entries, verdict bits,
  // hit/lookup counters) is identical to count scalar calls.
  if (memo) {
    for (std::size_t k = 0; k < count; ++k) {
      if (kind[k] == Lane::kHit || kind[k] == Lane::kDup) continue;
      const std::size_t i = first + k;
      const std::uint64_t h = VerifyMemo::hash_fields(
          b.inport[i], b.outport[i], b.header[i], b.tag[i], b.epoch[i]);
      memo->slots_[static_cast<std::size_t>(h) & memo->mask_] =
          VerifyMemo::Entry{true,
                            b.inport[i],
                            b.outport[i],
                            b.header[i],
                            BloomTag::from_raw(b.tag[i], b.tag_width[i]),
                            b.epoch[i],
                            out[k]};
    }
  }
}

}  // namespace veridp
