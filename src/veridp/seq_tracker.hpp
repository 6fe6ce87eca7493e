// Per-switch sequence-number bookkeeping: duplicate suppression over a
// bounded window plus a span-based loss estimate.
//
// The Intake (admission.hpp) keeps one per switch, so the sequential
// ingest and the ParallelServer's lanes share one definition of
// "duplicate" and "lost" — the oracle-equality stress tests depend on
// both paths agreeing exactly, whichever thread a report arrives on.
//
// Not internally synchronized: the sequential ingest is single-threaded
// and the parallel ingest holds its lane's lock around every call. That
// external contract is machine-checked at the owner: ParallelServer
// declares each lane's Intake GUARDED_BY(lane.mu) (see
// common/thread_annotations.hpp and DESIGN.md §8), so under the
// clang-strict preset no call can reach a shared SeqTracker unlocked.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>

namespace veridp {

// veridp-lint: hot-path

class SeqTracker {
 public:
  /// `window` bounds how many sequence numbers are remembered for
  /// duplicate detection (older ones are forgotten FIFO).
  explicit SeqTracker(std::size_t window) : window_(window ? window : 1) {}

  /// Records one observed sequence number. Returns false iff it is a
  /// duplicate of a remembered one.
  ///
  /// A seq inside the observed span [min, max] that is absent from the
  /// dedup window is ambiguous once eviction has begun: it is either a
  /// genuine late arrival filling a real gap, or a duplicate whose first
  /// sighting aged out of the window. Counting it as a fresh unique
  /// would shrink span-minus-unique — under a dup-heavy channel the loss
  /// estimate silently eroded toward zero, one re-sighting at a time.
  /// Such arrivals are booked as `resights_` instead: accepted for
  /// verification (we cannot prove them duplicates), remembered for
  /// dedup, but excluded from the span accounting. While no eviction
  /// has ever happened the window's memory is complete, so an in-span
  /// absent seq is provably new and genuinely narrows the estimate.
  bool note(std::uint32_t seq) {
    if (!seen_.insert(seq).second) return false;
    order_.push_back(seq);
    if (order_.size() > window_) {
      seen_.erase(order_.front());
      order_.pop_front();
      evicted_ = true;
    }
    if (unique_ == 0) {
      min_seq_ = max_seq_ = seq;
    } else if (seq < min_seq_) {
      min_seq_ = seq;
    } else if (seq > max_seq_) {
      max_seq_ = seq;
    } else if (evicted_) {
      ++resights_;  // ambiguous in-span arrival: keep the estimate
      return true;
    }
    ++unique_;
    return true;
  }

  /// Sequence numbers start at 1 per switch, so the span [min, max] of
  /// observed seqs minus the unique count is a lower bound on channel
  /// loss (tail losses after max are invisible; corrupted datagrams
  /// surface here too since their seq never arrives intact). Ambiguous
  /// window-evicted re-sightings never shrink it (see note()), so under
  /// a duplicate storm the estimate is monotone; the price is that a
  /// true retransmission arriving later than `window` distinct seqs no
  /// longer narrows the bound — it shows up in resights() instead.
  [[nodiscard]] std::uint64_t lost_estimate() const {
    if (unique_ == 0) return 0;
    const std::uint64_t span = max_seq_ - min_seq_ + 1ull;
    return span > unique_ ? span - unique_ : 0;
  }

  /// Seqs participating in the span accounting (first sightings).
  [[nodiscard]] std::uint64_t unique() const { return unique_; }
  /// Accepted in-span arrivals after eviction began: late fills or
  /// beyond-window duplicates — indistinguishable by construction.
  [[nodiscard]] std::uint64_t resights() const { return resights_; }

 private:
  // One probe per report at intake, bounded by the window.
  // veridp-lint: allow(hot-path-node-map, per report, not per hop)
  std::unordered_set<std::uint32_t> seen_;
  std::deque<std::uint32_t> order_;  ///< eviction order for `seen_`
  std::size_t window_;
  std::uint32_t min_seq_ = 0;
  std::uint32_t max_seq_ = 0;
  std::uint64_t unique_ = 0;
  std::uint64_t resights_ = 0;
  bool evicted_ = false;  ///< window memory incomplete from here on
};

}  // namespace veridp
