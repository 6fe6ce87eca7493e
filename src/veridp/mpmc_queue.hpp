// Bounded multi-producer / multi-consumer queue: the conveyor belt
// between ingest producers and verification workers.
//
// Deliberately a mutex + condition-variable design rather than a
// lock-free ring: the per-item cost that matters in this system is BDD
// membership evaluation (microseconds), not queue ops (tens of
// nanoseconds), and a mutex-based queue is provably correct under
// ThreadSanitizer with no relaxed-ordering subtleties. The *hot* shared
// state — the path-table snapshot — is the thing published lock-free
// (see parallel_server.hpp); the queue is plumbing.
//
// Completion tracking follows the task_done/wait_idle protocol: push
// increments an unfinished count, consumers call task_done(n) after
// *processing* (not merely popping) n items, and wait_idle() blocks
// until every pushed item has been fully processed — which is what lets
// drain() distinguish "queue empty" from "work finished".
//
// Thread-safety contract, machine-checked (DESIGN.md §8): every mutable
// member is GUARDED_BY(mu_); under the clang-strict preset an access
// outside a MutexLock scope fails the build.
#pragma once

#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/thread_annotations.hpp"

namespace veridp {

// veridp-lint: hot-path

template <typename T>
class BoundedMpmcQueue {
 public:
  explicit BoundedMpmcQueue(std::size_t capacity)
      : cap_(capacity ? capacity : 1) {}

  /// Enqueues unless the queue is full or closed. Never blocks — the
  /// caller (ingest shedding) decides what to do with a rejected item.
  bool try_push(T v) EXCLUDES(mu_) {
    {
      MutexLock lk(mu_);
      if (closed_ || q_.size() >= cap_) return false;
      q_.push_back(std::move(v));
      ++unfinished_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Pops up to `max` items into `out` (cleared first) WITHOUT blocking.
  /// Returns the number popped — 0 simply means "nothing available right
  /// now", closed or not. This is the work-stealing entry point: a
  /// worker whose own lane ran dry raids a sibling lane's queue, and a
  /// thief must never sleep on a queue it does not own.
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max)
      EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return pop_locked(out, max);
  }

  /// try_pop_batch with a bounded wait: blocks until an item arrives,
  /// the queue is closed, or `timeout` elapses. Returns the number popped
  /// (0 on timeout or closed-and-empty — callers that need to tell the
  /// two apart re-check closed()/drained themselves).
  template <typename Rep, typename Period>
  std::size_t pop_batch_for(std::vector<T>& out, std::size_t max,
                            std::chrono::duration<Rep, Period> timeout)
      EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (!closed_ && q_.empty()) not_empty_.wait_for(lk, timeout);
    return pop_locked(out, max);
  }

  /// Marks `n` previously popped items as fully processed. Reporting
  /// more completions than items outstanding is a consumer accounting
  /// bug (e.g. double-counting a batch): debug builds abort on it, and
  /// every build records the excess in over_reported() instead of
  /// silently clamping — a wait_idle() released by inflated completions
  /// would "drain" a pipeline that still has work in flight.
  void task_done(std::size_t n) EXCLUDES(mu_) {
    MutexLock lk(mu_);
    if (n > unfinished_) {
      over_reported_ += n - unfinished_;
      assert(false && "BoundedMpmcQueue::task_done over-report");
      unfinished_ = 0;
    } else {
      unfinished_ -= n;
    }
    if (unfinished_ == 0) idle_.notify_all();
  }

  /// Blocks until every pushed item has been popped *and* task_done'd.
  /// The caller must guarantee producers have stopped pushing, otherwise
  /// "idle" is a moving target.
  void wait_idle() EXCLUDES(mu_) {
    MutexLock lk(mu_);
    while (unfinished_ != 0) idle_.wait(lk);
  }

  /// Rejects future pushes and wakes all blocked consumers; already
  /// queued items remain poppable so consumers drain before exiting.
  void close() EXCLUDES(mu_) {
    {
      MutexLock lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  /// Re-arms a closed queue (start after stop). Requires no live
  /// consumers.
  void open() EXCLUDES(mu_) {
    MutexLock lk(mu_);
    closed_ = false;
  }

  [[nodiscard]] std::size_t size() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return q_.size();
  }

  [[nodiscard]] bool closed() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return closed_;
  }

  /// True once the queue can yield no further work: closed and empty.
  /// (Items popped but not yet task_done'd do not count — they are some
  /// consumer's responsibility already.)
  [[nodiscard]] bool drained() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return closed_ && q_.empty();
  }

  /// Cumulative task_done over-report (completions in excess of
  /// outstanding items). Nonzero means a consumer double-accounted.
  [[nodiscard]] std::uint64_t over_reported() const EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return over_reported_;
  }

 private:
  /// Moves up to `max` items into `out` (cleared first).
  std::size_t pop_locked(std::vector<T>& out, std::size_t max) REQUIRES(mu_) {
    out.clear();
    const std::size_t n = q_.size() < max ? q_.size() : max;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return n;
  }

  // Leaf of the declared lock hierarchy (tools/lock_order_extract.py):
  // lane ingest locks may be held while pushing here, never vice versa
  // (the same edge the Lane declares from its side — both directions
  // of the declaration syntax resolve to one DAG edge).
  // ACQUIRED_AFTER("ParallelServer::Lane::mu")
  mutable Mutex mu_{"BoundedMpmcQueue::mu"};
  CondVar not_empty_;
  CondVar idle_;
  std::deque<T> q_ GUARDED_BY(mu_);
  std::size_t cap_;  ///< immutable after construction
  std::size_t unfinished_ GUARDED_BY(mu_) = 0;  ///< pushed, not task_done'd
  std::uint64_t over_reported_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace veridp
