// BoundedMpmcQueue unit suite: the task_done accounting contract, the
// close()/open() lifecycle that start-after-stop depends on, and the
// non-blocking/timed dequeue entry points work stealing is built on.
// (The cross-thread behaviour is exercised by the parallel-server and
// sharded-ingest suites under TSan; this file pins the single-thread
// semantics.)
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "veridp/mpmc_queue.hpp"

namespace veridp {
namespace {

TEST(MpmcQueue, TaskDoneExactAccountingReachesIdle) {
  BoundedMpmcQueue<int> q(8);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 8), 2u);
  q.task_done(2);
  q.wait_idle();  // returns immediately: all pushed items processed
  EXPECT_EQ(q.over_reported(), 0u);
}

// Over-reporting completions is a consumer double-accounting bug: debug
// builds abort (the assert names the queue), release builds clamp but
// record the excess so the bug is visible instead of silently "drained".
TEST(MpmcQueue, TaskDoneOverReportIsLoudNotSilent) {
  BoundedMpmcQueue<int> q(8);
  EXPECT_TRUE(q.try_push(7));
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 8), 1u);
#ifdef NDEBUG
  q.task_done(3);  // 2 more than outstanding
  EXPECT_EQ(q.over_reported(), 2u);
  q.wait_idle();  // clamped to 0: still returns
  // The counter is cumulative across further over-reports.
  q.task_done(1);
  EXPECT_EQ(q.over_reported(), 3u);
#else
  EXPECT_DEATH(q.task_done(3), "task_done over-report");
#endif
}

TEST(MpmcQueue, CloseRejectsPushesButDrainsQueuedItems) {
  BoundedMpmcQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  q.close();
  EXPECT_FALSE(q.try_push(2));
  EXPECT_FALSE(q.drained()) << "closed but not yet empty";
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 4), 1u);  // queued item survives close
  EXPECT_EQ(out.front(), 1);
  EXPECT_TRUE(q.drained());
  EXPECT_EQ(q.pop_batch_for(out, 4, std::chrono::hours(1)), 0u)
      << "closed-and-empty: consumer exits without waiting";
}

TEST(MpmcQueue, OpenRearmsAfterClose) {
  BoundedMpmcQueue<int> q(4);
  q.close();
  EXPECT_FALSE(q.try_push(1));
  q.open();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.try_push(1)) << "open() must re-admit work";
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 4), 1u);
  q.task_done(1);
  q.wait_idle();
  EXPECT_EQ(q.over_reported(), 0u);
}

TEST(MpmcQueue, TryPopBatchNeverBlocks) {
  BoundedMpmcQueue<int> q(8);
  std::vector<int> out{99};
  EXPECT_EQ(q.try_pop_batch(out, 4), 0u) << "empty: returns, no wait";
  EXPECT_TRUE(out.empty()) << "out is cleared even on 0";
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_EQ(q.try_pop_batch(out, 4), 4u) << "bounded by max";
  EXPECT_EQ(q.try_pop_batch(out, 4), 2u) << "then by what remains";
  q.task_done(6);
}

TEST(MpmcQueue, PopBatchForTimesOutOnEmpty) {
  BoundedMpmcQueue<int> q(8);
  std::vector<int> out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_batch_for(out, 4, std::chrono::milliseconds(10)), 0u);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5)) << "bounded, not forever";
}

TEST(MpmcQueue, PopBatchForReturnsImmediatelyWhenClosedOrNonEmpty) {
  BoundedMpmcQueue<int> q(8);
  EXPECT_TRUE(q.try_push(5));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch_for(out, 4, std::chrono::hours(1)), 1u)
      << "items ready: no wait at all";
  q.task_done(1);
  q.close();
  EXPECT_EQ(q.pop_batch_for(out, 4, std::chrono::hours(1)), 0u)
      << "closed-and-empty: no wait either";
}

TEST(MpmcQueue, CapacityBoundIsHard) {
  BoundedMpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3)) << "full: caller sheds";
  std::vector<int> out;
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop_batch(out, 8), 2u);
  q.task_done(2);
}

}  // namespace
}  // namespace veridp
