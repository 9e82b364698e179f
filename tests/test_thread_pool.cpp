/// \file test_thread_pool.cpp
/// util::ThreadPool: the tiled executor's substrate. Checks item
/// coverage (each item exactly once), worker-id bounds, reuse across
/// many batches, exception propagation, clean teardown, and the
/// overlapped call (the caller's own work running while the workers
/// drain).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace mrtpl::util {
namespace {

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each(hits.size(), [&](std::size_t i, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.size());
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    const std::size_t count = static_cast<std::size_t>(round % 7);
    pool.for_each(count, [&](std::size_t, int) { total.fetch_add(1); });
  }
  int expected = 0;
  for (int round = 0; round < 50; ++round) expected += round % 7;
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.for_each(0, [&](std::size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.for_each(5, [&](std::size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(static_cast<int>(i));  // one worker: no race
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.for_each(64,
                             [&](std::size_t i, int) {
                               if (i == 13) throw std::runtime_error("boom");
                               completed.fetch_add(1);
                             }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 63);  // batch drains before the rethrow

  // The pool stays usable after an exceptional batch.
  std::atomic<int> after{0};
  pool.for_each(8, [&](std::size_t, int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, ClampsNonPositiveThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> n{0};
  pool.for_each(3, [&](std::size_t, int) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 3);
}

/// Spin until `pred` holds or `seconds` pass; returns pred().
template <typename Pred>
bool wait_for(Pred pred, double seconds = 10.0) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (!pred() && std::chrono::steady_clock::now() < until)
    std::this_thread::yield();
  return pred();
}

TEST(ThreadPool, OverlappedCallerRunsWhileWorkersDrain) {
  // Every item blocks until the caller releases it, and the caller
  // releases them only after all have started: the pass completes only
  // if the caller's function runs while the items are in flight.
  ThreadPool pool(3);
  std::atomic<int> started{0};
  std::atomic<bool> released{false};
  bool all_started = false;
  pool.for_each_overlapped(
      3,
      [&](std::size_t, int) {
        started.fetch_add(1);
        wait_for([&] { return released.load(); });
      },
      [&] {
        all_started = wait_for([&] { return started.load() == 3; });
        released.store(true);
      });
  EXPECT_TRUE(all_started);
  EXPECT_EQ(started.load(), 3);

  // With no items the caller still runs.
  bool ran = false;
  pool.for_each_overlapped(0, [](std::size_t, int) {}, [&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, OverlappedRethrowsWorkerErrorAfterBothFinish) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  std::atomic<bool> caller_done{false};
  EXPECT_THROW(pool.for_each_overlapped(
                   16,
                   [&](std::size_t i, int) {
                     if (i == 5) throw std::runtime_error("worker");
                     completed.fetch_add(1);
                   },
                   [&] {
                     // The caller finishes its own work even though an
                     // item has (or will have) failed.
                     wait_for([&] { return completed.load() >= 8; });
                     caller_done.store(true);
                   }),
               std::runtime_error);
  EXPECT_TRUE(caller_done.load());
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, OverlappedCallerErrorDrainsThePoolFirst) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.for_each_overlapped(
                   12,
                   [&](std::size_t, int) {
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                     completed.fetch_add(1);
                   },
                   [] { throw std::logic_error("caller"); }),
               std::logic_error);
  EXPECT_EQ(completed.load(), 12);  // drained before the rethrow

  // When both sides throw, the caller's exception wins.
  EXPECT_THROW(pool.for_each_overlapped(
                   4, [](std::size_t, int) { throw std::runtime_error("worker"); },
                   [] { throw std::logic_error("caller"); }),
               std::logic_error);

  // The pool stays usable.
  std::atomic<int> after{0};
  pool.for_each(8, [&](std::size_t, int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
  bool ran = false;
  pool.for_each_overlapped(
      8, [&](std::size_t, int) { after.fetch_add(1); }, [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(after.load(), 16);
}

}  // namespace
}  // namespace mrtpl::util
