// ThreadPool contract tests, all through its one entry, the
// one-item-per-claim fan-out (ParallelForEachItem): startup/shutdown,
// every item run exactly once, exception propagation, nested-submit
// safety, concurrent callers, the inline null and one-lane pools, and the
// dispatch counters.
#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mlpm {
namespace {

TEST(ThreadPool, ConstructsAndDestructsAcrossSizes) {
  for (const std::size_t n : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.thread_count(), n);
  }
  // 0 picks hardware concurrency (>= 1).
  ThreadPool autosized(0);
  EXPECT_GE(autosized.thread_count(), 1u);
}

TEST(ThreadPool, IdlePoolDestructsWithoutWork) {
  ThreadPool pool(4);  // never submits; destructor must not hang
}

// Every item of one ParallelForEachItem call adds its index to `sum`.
void SumItems(const ThreadPool* pool, std::size_t count,
              std::atomic<std::int64_t>& sum) {
  ParallelForEachItem(pool, count, [&](ItemClaims& next) {
    std::int64_t local = 0;
    while (const std::optional<std::size_t> i = next())
      local += static_cast<std::int64_t>(*i);
    sum.fetch_add(local);
  });
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t len : {1u, 2u, 3u, 4u, 5u, 63u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(len);
    ParallelForEachItem(&pool, len, [&](ItemClaims& next) {
      while (const std::optional<std::size_t> i = next()) hits[*i].fetch_add(1);
    });
    for (std::size_t i = 0; i < len; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyAndNegativeRangesAreNoops) {
  // An item count cannot be negative; an empty one starts no lane, on a
  // pool or inline.
  ThreadPool pool(2);
  int calls = 0;
  ParallelForEachItem(&pool, 0, [&](ItemClaims&) { ++calls; });
  ParallelForEachItem(nullptr, 0, [&](ItemClaims&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelForEachItem(&pool, 100,
                                   [&](ItemClaims& next) {
                                     while (const auto i = next())
                                       if (*i == 0)
                                         throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
}

TEST(ThreadPool, PoolStaysUsableAfterException) {
  ThreadPool pool(4);
  try {
    ParallelForEachItem(&pool, 100, [&](ItemClaims&) {
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<std::int64_t> sum{0};
  SumItems(&pool, 100, sum);
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> outer_items{0};
  std::atomic<int> inner_total{0};
  ParallelForEachItem(&pool, 8, [&](ItemClaims& next) {
    while (next()) {
      outer_items.fetch_add(1);
      EXPECT_TRUE(ThreadPool::InParallelRegion());
      // A nested submit must not deadlock; it runs inline on this thread.
      ParallelForEachItem(&pool, 10, [&](ItemClaims& inner) {
        while (inner()) inner_total.fetch_add(1);
      });
    }
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  EXPECT_EQ(outer_items.load(), 8);
  EXPECT_EQ(inner_total.load(), 8 * 10);
}

TEST(ThreadPool, ConcurrentCallersSerialize) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  const auto submit = [&] {
    for (int rep = 0; rep < 20; ++rep)
      ParallelForEachItem(&pool, 50, [&](ItemClaims& next) {
        while (next()) total.fetch_add(1);
      });
  };
  std::thread t1(submit), t2(submit);
  submit();
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 3 * 20 * 50);
}

TEST(ThreadPool, NullAndOneLanePoolsRunOneLaneInline) {
  // A null pool and a one-lane pool both run one lane, on the calling
  // thread and outside any parallel region, and it claims every item.
  ThreadPool serial(1);
  for (const ThreadPool* pool : {static_cast<const ThreadPool*>(nullptr),
                                 static_cast<const ThreadPool*>(&serial)}) {
    int lanes = 0;
    std::size_t items = 0;
    const std::thread::id caller = std::this_thread::get_id();
    ParallelForEachItem(pool, 10, [&](ItemClaims& next) {
      ++lanes;
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_FALSE(ThreadPool::InParallelRegion());
      while (next()) ++items;
    });
    EXPECT_EQ(lanes, 1);
    EXPECT_EQ(items, 10u);
  }
  EXPECT_EQ(serial.jobs_dispatched(), 0u);
}

TEST(ThreadPool, StressManySmallSubmits) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  for (int rep = 0; rep < 500; ++rep)
    ParallelForEachItem(&pool, 7, [&](ItemClaims& next) {
      while (next()) total.fetch_add(1);
    });
  EXPECT_EQ(total.load(), 500 * 7);
}

TEST(ThreadPool, CountsDispatchedJobsAndTheirPeakLanes) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  SumItems(&pool, 1, sum);  // one item: inline, not dispatched
  EXPECT_EQ(pool.jobs_dispatched(), 0u);
  SumItems(&pool, 3, sum);
  EXPECT_EQ(pool.jobs_dispatched(), 1u);
  EXPECT_EQ(pool.peak_lanes(), 3u);
  SumItems(&pool, 100, sum);
  EXPECT_EQ(pool.jobs_dispatched(), 2u);
  EXPECT_EQ(pool.peak_lanes(), 4u);
  EXPECT_EQ(sum.load(), 3 + 100 * 99 / 2);
}

// Runs ParallelForEachItem over `count` items and returns how many times
// each item ran; `lanes` receives how many times lane_body ran.
std::vector<int> ItemHits(const ThreadPool* pool, std::size_t count,
                          int& lanes) {
  std::vector<std::atomic<int>> hits(count);
  std::atomic<int> lane_calls{0};
  ParallelForEachItem(pool, count, [&](ItemClaims& next) {
    lane_calls.fetch_add(1);
    while (const std::optional<std::size_t> i = next()) hits[*i].fetch_add(1);
  });
  lanes = lane_calls.load();
  std::vector<int> out;
  for (const std::atomic<int>& h : hits) out.push_back(h.load());
  return out;
}

TEST(ParallelForEachItem, RunsEveryItemOnceOnAtMostMinLanesCountLanes) {
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    ThreadPool pool(threads);
    for (const std::size_t count : {0u, 1u, 2u, 3u, 1000u}) {
      int lanes = 0;
      const std::vector<int> hits = ItemHits(&pool, count, lanes);
      EXPECT_EQ(hits, std::vector<int>(count, 1))
          << threads << " threads, " << count << " items";
      EXPECT_LE(static_cast<std::size_t>(lanes), std::min(threads, count))
          << threads << " threads, " << count << " items";
      EXPECT_EQ(lanes > 0, count > 0);
    }
  }
  int lanes = 0;
  EXPECT_EQ(ItemHits(nullptr, 5, lanes), std::vector<int>(5, 1));
  EXPECT_EQ(lanes, 1);
}

TEST(ParallelForEachItem, ExceptionReachesCallerAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelForEachItem(&pool, 100,
                                   [&](ItemClaims& next) {
                                     while (const auto i = next())
                                       if (*i == 37)
                                         throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  int lanes = 0;
  EXPECT_EQ(ItemHits(&pool, 100, lanes), std::vector<int>(100, 1));
}

TEST(ParallelForEachItem, NestedCallRunsOneLaneInline) {
  ThreadPool pool(4);
  std::atomic<int> outer_items{0};
  std::atomic<int> inner_lanes{0};
  std::atomic<int> inner_items{0};
  ParallelForEachItem(&pool, 4, [&](ItemClaims& outer) {
    while (outer()) {
      outer_items.fetch_add(1);
      const std::thread::id caller = std::this_thread::get_id();
      ParallelForEachItem(&pool, 10, [&](ItemClaims& next) {
        inner_lanes.fetch_add(1);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        while (next()) inner_items.fetch_add(1);
      });
    }
  });
  EXPECT_EQ(inner_lanes.load(), 4);
  EXPECT_EQ(inner_items.load(), 4 * 10);
}

}  // namespace
}  // namespace mlpm
