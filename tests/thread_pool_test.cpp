// ThreadPool contract tests: startup/shutdown, full-coverage static
// partitioning, exception propagation, nested-submit safety, concurrent
// callers, determinism of chunk boundaries across thread counts, and the
// one-item-per-claim fan-out (ParallelForEachItem).
#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
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

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::int64_t len : {1, 2, 3, 4, 5, 63, 64, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(len));
    pool.ParallelFor(0, len, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i)
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < len; ++i)
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyAndNegativeRangesAreNoops) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, StaticPartitionIsDeterministic) {
  // The chunk boundaries depend only on (range, chunk_count), never on
  // scheduling: collect them twice and compare.
  const auto boundaries = [](ThreadPool& pool, std::int64_t len) {
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    pool.ParallelFor(0, len, [&](std::int64_t lo, std::int64_t hi) {
      std::scoped_lock lock(mu);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  ThreadPool pool(3);
  const auto a = boundaries(pool, 100);
  const auto b = boundaries(pool, 100);
  EXPECT_EQ(a, b);
  // Chunks tile the range contiguously.
  std::int64_t expect_lo = 0;
  for (const auto& [lo, hi] : a) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_LT(lo, hi);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 100);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](std::int64_t lo, std::int64_t) {
                         if (lo == 0) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPool, PoolStaysUsableAfterException) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(0, 100, [&](std::int64_t, std::int64_t) {
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<std::int64_t> sum{0};
  pool.ParallelFor(0, 100, [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> outer_chunks{0};
  std::atomic<int> inner_total{0};
  pool.ParallelFor(0, 8, [&](std::int64_t lo, std::int64_t hi) {
    outer_chunks.fetch_add(1);
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // A nested submit must not deadlock; it runs inline on this thread.
    pool.ParallelFor(0, 10, [&](std::int64_t ilo, std::int64_t ihi) {
      inner_total.fetch_add(static_cast<int>(ihi - ilo));
    });
    (void)lo;
    (void)hi;
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  EXPECT_GT(outer_chunks.load(), 0);
  EXPECT_EQ(inner_total.load(), outer_chunks.load() * 10);
}

TEST(ThreadPool, ConcurrentCallersSerialize) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> total{0};
  const auto submit = [&] {
    for (int rep = 0; rep < 20; ++rep)
      pool.ParallelFor(0, 50, [&](std::int64_t lo, std::int64_t hi) {
        total.fetch_add(hi - lo);
      });
  };
  std::thread t1(submit), t2(submit);
  submit();
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 3 * 20 * 50);
}

TEST(ThreadPool, ParallelForRangeHelperFallsBackInline) {
  // Null pool and single-thread pool both run the body once, inline.
  int calls = 0;
  ParallelForRange(nullptr, 0, 10, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
  });
  EXPECT_EQ(calls, 1);
  ThreadPool serial(1);
  ParallelForRange(&serial, 0, 10, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    EXPECT_EQ(hi - lo, 10);
  });
  EXPECT_EQ(calls, 2);
}

TEST(ThreadPool, StressManySmallSubmits) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  for (int rep = 0; rep < 500; ++rep)
    pool.ParallelFor(0, 7, [&](std::int64_t lo, std::int64_t hi) {
      total.fetch_add(hi - lo);
    });
  EXPECT_EQ(total.load(), 500 * 7);
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
  std::atomic<int> outer_chunks{0};
  std::atomic<int> inner_lanes{0};
  std::atomic<int> inner_items{0};
  pool.ParallelFor(0, 4, [&](std::int64_t, std::int64_t) {
    outer_chunks.fetch_add(1);
    const std::thread::id caller = std::this_thread::get_id();
    ParallelForEachItem(&pool, 10, [&](ItemClaims& next) {
      inner_lanes.fetch_add(1);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      while (next()) inner_items.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_lanes.load(), outer_chunks.load());
  EXPECT_EQ(inner_items.load(), outer_chunks.load() * 10);
}

}  // namespace
}  // namespace mlpm
