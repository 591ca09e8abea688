// Fixed-size worker pool with a deterministic parallel-for.
//
// There is one level of parallelism: independent work items (accuracy
// samples, calibration and staging inputs, tasks, checker items, fleet
// shards) run on the pool's lanes, and each inference runs whole on the
// lane that took it.  Every item writes its own slot with the same serial
// code and callers fold in index order, so results are bit-identical
// regardless of thread count; no cross-thread reductions exist.
// ParallelFor statically partitions an index range into contiguous chunks
// (fleet shards, the lanes of a task fan-out); sample-level fan-outs use
// ParallelForEachItem, whose lanes claim one item at a time.
//
// Guarantees:
//   - Exceptions thrown by the body are captured and rethrown on the
//     calling thread (first one wins); the pool stays usable afterwards.
//   - Nested ParallelFor calls (a fan-out inside an already-parallel
//     region, e.g. a task's accuracy samples under the task fan-out) run
//     inline on the calling thread, so they can never deadlock.
//   - Concurrent ParallelFor calls from different threads serialize.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace mlpm {

class ThreadPool {
 public:
  // `thread_count` of 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total execution lanes, including the calling thread.
  [[nodiscard]] std::size_t thread_count() const { return lanes_; }

  // Observability (DESIGN.md §11): parallel jobs dispatched to the worker
  // set (inline fast paths excluded) and the largest chunk fan-out seen —
  // the static-partition pool's analog of a queue depth.  Plain relaxed
  // atomics; snapshotted into the obs::MetricsRegistry by the harness.
  [[nodiscard]] std::uint64_t jobs_dispatched() const {
    return jobs_dispatched_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak_chunks() const {
    return peak_chunks_.load(std::memory_order_relaxed);
  }

  // body(chunk_begin, chunk_end) over a static partition of [begin, end)
  // into at most thread_count() contiguous chunks.  The calling thread
  // participates.  Blocks until every chunk has finished.
  using RangeBody = std::function<void(std::int64_t, std::int64_t)>;
  void ParallelFor(std::int64_t begin, std::int64_t end,
                   const RangeBody& body) const;

  // True while the calling thread is executing a ParallelFor chunk (of any
  // pool).  Nested calls detect this and run inline.
  [[nodiscard]] static bool InParallelRegion();

 private:
  struct Job {
    const RangeBody* body = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::size_t chunk_count = 0;
    std::atomic<std::size_t> next_chunk{0};
    // Guarded by the pool mutex.
    std::size_t chunks_done = 0;
    std::size_t entered = 0;
    std::size_t exited = 0;
    std::exception_ptr first_error;
  };

  void WorkerLoop();
  void RunChunks(Job& job) const;

  std::size_t lanes_ = 1;
  mutable std::atomic<std::uint64_t> jobs_dispatched_{0};
  mutable std::atomic<std::uint64_t> peak_chunks_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable work_cv_;  // workers wait for a job
  mutable std::condition_variable done_cv_;  // the caller waits for finish
  mutable std::mutex submit_mu_;             // serializes concurrent callers
  mutable Job* job_ = nullptr;               // guarded by mu_
  mutable std::uint64_t generation_ = 0;     // guarded by mu_
  bool stop_ = false;                        // guarded by mu_
  std::vector<std::thread> workers_;
};

// ParallelFor on an optional pool: runs inline when `pool` is null,
// single-threaded, or the range is trivial.
inline void ParallelForRange(const ThreadPool* pool, std::int64_t begin,
                             std::int64_t end,
                             const ThreadPool::RangeBody& body) {
  if (begin >= end) return;
  if (pool == nullptr || pool->thread_count() <= 1 || end - begin <= 1) {
    body(begin, end);
    return;
  }
  pool->ParallelFor(begin, end, body);
}

// The item indices of one ParallelForEachItem call, handed out one per
// call from a counter every lane shares.
class ItemClaims {
 public:
  explicit ItemClaims(std::size_t count) : count_(count) {}

  // The next unclaimed index, or nullopt once every item is claimed.
  [[nodiscard]] std::optional<std::size_t> operator()() {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count_) return std::nullopt;
    return i;
  }
  [[nodiscard]] bool exhausted() const {
    return next_.load(std::memory_order_relaxed) >= count_;
  }

 private:
  const std::size_t count_;
  std::atomic<std::size_t> next_{0};
};

// Runs every item in [0, count) exactly once.  Up to min(lanes, count)
// lanes each call `lane_body(next)` once: the body makes its per-lane state
// (an ExecutionContext, say) and then loops `while (auto i = next())`.  A
// slow item holds up only its own lane, so the lanes stay busy where a
// static split would leave them waiting on the slowest slice.  Items write
// into their own slots and callers fold in index order, so results do not
// depend on the pool.  A null or one-lane pool, or a call inside a parallel
// region, runs one lane inline.  The first exception reaches the caller.
void ParallelForEachItem(const ThreadPool* pool, std::size_t count,
                         const std::function<void(ItemClaims&)>& lane_body);

}  // namespace mlpm
