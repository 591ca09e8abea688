// Fixed-size worker pool with one way to hand out work: lanes claim items.
//
// There is one level of parallelism: independent work items (accuracy
// samples, calibration and staging inputs, tasks, checker items, fleet
// shards) run on the pool's lanes, and each inference runs whole on the
// lane that took it.  ParallelForEachItem starts up to min(lanes, count)
// lanes, and each lane claims one item index at a time from a counter they
// share.  Every item writes its own slot with the same serial code and
// callers fold in index order, so results are bit-identical regardless of
// thread count or claim order.  The one fold across lanes is of integer
// counts (PercentilesOfRuns' bucket histograms and gather cursors), which
// is exact in any order; no floating-point value is reduced across lanes.
//
// Guarantees:
//   - The calling thread runs lanes too.
//   - Exceptions thrown by a lane are captured and rethrown on the calling
//     thread (first one wins); the pool stays usable afterwards.
//   - A nested ParallelForEachItem (a fan-out inside an already-parallel
//     region, e.g. a task's accuracy samples under the task fan-out) runs
//     one lane inline on the calling thread, so it can never deadlock.
//   - Concurrent callers from different threads serialize.
//   - A null or one-lane pool runs one lane inline.
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

class ItemClaims;

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
  // set (inline fast paths excluded) and the most lanes one job started.
  // Plain relaxed atomics; snapshotted into the obs::MetricsRegistry by the
  // harness.
  [[nodiscard]] std::uint64_t jobs_dispatched() const {
    return jobs_dispatched_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peak_lanes() const {
    return peak_lanes_.load(std::memory_order_relaxed);
  }

  // True while the calling thread runs a lane of a dispatched job (of any
  // pool).  Nested calls detect this and run inline.
  [[nodiscard]] static bool InParallelRegion();

 private:
  friend void ParallelForEachItem(
      const ThreadPool* pool, std::size_t count,
      const std::function<void(ItemClaims&)>& lane_body);

  using LaneBody = std::function<void()>;

  struct Job {
    const LaneBody* lane = nullptr;
    std::size_t lane_count = 0;
    std::atomic<std::size_t> next_lane{0};
    // Guarded by the pool mutex.
    std::size_t lanes_done = 0;
    std::size_t entered = 0;
    std::size_t exited = 0;
    std::exception_ptr first_error;
  };

  // Runs `lane` `lane_count` times across the workers and the calling
  // thread; blocks until every run has finished.
  void RunLanes(std::size_t lane_count, const LaneBody& lane) const;
  void WorkerLoop();
  void TakeLanes(Job& job) const;

  std::size_t lanes_ = 1;
  mutable std::atomic<std::uint64_t> jobs_dispatched_{0};
  mutable std::atomic<std::uint64_t> peak_lanes_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable work_cv_;  // workers wait for a job
  mutable std::condition_variable done_cv_;  // the caller waits for finish
  mutable std::mutex submit_mu_;             // serializes concurrent callers
  mutable Job* job_ = nullptr;               // guarded by mu_
  mutable std::uint64_t generation_ = 0;     // guarded by mu_
  bool stop_ = false;                        // guarded by mu_
  std::vector<std::thread> workers_;
};

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
