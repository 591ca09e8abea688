#include "common/thread_pool.h"

#include <algorithm>

namespace mlpm {
namespace {

thread_local bool t_in_parallel_region = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0)
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  lanes_ = thread_count;
  workers_.reserve(lanes_ - 1);
  for (std::size_t i = 0; i + 1 < lanes_; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen);
      });
      if (stop_) return;
      seen = generation_;
      job = job_;
      ++job->entered;
    }
    TakeLanes(*job);
    {
      std::scoped_lock lock(mu_);
      ++job->exited;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::TakeLanes(Job& job) const {
  while (job.next_lane.fetch_add(1, std::memory_order_relaxed) <
         job.lane_count) {
    t_in_parallel_region = true;
    try {
      (*job.lane)();
    } catch (...) {
      std::scoped_lock lock(mu_);
      if (!job.first_error) job.first_error = std::current_exception();
    }
    t_in_parallel_region = false;
    {
      std::scoped_lock lock(mu_);
      ++job.lanes_done;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::RunLanes(std::size_t lane_count, const LaneBody& lane) const {
  std::scoped_lock submit(submit_mu_);
  Job job;
  job.lane = &lane;
  job.lane_count = lane_count;
  jobs_dispatched_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t peak = peak_lanes_.load(std::memory_order_relaxed);
  while (peak < lane_count &&
         !peak_lanes_.compare_exchange_weak(peak, lane_count,
                                            std::memory_order_relaxed)) {
  }
  {
    std::scoped_lock lock(mu_);
    job_ = &job;
    ++generation_;
    ++job.entered;  // the caller participates
  }
  work_cv_.notify_all();
  TakeLanes(job);
  {
    std::unique_lock lock(mu_);
    ++job.exited;
    // Wait until all lanes ran AND every participant left the job, so no
    // worker can touch the stack-allocated Job after we return.
    done_cv_.wait(lock, [&] {
      return job.lanes_done == job.lane_count && job.entered == job.exited;
    });
    job_ = nullptr;
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

void ParallelForEachItem(const ThreadPool* pool, std::size_t count,
                         const std::function<void(ItemClaims&)>& lane_body) {
  if (count == 0) return;
  ItemClaims next(count);
  // Inline: no pool, one lane, or already inside a parallel region (a
  // nested dispatch would deadlock on the worker set).
  if (pool == nullptr || pool->thread_count() <= 1 || count == 1 ||
      ThreadPool::InParallelRegion()) {
    lane_body(next);
    return;
  }
  // A lane that starts after the others drained the items makes no
  // per-lane state.
  pool->RunLanes(std::min(pool->thread_count(), count), [&] {
    if (!next.exhausted()) lane_body(next);
  });
}

}  // namespace mlpm
