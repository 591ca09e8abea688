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
    RunChunks(*job);
    {
      std::scoped_lock lock(mu_);
      ++job->exited;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::RunChunks(Job& job) const {
  const std::int64_t len = job.end - job.begin;
  const auto total = static_cast<std::int64_t>(job.chunk_count);
  for (;;) {
    const std::size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunk_count) return;
    const std::int64_t lo =
        job.begin + len * static_cast<std::int64_t>(c) / total;
    const std::int64_t hi =
        job.begin + len * (static_cast<std::int64_t>(c) + 1) / total;
    t_in_parallel_region = true;
    try {
      if (lo < hi) (*job.body)(lo, hi);
    } catch (...) {
      std::scoped_lock lock(mu_);
      if (!job.first_error) job.first_error = std::current_exception();
    }
    t_in_parallel_region = false;
    {
      std::scoped_lock lock(mu_);
      ++job.chunks_done;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const RangeBody& body) const {
  if (begin >= end) return;
  // Inline fast paths: no workers, trivial range, or already inside a
  // parallel region (nested submit would deadlock on the worker set).
  if (lanes_ <= 1 || end - begin <= 1 || t_in_parallel_region) {
    body(begin, end);
    return;
  }

  std::scoped_lock submit(submit_mu_);
  Job job;
  job.body = &body;
  job.begin = begin;
  job.end = end;
  job.chunk_count =
      std::min<std::size_t>(lanes_, static_cast<std::size_t>(end - begin));
  jobs_dispatched_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t peak = peak_chunks_.load(std::memory_order_relaxed);
  while (peak < job.chunk_count &&
         !peak_chunks_.compare_exchange_weak(peak, job.chunk_count,
                                             std::memory_order_relaxed)) {
  }
  {
    std::scoped_lock lock(mu_);
    job_ = &job;
    ++generation_;
    ++job.entered;  // the caller participates
  }
  work_cv_.notify_all();
  RunChunks(job);
  {
    std::unique_lock lock(mu_);
    ++job.exited;
    // Wait until all chunks ran AND every participant left the job, so no
    // worker can touch the stack-allocated Job after we return.
    done_cv_.wait(lock, [&] {
      return job.chunks_done == job.chunk_count && job.entered == job.exited;
    });
    job_ = nullptr;
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

void ParallelForEachItem(const ThreadPool* pool, std::size_t count,
                         const std::function<void(ItemClaims&)>& lane_body) {
  if (count == 0) return;
  const std::size_t lanes =
      pool == nullptr || ThreadPool::InParallelRegion()
          ? 1
          : std::min(pool->thread_count(), count);
  ItemClaims next(count);
  // Each chunk of [0, lanes) is one lane.  A lane that starts after the
  // others drained the items makes no per-lane state.
  ParallelForRange(pool, 0, static_cast<std::int64_t>(lanes),
                   [&](std::int64_t, std::int64_t) {
                     if (!next.exhausted()) lane_body(next);
                   });
}

}  // namespace mlpm
