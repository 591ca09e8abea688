#include "infer/prepared_model.h"

#include <optional>

#include "common/thread_pool.h"

namespace mlpm::infer {

std::vector<std::vector<Tensor>> RunSamplesParallel(
    const Executor& executor, std::size_t count,
    const std::function<std::vector<Tensor>(std::size_t)>& inputs_for,
    const ThreadPool* pool) {
  std::vector<std::vector<Tensor>> results(count);
  // One arena context per lane: each lane allocates its arena once and
  // reuses it for every sample it claims, so the steady state does no
  // per-sample activation allocation.
  ParallelForEachItem(pool, count, [&](ItemClaims& next) {
    ExecutionContext ctx = executor.CreateContext();
    while (const std::optional<std::size_t> i = next()) {
      const std::vector<Tensor> inputs = inputs_for(*i);
      results[*i] = executor.Run(inputs, ctx);
    }
  });
  return results;
}

}  // namespace mlpm::infer
