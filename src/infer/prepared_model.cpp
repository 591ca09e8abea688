#include "infer/prepared_model.h"

#include <optional>

#include "common/thread_pool.h"

namespace mlpm::infer {

std::vector<std::vector<Tensor>> RunSamplesParallel(
    const Executor& executor, std::size_t count,
    const std::function<SampleInputs(std::size_t)>& inputs_for,
    const ThreadPool* pool) {
  std::vector<std::vector<Tensor>> results(count);
  // One arena context per lane: each lane allocates its arena once and
  // reuses it for every sample it claims, so the steady state does no
  // per-sample activation allocation.
  ParallelForEachItem(pool, count, [&](ItemClaims& next) {
    ExecutionContext ctx = executor.CreateContext();
    while (const std::optional<std::size_t> i = next()) {
      const SampleInputs inputs = inputs_for(*i);
      results[*i] = executor.Run(
          std::visit(
              [](const auto& v) { return std::span<const Tensor>(v); },
              inputs),
          ctx);
    }
  });
  return results;
}

}  // namespace mlpm::infer
