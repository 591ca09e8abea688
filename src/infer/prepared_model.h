// A model prepared once, executed many times.
//
// PreparedModel owns an Executor whose weights were transformed
// (fp16-rounded / fake-quantized) exactly once at construction, plus the
// graph/weight references it needs; callers share it via shared_ptr and run
// it concurrently — Run is const and uses a per-call arena context, so a
// single PreparedModel serves any number of threads.  Callers that run many
// samples on one thread should CreateContext() once and pass it to Run to
// amortize the arena allocation.
//
// RunSamplesParallel is the sample-level fan-out used by the accuracy
// harness: independent samples evaluate on pool threads while per-op
// parallelism inside each sample collapses to inline execution (nested
// ParallelFor), so the same pool serves both regimes without deadlock and
// results stay bit-identical to a serial loop.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <variant>
#include <vector>

#include "infer/executor.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::infer {

class PreparedModel {
 public:
  // Same contract as Executor: `graph` and `weights` must outlive this.
  // `isa` selects the SIMD kernel table for every run on this model (and
  // the ISA-specialized prepack done at construction).
  // `tiling` (tile_planner.h) opts every Run into fused tiled segment
  // execution — bit-identical to the untiled path (DESIGN.md §15).
  PreparedModel(const graph::Graph& graph, const WeightStore& weights,
                NumericsMode mode = NumericsMode::kFp32,
                const QuantParams* quant = nullptr,
                kernels::KernelIsa isa = kernels::KernelIsa::kAuto,
                const TileOptions& tiling = {})
      : executor_(graph, weights, mode, quant, isa, tiling) {}

  [[nodiscard]] const Executor& executor() const { return executor_; }

  [[nodiscard]] std::vector<Tensor> Run(std::span<const Tensor> inputs,
                                        const ThreadPool* pool = nullptr) const {
    ExecutionContext ctx = executor_.CreateContext();
    return executor_.Run(inputs, ctx, NodeObserver{}, pool);
  }

  // Arena-context overload: reuses `ctx`'s arena across calls (one context
  // per thread; a context is not thread-safe).
  [[nodiscard]] std::vector<Tensor> Run(std::span<const Tensor> inputs,
                                        ExecutionContext& ctx,
                                        const ThreadPool* pool = nullptr) const {
    return executor_.Run(inputs, ctx, NodeObserver{}, pool);
  }

  [[nodiscard]] ExecutionContext CreateContext() const {
    return executor_.CreateContext();
  }

 private:
  Executor executor_;
};

// A sample's input tensors as RunSamplesParallel's callback hands them
// over: built for the call (owned), or a view of tensors staged elsewhere
// that outlive the run (a QSL's staged samples), so those are not copied.
using SampleInputs =
    std::variant<std::vector<Tensor>, std::span<const Tensor>>;

// Evaluates `count` independent samples, parallelized over samples when
// `pool` is non-null.  `inputs_for(i)` must be safe to call concurrently
// and returns the sample's input tensors, owned or as a view.  Output order
// matches sample order and every tensor is bit-identical to a serial loop
// (samples are independent; no shared mutable state).
[[nodiscard]] std::vector<std::vector<Tensor>> RunSamplesParallel(
    const Executor& executor, std::size_t count,
    const std::function<SampleInputs(std::size_t)>& inputs_for,
    const ThreadPool* pool);

}  // namespace mlpm::infer
