// Reference numeric executor.
//
// Executes a graph::Graph on the CPU with straightforward NHWC kernels.
// This is the stand-in for the paper's poorly-optimized reference TFLite
// implementation (§3.3): correct, simple, and the source of FP32 ground
// truth for the teacher-labelled datasets.  There is one engine: every run
// executes over an ExecutionContext's preplanned arena, and every spatial
// op runs through the row-band kernels of tiled_ops.h — as fused tile
// segments when the tile planner chose some, as one full-height band per
// batch image otherwise.  A run executes entirely on its calling thread;
// parallelism lives above it, one sample per lane (RunSamplesParallel).
//
// Numerics modes (paper §5.1/§7.5):
//   kFp32 — plain float.
//   kFp16 — weights and every node output rounded through binary16.
//   kInt8 — weights fake-quantized symmetric (per-channel by default);
//           activations fake-quantized asymmetric using calibrated ranges.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "infer/kernels/registry.h"
#include "infer/memory_plan.h"
#include "infer/quant_params.h"
#include "infer/tensor.h"
#include "infer/tile_planner.h"
#include "infer/weights.h"

namespace mlpm::infer {

class Executor;

namespace internal {
struct NodeRunner;
}

// Reusable execution state for a run: one contiguous activation
// arena sized by the executor's MemoryPlan, plus prebuilt view tensors for
// every planned activation.  Create one per thread (a context is not
// thread-safe) and reuse it across samples — every kernel fully overwrites
// its output range, so nothing is cleared between runs.  The executor must
// outlive the context.
class ExecutionContext {
 public:
  explicit ExecutionContext(const Executor& executor);

  [[nodiscard]] const MemoryPlan& plan() const { return *plan_; }
  [[nodiscard]] std::size_t arena_bytes() const {
    return arena_.size() * sizeof(float);
  }

 private:
  friend class Executor;
  const MemoryPlan* plan_;
  std::vector<float> arena_;
  // Arena views indexed by TensorId (default tensors for unplanned slots).
  std::vector<Tensor> slots_;
  // Graph inputs bound for the current Run, indexed by TensorId.
  std::vector<const Tensor*> external_;
};

enum class NumericsMode : std::uint8_t { kFp32, kFp16, kInt8 };

[[nodiscard]] constexpr std::string_view ToString(NumericsMode m) {
  switch (m) {
    case NumericsMode::kFp32: return "FP32";
    case NumericsMode::kFp16: return "FP16";
    case NumericsMode::kInt8: return "INT8";
  }
  return "?";
}

// Called after each node executes, with the node's output tensor.  Used by
// the quantizer to record activation ranges during calibration.
using NodeObserver =
    std::function<void(graph::TensorId, const Tensor&)>;

// How many node executions each dispatched microkernel family served, so
// profiles can show which microkernel ran each op (harness exports these as
// kernels.dispatch.* metrics alongside the resolved ISA name).
struct KernelDispatchCounts {
  std::uint64_t conv2d = 0;
  std::uint64_t depthwise_conv2d = 0;
  std::uint64_t fully_connected = 0;
};

class Executor {
 public:
  // `graph` and `weights` must outlive the executor.  For kInt8 mode,
  // `quant` must be non-null and is copied.  `isa` selects the SIMD kernel
  // table (kernels/registry.h): kAuto resolves to the best table the host
  // supports; an unavailable forced ISA falls back to scalar.  Depthwise
  // weights are repacked [C,KH,KW] -> [KH,KW,C] and attention projections
  // [out, in] -> [in, out] at construction, so every table reads them in
  // its kernels' order (a pure layout change — the scalar table remains
  // bit-identical to the pre-registry executor).
  //
  // `tiling` (tile_planner.h) opts every run into fused tiled segment
  // execution: fusable conv/dw chains run crop-by-crop through a tile slab
  // instead of materializing full intermediates.  Tiled execution is
  // bit-identical to whole-op execution for every numerics mode and kernel
  // table (DESIGN.md §15).
  Executor(const graph::Graph& graph, const WeightStore& weights,
           NumericsMode mode = NumericsMode::kFp32,
           const QuantParams* quant = nullptr,
           kernels::KernelIsa isa = kernels::KernelIsa::kAuto,
           const TileOptions& tiling = {});

  // Runs the graph; `inputs` must match graph.input_ids() in order and
  // shape.  Returns one tensor per graph output.  A one-shot context: runs
  // of many samples on one thread should pass a reused context instead.
  [[nodiscard]] std::vector<Tensor> Run(std::span<const Tensor> inputs) const;

  // Runs in `ctx`'s preplanned arena; graph inputs are bound as read-only
  // views (never copied).  `ctx` must have been created from this executor;
  // reuse it across calls on one thread.  `observer`, if set, sees every
  // node output before output numerics (calibration); it requires an
  // untiled executor, because tiled segments never materialize their
  // interiors.  Every node, and the observer, runs on the calling thread.
  [[nodiscard]] std::vector<Tensor> Run(
      std::span<const Tensor> inputs, ExecutionContext& ctx,
      const NodeObserver& observer = {}) const;

  [[nodiscard]] ExecutionContext CreateContext() const {
    return ExecutionContext(*this);
  }

  [[nodiscard]] NumericsMode mode() const { return mode_; }
  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  // The static activation plan (built once at construction; tile-aware
  // when the executor was constructed with tiling enabled).
  [[nodiscard]] const MemoryPlan& memory_plan() const { return plan_; }
  // The tile plan (empty when tiling is off or no segment qualified).
  [[nodiscard]] const TilePlan& tile_plan() const { return tile_plan_; }
  [[nodiscard]] bool tiled() const { return !tile_plan_.empty(); }

  // The resolved kernel ISA (never kAuto) and its table.
  [[nodiscard]] kernels::KernelIsa kernel_isa() const { return kernels_->isa; }
  [[nodiscard]] const kernels::KernelTable& kernels() const {
    return *kernels_;
  }
  // Snapshot of the per-kernel dispatch counters, accumulated across every
  // Run on this executor (thread-safe; counters are relaxed atomics).
  [[nodiscard]] KernelDispatchCounts dispatch_counts() const;

 private:
  friend struct internal::NodeRunner;

  [[nodiscard]] const Tensor& WeightFor(graph::TensorId id) const;
  [[nodiscard]] const Tensor& PackedWeightFor(graph::TensorId id) const;

  const graph::Graph& graph_;
  NumericsMode mode_;
  QuantParams quant_;
  // Declared before plan_: the memory plan is built against the tile plan.
  TilePlan tile_plan_;
  MemoryPlan plan_;
  // Weights transformed once for the executor's numerics mode, indexed by
  // TensorId (nullptr for activation slots).
  std::vector<std::unique_ptr<Tensor>> prepared_weights_;
  // The runtime-selected kernel table (points at registry-owned statics).
  const kernels::KernelTable* kernels_;
  // Weights repacked for their kernel, indexed by weight TensorId (nullptr
  // elsewhere): depthwise [KH,KW,C], attention projections [in, out].
  std::vector<std::unique_ptr<Tensor>> packed_weights_;
  // conv2d / depthwise / fully-connected node executions, in that order.
  mutable std::array<std::atomic<std::uint64_t>, 3> dispatch_counts_{};
};

}  // namespace mlpm::infer
