// A task bundle: everything the functional accuracy plane needs for one
// benchmark task — the mini-scale reference model (frozen synthetic
// weights), its data set, and numerics preparation (PTQ against the
// approved calibration set, FP16 rounding, optional QAT-agreed weights).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "datasets/task_dataset.h"
#include "infer/executor.h"
#include "models/ssd.h"
#include "models/zoo.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::harness {

// The approved calibration set size (paper §5.1: "typically 500 samples");
// scaled to the mini data plane.
inline constexpr std::size_t kCalibrationSetSize = 128;
inline constexpr std::size_t kCalibrationPoolSize = 1000;
inline constexpr std::uint64_t kCalibrationSeed = 0xCA11B;

// The approved calibration indices at the three constants above, drawn once
// per process and shared by TaskBundle::Prepare and the checker.
[[nodiscard]] const std::vector<std::size_t>& OfficialCalibrationIndices();

// The executor numerics a task's declared data type runs at.
[[nodiscard]] inline infer::NumericsMode NumericsModeFor(DataType numerics) {
  switch (numerics) {
    case DataType::kInt8:
    case DataType::kUInt8:
      return infer::NumericsMode::kInt8;
    case DataType::kFloat16:
      return infer::NumericsMode::kFp16;
    case DataType::kFloat32:
    case DataType::kInt32:
      return infer::NumericsMode::kFp32;
  }
  return infer::NumericsMode::kFp32;
}

// The FP32 reference score of `ds` for `graph` and `weights` at kernel
// `isa`.  When `isa` resolves to the labelling teacher's table (kAuto) and
// `ds` has a teacher score, that score is returned: the teacher ran the
// same graph, weights, numerics, table and inputs, and results do not
// depend on the thread count or tiling, so it is the same number.
// Otherwise a fresh untiled FP32 executor scores `ds` over `pool`.
[[nodiscard]] double Fp32ReferenceScore(const datasets::TaskDataset& ds,
                                        const graph::Graph& graph,
                                        const infer::WeightStore& weights,
                                        const ThreadPool* pool,
                                        infer::kernels::KernelIsa isa);

class TaskBundle {
 public:
  // Builds the mini reference model for a suite entry; its weights are
  // built on the first weights() call and its data set labelled on the
  // first dataset() call, so a performance-only run makes neither.
  // `weight_seed` is the frozen-checkpoint seed (fixed per suite release).
  static std::unique_ptr<TaskBundle> Create(const models::BenchmarkEntry& e,
                                            models::SuiteVersion version,
                                            std::uint64_t weight_seed = 7);

  [[nodiscard]] const models::BenchmarkEntry& entry() const { return entry_; }
  [[nodiscard]] const graph::Graph& mini_graph() const {
    return *NotNull(graph_, "task bundle has no model graph");
  }
  // The frozen synthetic weights, built on the first call; like dataset(),
  // not safe to race with itself.
  [[nodiscard]] const infer::WeightStore& weights() const;
  // The teacher-labelled validation set.  Labelling runs the FP32 teacher
  // over the candidates, so it happens on the first call, fanned out over
  // `pool` when given (the labelled set is the same for any pool; the pool
  // is not kept); like Prepare(), not safe to race with itself.
  [[nodiscard]] const datasets::TaskDataset& dataset(
      const ThreadPool* pool = nullptr) const;
  // The validation set's size, from the data set's config: what the
  // performance plane sizes its sample source by, without labelling.
  [[nodiscard]] std::size_t dataset_size() const { return dataset_size_; }

  struct PreparedModel {
    // Shared so repeated Prepare() calls at the same numerics reuse one
    // prepack (weight transform + PTQ) instead of redoing it.
    std::shared_ptr<const infer::Executor> model;
    // Convenience view of model.get(); never null.
    const infer::Executor* executor = nullptr;
    // Calibration sample indices consumed (for the checker); empty unless
    // INT8.
    std::vector<std::size_t> calibration_indices;
  };

  // Prepares an executor at the given numerics.  INT8 runs PTQ over the
  // approved calibration subset; `use_qat_weights` selects the
  // mutually-agreed QAT-equivalent weights instead of the plain frozen ones.
  // `isa` forces the kernel table (kAuto = best available).  Results are
  // cached per (mode, qat, isa, tile rows) tuple: weights are
  // quantized/packed once per graph and reused across runs.
  //
  // `transform` must be false: the graph-transform stage was removed, and
  // the slot stays only because the benchmark's replay (perfbench/op.cpp)
  // passes it; it leaves with the next change to the benchmark.
  //
  // `tiling` opts the prepared executors into fused tiled segment execution
  // (DESIGN.md §15) — bit-identical to whole-op execution, so accuracy
  // scores are unchanged; only memory footprint and locality differ.  The
  // FP32 reference (Fp32Score) always runs untiled as the oracle.
  //
  // `pool` (may be null) runs the FP32 passes a first Prepare() makes —
  // labelling the data set, gathering the calibration inputs, PTQ — on its
  // threads; the prepared model is byte-identical for any pool.
  [[nodiscard]] PreparedModel Prepare(
      infer::NumericsMode mode, bool use_qat_weights = false,
      infer::kernels::KernelIsa isa = infer::kernels::KernelIsa::kAuto,
      bool transform = false, const infer::TileOptions& tiling = {},
      const ThreadPool* pool = nullptr) const;

  // Runs the full validation set through `executor` and scores it, fanning
  // samples out over `pool` when given (bit-identical to the serial path).
  [[nodiscard]] double ScoreAccuracy(const infer::Executor& executor,
                                     const ThreadPool* pool = nullptr) const;

  // FP32 reference score, computed with the same kernel ISA as the run
  // under test so the ratio compares numerics, not kernels (cached per ISA
  // after first call).  On the teacher's table it is the labelling pass's
  // own score (Fp32ReferenceScore), with no second FP32 pass.
  [[nodiscard]] double Fp32Score(
      const ThreadPool* pool = nullptr,
      infer::kernels::KernelIsa isa = infer::kernels::KernelIsa::kAuto) const;

 private:
  TaskBundle() = default;

  models::BenchmarkEntry entry_;
  models::SuiteVersion version_ = models::SuiteVersion::kV1_0;
  // For detection tasks the graph lives inside detection_model_.
  std::unique_ptr<models::DetectionModel> detection_model_;
  std::unique_ptr<graph::Graph> owned_graph_;
  const graph::Graph* graph_ = nullptr;
  std::uint64_t weight_seed_ = 0;
  mutable std::optional<infer::WeightStore> weights_;      // lazy
  mutable std::optional<infer::WeightStore> qat_weights_;  // lazy
  std::size_t dataset_size_ = 0;
  std::function<std::unique_ptr<datasets::TaskDataset>(const ThreadPool*)>
      make_dataset_;
  mutable std::unique_ptr<datasets::TaskDataset> dataset_;  // lazy
  // FP32 reference scores keyed by kernel ISA.
  mutable std::map<int, double> fp32_scores_;
  // Prepack cache, keyed by (mode, use_qat_weights, isa, tile rows); the
  // tile rows are the tiling request (-2 = untiled), so differently-tiled
  // executors never share an entry.
  mutable std::map<std::tuple<infer::NumericsMode, bool,
                              infer::kernels::KernelIsa, std::int64_t>,
                   PreparedModel>
      prepared_cache_;
};

}  // namespace mlpm::harness
