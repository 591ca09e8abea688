// Post-training quantization (paper §5.1).
//
// Submitters may generate INT8 models from the frozen FP32 reference using
// PTQ with an approved ~500-sample calibration set; QAT (retraining) is
// forbidden, though mutually-agreed QAT reference models exist.  This module
// implements:
//   * min-max and moving-average activation-range calibration,
//   * MSE-optimal weight clipping, the stand-in for the agreed QAT models
//     (it recovers part of the PTQ accuracy loss without touching labels,
//     mirroring the paper's "QAT reduces accuracy loss relative to PTQ").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "infer/executor.h"
#include "infer/weights.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::quant {

enum class RangeMethod : std::uint8_t {
  kMinMax,         // global min/max over all calibration samples
  kMovingAverage,  // EMA of per-sample min/max (TensorFlow-style)
};

struct CalibrationConfig {
  RangeMethod method = RangeMethod::kMinMax;
  double ema_decay = 0.9;  // only for kMovingAverage
  int activation_bits = 8;
  int weight_bits = 8;
  bool per_channel_weights = true;
};

// One calibration sample: the full set of graph inputs for one inference.
using CalibrationSample = std::vector<infer::Tensor>;

// Derives QuantParams by running the FP32 reference executor over the
// calibration set and recording activation ranges.  `samples` is typically
// the approved 500-sample subset of the training/validation data.  With
// `pool`, samples run on the pool's threads; each records its ranges and
// the ranges fold in sample order, so the result is byte-identical to the
// serial pass for either method and any pool size.
[[nodiscard]] infer::QuantParams CalibratePtq(
    const graph::Graph& graph, const infer::WeightStore& weights,
    std::span<const CalibrationSample> samples,
    const CalibrationConfig& config = {}, const ThreadPool* pool = nullptr);

// "QAT-equivalent" weight refinement: returns a copy of `weights` whose
// weight tensors are re-clipped to the MSE-optimal symmetric range before
// quantization.  Used to build the mutually-agreed QAT reference models.
[[nodiscard]] infer::WeightStore RefineWeightsMseOptimal(
    const graph::Graph& graph, const infer::WeightStore& weights,
    int weight_bits = 8);

}  // namespace mlpm::quant
