// The common dataset interface the LoadGen's QSL and the harness's accuracy
// mode consume (paper §4.1).
//
// Ground truth in every concrete dataset is teacher-derived: the FP32
// reference model's own prediction corrupted with seeded noise so the FP32
// score lands on the paper's published quality (DESIGN.md §1).  This makes
// "x% of FP32" quality targets exact by construction while keeping the
// quantization-degradation mechanism real.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "infer/tensor.h"

namespace mlpm::datasets {

class TaskDataset {
 public:
  virtual ~TaskDataset() = default;

  // Number of validation samples.
  [[nodiscard]] virtual std::size_t size() const = 0;

  // Full set of graph inputs for sample `index` (deterministic).  Must be
  // safe to call concurrently: DatasetQsl stages samples on a pool.
  [[nodiscard]] virtual std::vector<infer::Tensor> InputsFor(
      std::size_t index) const = 0;

  // Scores one full pass: outputs[i] holds the model's raw output tensors
  // for sample i, i in [0, size()).  Returns the task metric in [0, 1].
  [[nodiscard]] virtual double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const = 0;

  [[nodiscard]] virtual std::string_view metric_name() const = 0;

  // The FP32 teacher's own score on this set: ScoreOutputs over the outputs
  // the labelling pass produced, so no second FP32 pass is needed when the
  // reference runs on the teacher's kernel table.  nullopt for a set built
  // without a teacher.  Not safe to race with itself.
  [[nodiscard]] virtual std::optional<double> teacher_score() const {
    return std::nullopt;
  }

  // Samples from the *training* split used for PTQ calibration (disjoint
  // seed namespace from validation; paper §5.1's approved ~500-sample set).
  // Must be safe to call concurrently: GatherCalibrationSamples builds
  // them on a pool.
  [[nodiscard]] virtual std::vector<infer::Tensor> CalibrationInputsFor(
      std::size_t index) const = 0;
};

}  // namespace mlpm::datasets
