// A query-sample source for performance-only runs: the simulated plane
// never reads sample contents (latency comes from the compiled model), so
// eight 1-element tensors suffice.  Sample indices drawn against it do not
// affect timing.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "datasets/task_dataset.h"

namespace mlpm::datasets {

class StubDataset final : public TaskDataset {
 public:
  [[nodiscard]] std::size_t size() const override { return 8; }
  [[nodiscard]] std::vector<infer::Tensor> InputsFor(
      std::size_t) const override {
    std::vector<infer::Tensor> v;
    v.emplace_back(graph::TensorShape({1}));
    return v;
  }
  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>>) const override {
    return 0.0;
  }
  [[nodiscard]] std::string_view metric_name() const override {
    return "none";
  }
  [[nodiscard]] std::vector<infer::Tensor> CalibrationInputsFor(
      std::size_t index) const override {
    return InputsFor(index);
  }
};

}  // namespace mlpm::datasets
