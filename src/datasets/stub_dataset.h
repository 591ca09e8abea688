// A query-sample source for performance-only runs: the simulated plane
// never reads sample contents (latency comes from the compiled model), so
// each sample is one 1-element tensor.  Only the sample count matters: the
// LoadGen draws sample indices below it and logs them, so a stub standing
// in for a real data set must have exactly that set's size.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "datasets/task_dataset.h"

namespace mlpm::datasets {

class StubDataset final : public TaskDataset {
 public:
  explicit StubDataset(std::size_t size = 8) : size_(size) {}

  [[nodiscard]] std::size_t size() const override { return size_; }
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

 private:
  std::size_t size_;
};

}  // namespace mlpm::datasets
