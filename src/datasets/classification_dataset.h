// Synthetic ImageNet-2012 stand-in for the image-classification task.
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/labelled_dataset.h"

namespace mlpm::datasets {

struct ClassificationDatasetConfig {
  std::size_t num_samples = 128;
  std::int64_t input_size = 32;    // model input resolution
  std::int64_t num_classes = 16;
  // Probability a ground-truth label equals the FP32 teacher's prediction;
  // the remainder is a random *other* class.  Sets FP32 Top-1 accuracy
  // (paper: 76.19%).
  double teacher_agreement = 0.7619;
  // Minimum top1-top2 logit gap for a sample to enter the validation set.
  // Trained classifiers have large decision margins on most images;
  // filtering reproduces that property for the synthetic set (margins are
  // what make INT8 flips rare, i.e. what makes the 98%-of-FP32 target
  // reachable by PTQ).
  double min_teacher_margin = 0.4;
  std::uint64_t seed = 0x1234'5678;
};

class ClassificationDataset final : public LabelledDataset {
 public:
  // `model` must be the FP32 reference classifier; labels are derived from
  // it at construction time.  Both references must outlive the dataset.
  ClassificationDataset(const graph::Graph& model,
                        const infer::WeightStore& weights,
                        ClassificationDatasetConfig config,
                        const ThreadPool* pool = nullptr);

  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const override;
  [[nodiscard]] std::string_view metric_name() const override {
    return "Top-1";
  }

  [[nodiscard]] int LabelFor(std::size_t index) const;

 private:
  [[nodiscard]] infer::Tensor MakeInput(std::uint64_t name_space,
                                        std::size_t index) const override;

  ClassificationDatasetConfig cfg_;
  std::vector<int> labels_;
};

}  // namespace mlpm::datasets
