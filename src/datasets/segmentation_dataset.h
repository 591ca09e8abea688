// Synthetic ADE20K stand-in for the semantic-segmentation task.
//
// Ground truth per pixel is the FP32 teacher's argmax with a seeded fraction
// of pixels flipped to random classes (and a fraction relabelled to the
// catch-all/ignore class, mirroring the paper's 32-class training trick).
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/labelled_dataset.h"
#include "metrics/miou.h"

namespace mlpm::datasets {

struct SegmentationDatasetConfig {
  std::size_t num_samples = 32;
  std::int64_t input_size = 32;
  std::int64_t num_classes = 8;
  double pixel_flip_rate = 0.03;  // pixels flipped to a random other class
  double ignore_rate = 0.05;      // pixels assigned the catch-all class
  // Pixels whose teacher top1-top2 logit gap is below this are relabelled
  // to the catch-all (ignored) class — the synthetic analogue of the
  // paper's trick of discarding the classes the network is bad at.
  double min_pixel_margin = 0.3;
  std::uint64_t seed = 0xADE20Aull;
};

class SegmentationDataset final : public LabelledDataset {
 public:
  SegmentationDataset(const graph::Graph& model,
                      const infer::WeightStore& weights,
                      SegmentationDatasetConfig config,
                      const ThreadPool* pool = nullptr);

  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const override;
  [[nodiscard]] std::string_view metric_name() const override {
    return "mIoU";
  }

  [[nodiscard]] const std::vector<int>& LabelMapFor(std::size_t index) const;

 private:
  [[nodiscard]] infer::Tensor MakeInput(std::uint64_t name_space,
                                        std::size_t index) const override;

  SegmentationDatasetConfig cfg_;
  std::vector<std::vector<int>> labels_;  // per-sample pixel label maps
};

}  // namespace mlpm::datasets
