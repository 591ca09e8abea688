// Synthetic COCO-2017 stand-in for the object-detection task.
//
// Ground-truth boxes are the FP32 teacher's own post-NMS detections with
// seeded corruption (box jitter, class flips, drops), so the FP32 model
// scores high-but-imperfect mAP and quantized models degrade through real
// box/score perturbations.
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/labelled_dataset.h"
#include "metrics/map.h"
#include "models/ssd.h"

namespace mlpm::datasets {

struct DetectionDatasetConfig {
  std::size_t num_samples = 64;
  // Corruption knobs applied to teacher detections to form ground truth.
  double box_jitter = 0.10;     // stddev as a fraction of box size
  double class_agreement = 0.9;  // else flipped to a random class
  double drop_rate = 0.1;        // GT box dropped entirely
  // Only teacher detections above this score become ground truth (margin
  // against quantization-induced score flapping near the decode threshold).
  double gt_score_threshold = 0.45;
  std::uint64_t seed = 0x5E7EC7;
  models::DecodeConfig decode;   // shared by teacher and evaluation
};

class DetectionDataset final : public LabelledDataset {
 public:
  // `model` must outlive the dataset (the anchor set is referenced for
  // decoding model outputs during scoring).
  DetectionDataset(const models::DetectionModel& model,
                   const infer::WeightStore& weights,
                   DetectionDatasetConfig config,
                   const ThreadPool* pool = nullptr);

  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const override;
  [[nodiscard]] std::string_view metric_name() const override { return "mAP"; }

  [[nodiscard]] const metrics::ImageGroundTruth& GroundTruthFor(
      std::size_t index) const;

 private:
  [[nodiscard]] infer::Tensor MakeInput(std::uint64_t name_space,
                                        std::size_t index) const override;

  const models::DetectionModel& model_;
  DetectionDatasetConfig cfg_;
  std::vector<metrics::ImageGroundTruth> ground_truth_;
};

}  // namespace mlpm::datasets
