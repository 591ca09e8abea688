#include "datasets/detection_dataset.h"

#include <algorithm>

#include "common/rng.h"
#include "datasets/preprocess.h"
#include "datasets/synthetic_image.h"

namespace mlpm::datasets {

DetectionDataset::DetectionDataset(const models::DetectionModel& model,
                                   const infer::WeightStore& weights,
                                   DetectionDatasetConfig config,
                                   const ThreadPool* pool)
    : model_(model), cfg_(config) {
  Rng rng = Rng(cfg_.seed).Split(0xFACE);
  ground_truth_.reserve(cfg_.num_samples);
  LabelWithTeacher(
      model_.graph, weights, cfg_.num_samples,
      [&](const std::vector<infer::Tensor>& out) {
        const std::vector<models::Detection> dets = models::DecodeDetections(
            out[0].values(), out[1].values(), model_.anchors,
            model_.num_classes, cfg_.decode);
        metrics::ImageGroundTruth gt;
        for (const models::Detection& d : dets) {
          if (d.score < cfg_.gt_score_threshold) continue;
          if (rng.NextDouble() < cfg_.drop_rate) continue;
          models::BBox box = d.box;
          const float h = std::max(box.ymax - box.ymin, 0.02f);
          const float w = std::max(box.xmax - box.xmin, 0.02f);
          const auto jitter = [&](float extent) {
            return static_cast<float>(rng.NextGaussian() * cfg_.box_jitter) *
                   extent;
          };
          box.ymin = std::clamp(box.ymin + jitter(h), 0.0f, 1.0f);
          box.ymax = std::clamp(box.ymax + jitter(h), box.ymin + 0.01f, 1.0f);
          box.xmin = std::clamp(box.xmin + jitter(w), 0.0f, 1.0f);
          box.xmax = std::clamp(box.xmax + jitter(w), box.xmin + 0.01f, 1.0f);

          int cls = d.class_id;
          if (rng.NextDouble() >= cfg_.class_agreement) {
            // Random *other* foreground class.
            auto other = static_cast<int>(rng.NextBelow(
                static_cast<std::uint64_t>(model_.num_classes - 2)));
            if (other + 1 >= cls) ++other;
            cls = other + 1;
          }
          gt.push_back(metrics::GroundTruthBox{box, cls});
        }
        ground_truth_.push_back(std::move(gt));
        return true;
      },
      pool);
}

infer::Tensor DetectionDataset::MakeInput(std::uint64_t name_space,
                                          std::size_t index) const {
  SyntheticImageConfig img;
  img.height = img.width = model_.input_size + model_.input_size / 4;
  img.control_grid = 5;  // a little more spatial structure for detection
  infer::Tensor raw = GenerateImage(img, cfg_.seed + name_space,
                                    static_cast<std::uint64_t>(index));
  return DirectResizePreprocess(raw, model_.input_size);
}

const metrics::ImageGroundTruth& DetectionDataset::GroundTruthFor(
    std::size_t index) const {
  Expects(index < ground_truth_.size(), "sample index out of range");
  return ground_truth_[index];
}

double DetectionDataset::ScoreOutputs(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  ExpectCovers(outputs);
  std::vector<metrics::ImageDetections> dets;
  dets.reserve(outputs.size());
  for (const auto& out : outputs) {
    Expects(out.size() >= 2, "detection model must emit boxes and classes");
    dets.push_back(models::DecodeDetections(out[0].values(), out[1].values(),
                                            model_.anchors,
                                            model_.num_classes, cfg_.decode));
  }
  return metrics::CocoMap(dets, ground_truth_);
}

}  // namespace mlpm::datasets
