#include "datasets/detection_dataset.h"

#include <algorithm>

#include "common/rng.h"
#include "datasets/preprocess.h"
#include "datasets/synthetic_image.h"
#include "infer/executor.h"

namespace mlpm::datasets {
namespace {
constexpr std::uint64_t kValidationSpace = 0;
constexpr std::uint64_t kCalibrationSpace = 1'000'000;
}  // namespace

DetectionDataset::DetectionDataset(const models::DetectionModel& model,
                                   const infer::WeightStore& weights,
                                   DetectionDatasetConfig config)
    : model_(model), cfg_(config) {
  Expects(cfg_.num_samples > 0, "dataset must be non-empty");
  const infer::Executor teacher(model_.graph, weights,
                                infer::NumericsMode::kFp32);
  infer::ExecutionContext teacher_ctx(teacher);
  Rng rng = Rng(cfg_.seed).Split(0xFACE);

  ground_truth_.reserve(cfg_.num_samples);
  for (std::size_t i = 0; i < cfg_.num_samples; ++i) {
    const std::vector<infer::Tensor> in = {MakeInput(kValidationSpace, i)};
    const std::vector<infer::Tensor> out = teacher.Run(in, teacher_ctx);
    const std::vector<models::Detection> dets = models::DecodeDetections(
        out[0].values(), out[1].values(), model_.anchors, model_.num_classes,
        cfg_.decode);

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
  }
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

std::vector<infer::Tensor> DetectionDataset::InputsFor(
    std::size_t index) const {
  Expects(index < ground_truth_.size(), "sample index out of range");
  std::vector<infer::Tensor> v;
  v.push_back(MakeInput(kValidationSpace, index));
  return v;
}

std::vector<infer::Tensor> DetectionDataset::CalibrationInputsFor(
    std::size_t index) const {
  std::vector<infer::Tensor> v;
  v.push_back(MakeInput(kCalibrationSpace, index));
  return v;
}

const metrics::ImageGroundTruth& DetectionDataset::GroundTruthFor(
    std::size_t index) const {
  Expects(index < ground_truth_.size(), "sample index out of range");
  return ground_truth_[index];
}

double DetectionDataset::ScoreOutputs(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  Expects(outputs.size() == ground_truth_.size(),
          "output count does not cover the dataset");
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
