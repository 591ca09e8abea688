#include "datasets/classification_dataset.h"

#include "common/rng.h"
#include "datasets/preprocess.h"
#include "datasets/synthetic_image.h"
#include "metrics/classification.h"

namespace mlpm::datasets {
namespace {
// Seed namespaces so validation / calibration images never collide.
constexpr std::uint64_t kValidationSpace = 0;
constexpr std::uint64_t kCalibrationSpace = 1'000'000;
}  // namespace

ClassificationDataset::ClassificationDataset(
    const graph::Graph& model, const infer::WeightStore& weights,
    ClassificationDatasetConfig config)
    : cfg_(config) {
  Expects(cfg_.num_samples > 0, "dataset must be non-empty");
  const infer::Executor teacher(model, weights, infer::NumericsMode::kFp32);
  infer::ExecutionContext teacher_ctx(teacher);
  Rng label_rng = Rng(cfg_.seed).Split(0xBEEF);

  labels_.reserve(cfg_.num_samples);
  image_indices_.reserve(cfg_.num_samples);
  std::size_t gen = 0;
  // Cap candidate generation so a too-strict margin cannot loop forever.
  const std::size_t max_candidates = cfg_.num_samples * 64;
  while (labels_.size() < cfg_.num_samples) {
    Expects(gen < max_candidates,
            "min_teacher_margin too strict: candidate pool exhausted");
    const std::size_t i = gen++;
    const std::vector<infer::Tensor> in = {MakeInput(kValidationSpace, i)};
    const std::vector<infer::Tensor> out = teacher.Run(in, teacher_ctx);
    const int teacher_label = metrics::ArgMax(out[0].values());
    if (cfg_.min_teacher_margin > 0.0) {
      // Top1-top2 logit gap.
      float top1 = -1e30f, top2 = -1e30f;
      for (float v : out[0].values()) {
        if (v > top1) {
          top2 = top1;
          top1 = v;
        } else if (v > top2) {
          top2 = v;
        }
      }
      if (top1 - top2 < cfg_.min_teacher_margin) continue;
    }
    image_indices_.push_back(i);
    if (label_rng.NextDouble() < cfg_.teacher_agreement) {
      labels_.push_back(teacher_label);
    } else {
      // A random class different from the teacher's.
      auto other = static_cast<int>(
          label_rng.NextBelow(static_cast<std::uint64_t>(cfg_.num_classes - 1)));
      if (other >= teacher_label) ++other;
      labels_.push_back(other);
    }
  }
}

infer::Tensor ClassificationDataset::MakeInput(std::uint64_t name_space,
                                               std::size_t index) const {
  // Raw image slightly larger than the model input, then the standard
  // resize/crop/normalize pipeline.
  SyntheticImageConfig img;
  img.height = img.width = cfg_.input_size + cfg_.input_size / 4;
  infer::Tensor raw = GenerateImage(img, cfg_.seed + name_space,
                                    static_cast<std::uint64_t>(index));
  return ClassificationPreprocess(raw, cfg_.input_size);
}

std::vector<infer::Tensor> ClassificationDataset::InputsFor(
    std::size_t index) const {
  Expects(index < labels_.size(), "sample index out of range");
  std::vector<infer::Tensor> v;
  v.push_back(MakeInput(kValidationSpace, image_indices_[index]));
  return v;
}

std::vector<infer::Tensor> ClassificationDataset::CalibrationInputsFor(
    std::size_t index) const {
  std::vector<infer::Tensor> v;
  v.push_back(MakeInput(kCalibrationSpace, index));
  return v;
}

int ClassificationDataset::LabelFor(std::size_t index) const {
  Expects(index < labels_.size(), "sample index out of range");
  return labels_[index];
}

double ClassificationDataset::ScoreOutputs(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  Expects(outputs.size() == labels_.size(),
          "output count does not cover the dataset");
  std::vector<int> preds;
  preds.reserve(outputs.size());
  for (const auto& out : outputs) {
    Expects(!out.empty(), "missing model output");
    preds.push_back(metrics::ArgMax(out[0].values()));
  }
  return metrics::TopOneAccuracy(preds, labels_);
}

}  // namespace mlpm::datasets
