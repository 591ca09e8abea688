#include "datasets/classification_dataset.h"

#include "common/rng.h"
#include "datasets/preprocess.h"
#include "datasets/synthetic_image.h"
#include "metrics/classification.h"

namespace mlpm::datasets {

ClassificationDataset::ClassificationDataset(
    const graph::Graph& model, const infer::WeightStore& weights,
    ClassificationDatasetConfig config, const ThreadPool* pool)
    : cfg_(config) {
  Rng label_rng = Rng(cfg_.seed).Split(0xBEEF);
  labels_.reserve(cfg_.num_samples);
  LabelWithTeacher(
      model, weights, cfg_.num_samples,
      [&](const std::vector<infer::Tensor>& out) {
        if (cfg_.min_teacher_margin > 0.0 &&
            TopTwoGap(out[0].values()) < cfg_.min_teacher_margin)
          return false;
        const int teacher_label = metrics::ArgMax(out[0].values());
        if (label_rng.NextDouble() < cfg_.teacher_agreement) {
          labels_.push_back(teacher_label);
        } else {
          // A random class different from the teacher's.
          auto other = static_cast<int>(label_rng.NextBelow(
              static_cast<std::uint64_t>(cfg_.num_classes - 1)));
          if (other >= teacher_label) ++other;
          labels_.push_back(other);
        }
        return true;
      },
      pool);
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

int ClassificationDataset::LabelFor(std::size_t index) const {
  Expects(index < labels_.size(), "sample index out of range");
  return labels_[index];
}

double ClassificationDataset::ScoreOutputs(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  ExpectCovers(outputs);
  std::vector<int> preds;
  preds.reserve(outputs.size());
  for (const auto& out : outputs)
    preds.push_back(metrics::ArgMax(out[0].values()));
  return metrics::TopOneAccuracy(preds, labels_);
}

}  // namespace mlpm::datasets
