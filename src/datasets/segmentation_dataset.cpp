#include "datasets/segmentation_dataset.h"

#include "common/rng.h"
#include "datasets/preprocess.h"
#include "datasets/synthetic_image.h"

namespace mlpm::datasets {
namespace {

// Per-pixel argmax over the class dimension of [1,H,W,C] logits.
std::vector<int> ArgmaxMap(const infer::Tensor& logits) {
  const auto& s = logits.shape();
  const std::int64_t pixels = s.height() * s.width();
  const std::int64_t c = s.channels();
  std::vector<int> out(static_cast<std::size_t>(pixels));
  const float* p = logits.data();
  for (std::int64_t i = 0; i < pixels; ++i) {
    const float* px = p + i * c;
    int best = 0;
    for (std::int64_t k = 1; k < c; ++k)
      if (px[k] > px[best]) best = static_cast<int>(k);
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

}  // namespace

SegmentationDataset::SegmentationDataset(const graph::Graph& model,
                                         const infer::WeightStore& weights,
                                         SegmentationDatasetConfig config,
                                         const ThreadPool* pool)
    : cfg_(config) {
  Expects(cfg_.num_classes >= 2, "need at least two classes");
  Rng rng = Rng(cfg_.seed).Split(0x5EC5);
  const int ignore = static_cast<int>(cfg_.num_classes) - 1;
  labels_.reserve(cfg_.num_samples);
  LabelWithTeacher(
      model, weights, cfg_.num_samples,
      [&](const std::vector<infer::Tensor>& out) {
        std::vector<int> lab = ArgmaxMap(out[0]);
        if (cfg_.min_pixel_margin > 0.0) {
          // Relabel low-margin pixels to the catch-all class.
          const auto c = static_cast<std::size_t>(out[0].shape().channels());
          for (std::size_t px = 0; px < lab.size(); ++px)
            if (TopTwoGap({out[0].data() + px * c, c}) < cfg_.min_pixel_margin)
              lab[px] = ignore;
        }
        for (int& v : lab) {
          const double u = rng.NextDouble();
          if (u < cfg_.ignore_rate) {
            v = ignore;
          } else if (u < cfg_.ignore_rate + cfg_.pixel_flip_rate) {
            auto other = static_cast<int>(rng.NextBelow(
                static_cast<std::uint64_t>(cfg_.num_classes - 1)));
            if (other >= v) ++other;
            v = other;
          }
        }
        labels_.push_back(std::move(lab));
        return true;
      },
      pool);
}

infer::Tensor SegmentationDataset::MakeInput(std::uint64_t name_space,
                                             std::size_t index) const {
  SyntheticImageConfig img;
  img.height = img.width = cfg_.input_size + cfg_.input_size / 4;
  img.control_grid = 6;  // segmentation wants richer spatial structure
  infer::Tensor raw = GenerateImage(img, cfg_.seed + name_space,
                                    static_cast<std::uint64_t>(index));
  return DirectResizePreprocess(raw, cfg_.input_size);
}

const std::vector<int>& SegmentationDataset::LabelMapFor(
    std::size_t index) const {
  Expects(index < labels_.size(), "sample index out of range");
  return labels_[index];
}

double SegmentationDataset::ScoreOutputs(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  ExpectCovers(outputs);
  // The catch-all class is scored per the paper: ground truth restricted to
  // the 31 frequent classes -> ignore the last class.
  metrics::MIoUAccumulator acc(static_cast<int>(cfg_.num_classes),
                               static_cast<int>(cfg_.num_classes) - 1);
  for (std::size_t i = 0; i < outputs.size(); ++i)
    acc.Add(ArgmaxMap(outputs[i][0]), labels_[i]);
  return acc.MeanIoU();
}

}  // namespace mlpm::datasets
