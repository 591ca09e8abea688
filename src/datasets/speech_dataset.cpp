#include "datasets/speech_dataset.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "metrics/wer.h"

namespace mlpm::datasets {

SpeechDataset::SpeechDataset(const graph::Graph& model,
                             const infer::WeightStore& weights,
                             models::RnntConfig model_cfg,
                             SpeechDatasetConfig config,
                             const ThreadPool* pool)
    : model_cfg_(model_cfg), cfg_(config) {
  Rng rng = Rng(cfg_.seed).Split(0x3E);
  refs_.reserve(cfg_.num_samples);
  LabelWithTeacher(
      model, weights, cfg_.num_samples,
      [&](const std::vector<infer::Tensor>& out) {
        // Corrupt the teacher's transcript to make FP32 imperfect.
        std::vector<int> ref;
        for (int tok : models::GreedyCtcDecode(out[0])) {
          const double u = rng.NextDouble();
          if (u < cfg_.token_drop_rate) continue;
          if (u < cfg_.token_drop_rate + cfg_.token_substitution_rate) {
            auto other = static_cast<int>(rng.NextBelow(
                static_cast<std::uint64_t>(model_cfg_.vocab_size - 2)));
            if (other + 1 >= tok) ++other;
            ref.push_back(other + 1);  // never the blank
          } else {
            ref.push_back(tok);
          }
        }
        refs_.push_back(std::move(ref));
        return true;
      },
      pool);
}

infer::Tensor SpeechDataset::MakeInput(std::uint64_t name_space,
                                       std::size_t index) const {
  // Smooth per-feature trajectories: control points every 8 frames,
  // linearly interpolated, plus mild noise — spectrogram-like structure.
  Rng rng = Rng(cfg_.seed + name_space).Split(index);
  const std::int64_t frames = model_cfg_.frames;
  const std::int64_t dim = model_cfg_.feature_dim;
  const std::int64_t ctrl_count = std::max<std::int64_t>(2, frames / 8 + 1);

  std::vector<float> ctrl(
      static_cast<std::size_t>(ctrl_count * dim));
  for (auto& v : ctrl) v = static_cast<float>(rng.NextUniform(-1.0, 1.0));

  infer::Tensor t(graph::TensorShape({frames, dim}));
  rng.FillGaussianF32(t.values(), 1.0);  // the noise, in element order
  for (std::int64_t f = 0; f < frames; ++f) {
    const double pos = static_cast<double>(f) /
                       static_cast<double>(frames - 1) *
                       static_cast<double>(ctrl_count - 1);
    const auto lo = static_cast<std::int64_t>(pos);
    const auto hi = std::min(lo + 1, ctrl_count - 1);
    const float w = static_cast<float>(pos - static_cast<double>(lo));
    for (std::int64_t k = 0; k < dim; ++k) {
      const float a = ctrl[static_cast<std::size_t>(lo * dim + k)];
      const float b = ctrl[static_cast<std::size_t>(hi * dim + k)];
      float& v = t.data()[f * dim + k];
      v = a * (1 - w) + b * w + 0.05f * v;
    }
  }
  return t;
}

const std::vector<int>& SpeechDataset::ReferenceFor(std::size_t index) const {
  Expects(index < refs_.size(), "sample index out of range");
  return refs_[index];
}

double SpeechDataset::ScoreOutputs(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  ExpectCovers(outputs);
  std::vector<std::vector<int>> preds;
  preds.reserve(outputs.size());
  for (const auto& out : outputs)
    preds.push_back(models::GreedyCtcDecode(out[0]));
  return std::max(0.0, 1.0 - metrics::WordErrorRate(preds, refs_));
}

}  // namespace mlpm::datasets
