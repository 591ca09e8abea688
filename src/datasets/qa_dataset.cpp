#include "datasets/qa_dataset.h"

#include <algorithm>

#include "common/rng.h"

namespace mlpm::datasets {
namespace {
// Score gap between the chosen span and the best span that does not overlap
// it (a measure of how decisively the model answers).
double SpanMargin(const infer::Tensor& logits, const metrics::TokenSpan& best) {
  const std::int64_t seq = logits.shape().dim(0);
  const auto start = [&](std::int64_t s) { return logits.data()[s * 2 + 0]; };
  const auto end = [&](std::int64_t s) { return logits.data()[s * 2 + 1]; };
  const double best_score = start(best.start) + end(best.end);
  double alt = -1e30;
  for (std::int64_t s = 0; s < seq; ++s) {
    for (std::int64_t e = s; e < std::min(seq, s + 8); ++e) {
      const bool overlaps = !(e < best.start || s > best.end);
      if (overlaps) continue;
      alt = std::max(alt, static_cast<double>(start(s) + end(e)));
    }
  }
  return best_score - alt;
}

}  // namespace

QaDataset::QaDataset(const graph::Graph& model,
                     const infer::WeightStore& weights,
                     models::MobileBertConfig model_cfg,
                     QaDatasetConfig config, const ThreadPool* pool)
    : model_cfg_(model_cfg), cfg_(config) {
  Rng rng = Rng(cfg_.seed).Split(0xF1F1);
  truths_.reserve(cfg_.num_samples);
  LabelWithTeacher(
      model, weights, cfg_.num_samples,
      [&](const std::vector<infer::Tensor>& out) {
        metrics::TokenSpan span = SpanFromLogits(out[0]);
        if (cfg_.min_teacher_margin > 0.0 &&
            SpanMargin(out[0], span) < cfg_.min_teacher_margin)
          return false;
        if (rng.NextDouble() >= cfg_.teacher_agreement) {
          // Shift the truth span by a few tokens; partial overlap remains.
          const int shift =
              1 + static_cast<int>(rng.NextBelow(
                      static_cast<std::uint64_t>(cfg_.max_shift)));
          const int sign = rng.NextDouble() < 0.5 ? -1 : 1;
          const int seq = static_cast<int>(model_cfg_.seq_len);
          span.start = std::clamp(span.start + sign * shift, 0, seq - 1);
          span.end = std::clamp(span.end + sign * shift, span.start, seq - 1);
        }
        truths_.push_back(span);
        return true;
      },
      pool);
}

infer::Tensor QaDataset::MakeInput(std::uint64_t name_space,
                                   std::size_t index) const {
  Rng rng = Rng(cfg_.seed + name_space).Split(index);
  infer::Tensor t(graph::TensorShape({model_cfg_.seq_len}));
  for (auto& v : t.values())
    v = static_cast<float>(rng.NextBelow(
        static_cast<std::uint64_t>(model_cfg_.vocab_size)));
  return t;
}

metrics::TokenSpan QaDataset::TruthFor(std::size_t index) const {
  Expects(index < truths_.size(), "sample index out of range");
  return truths_[index];
}

metrics::TokenSpan QaDataset::SpanFromLogits(
    const infer::Tensor& logits) const {
  // Logits are [seq, 2]: column 0 start, column 1 end.
  const std::int64_t seq = logits.shape().dim(0);
  std::vector<float> start(static_cast<std::size_t>(seq));
  std::vector<float> end(static_cast<std::size_t>(seq));
  for (std::int64_t s = 0; s < seq; ++s) {
    start[static_cast<std::size_t>(s)] = logits.data()[s * 2 + 0];
    end[static_cast<std::size_t>(s)] = logits.data()[s * 2 + 1];
  }
  return metrics::BestSpan(start, end, cfg_.max_answer_length);
}

double QaDataset::ScoreOutputs(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  ExpectCovers(outputs);
  std::vector<metrics::TokenSpan> preds;
  preds.reserve(outputs.size());
  for (const auto& out : outputs) preds.push_back(SpanFromLogits(out[0]));
  return metrics::MeanSpanF1(preds, truths_);
}

}  // namespace mlpm::datasets
