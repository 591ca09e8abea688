// Synthetic speech data set for the RNN-T encoder extension (paper App. E).
//
// Samples are smooth synthetic feature sequences (a stand-in for log-mel
// spectrograms); reference transcripts are the FP32 teacher's own greedy
// CTC decode with seeded token drops/substitutions.  The score is
// 1 - token error rate, clamped to [0, 1].
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/labelled_dataset.h"
#include "models/rnnt.h"

namespace mlpm::datasets {

struct SpeechDatasetConfig {
  std::size_t num_samples = 48;
  double token_drop_rate = 0.04;
  double token_substitution_rate = 0.04;
  std::uint64_t seed = 0x5BEECB;
};

class SpeechDataset final : public LabelledDataset {
 public:
  SpeechDataset(const graph::Graph& model, const infer::WeightStore& weights,
                models::RnntConfig model_cfg, SpeechDatasetConfig config,
                const ThreadPool* pool = nullptr);

  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const override;
  [[nodiscard]] std::string_view metric_name() const override {
    return "1-WER";
  }

  [[nodiscard]] const std::vector<int>& ReferenceFor(std::size_t index) const;

 private:
  [[nodiscard]] infer::Tensor MakeInput(std::uint64_t name_space,
                                        std::size_t index) const override;

  models::RnntConfig model_cfg_;
  SpeechDatasetConfig cfg_;
  std::vector<std::vector<int>> refs_;
};

}  // namespace mlpm::datasets
