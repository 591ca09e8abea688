// Super-resolution data set: the one task whose ground truth needs no
// teacher — HR images are generated, LR inputs are their bilinear
// downsamples, and the score is mean PSNR against the true HR image
// (normalized to [0,1] as PSNR/50 for the TaskDataset contract).
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/labelled_dataset.h"

namespace mlpm::datasets {

struct SuperResDatasetConfig {
  std::size_t num_samples = 32;
  std::int64_t lr_size = 16;
  int upscale = 2;
  std::uint64_t seed = 0x5B;
};

class SuperResDataset final : public LabelledDataset {
 public:
  explicit SuperResDataset(SuperResDatasetConfig config);

  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const override;
  [[nodiscard]] std::string_view metric_name() const override {
    return "PSNR/50";
  }

  // Mean PSNR in dB (the un-normalized metric).
  [[nodiscard]] double MeanPsnrDb(
      std::span<const std::vector<infer::Tensor>> outputs) const;

  [[nodiscard]] infer::Tensor HighResFor(std::uint64_t name_space,
                                         std::size_t index) const;

 private:
  // The bilinear downsample of HighResFor.
  [[nodiscard]] infer::Tensor MakeInput(std::uint64_t name_space,
                                        std::size_t index) const override;

  SuperResDatasetConfig cfg_;
};

}  // namespace mlpm::datasets
