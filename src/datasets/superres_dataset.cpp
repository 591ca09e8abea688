#include "datasets/superres_dataset.h"

#include <algorithm>

#include "datasets/preprocess.h"
#include "datasets/synthetic_image.h"
#include "metrics/psnr.h"

namespace mlpm::datasets {

SuperResDataset::SuperResDataset(SuperResDatasetConfig config)
    : cfg_(config) {
  UseFirst(cfg_.num_samples);
  Expects(cfg_.upscale == 2, "only 2x is implemented");
}

infer::Tensor SuperResDataset::HighResFor(std::uint64_t name_space,
                                          std::size_t index) const {
  SyntheticImageConfig img;
  img.height = img.width = cfg_.lr_size * cfg_.upscale;
  img.control_grid = 6;
  img.noise_level = 0.02f;
  return GenerateImage(img, cfg_.seed + name_space,
                       static_cast<std::uint64_t>(index));
}

infer::Tensor SuperResDataset::MakeInput(std::uint64_t name_space,
                                         std::size_t index) const {
  return ResizeBilinear(HighResFor(name_space, index), cfg_.lr_size,
                        cfg_.lr_size);
}

double SuperResDataset::MeanPsnrDb(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  ExpectCovers(outputs);
  double sum = 0.0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const double psnr =
        metrics::Psnr(outputs[i][0], HighResFor(kValidationSpace, i));
    sum += std::min(psnr, 60.0);  // cap infinities for the mean
  }
  return sum / static_cast<double>(outputs.size());
}

double SuperResDataset::ScoreOutputs(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  return std::clamp(MeanPsnrDb(outputs) / 50.0, 0.0, 1.0);
}

}  // namespace mlpm::datasets
