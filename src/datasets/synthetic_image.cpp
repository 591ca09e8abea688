#include "datasets/synthetic_image.h"

#include <algorithm>

#include "common/rng.h"

namespace mlpm::datasets {

infer::Tensor GenerateImage(const SyntheticImageConfig& cfg,
                            std::uint64_t seed, std::uint64_t index) {
  Expects(cfg.height > 0 && cfg.width > 0 && cfg.channels > 0,
          "image dims must be positive");
  Expects(cfg.control_grid >= 2, "control grid needs at least 2 points");
  Rng rng = Rng(seed).Split(index);

  const int g = cfg.control_grid;
  std::vector<float> control(
      static_cast<std::size_t>(g) * static_cast<std::size_t>(g) *
      static_cast<std::size_t>(cfg.channels));
  for (auto& v : control) v = static_cast<float>(rng.NextDouble());

  const std::int64_t w = cfg.width, ch = cfg.channels;
  const auto row_len = static_cast<std::size_t>(w * ch);
  infer::Tensor img(graph::TensorShape({1, cfg.height, w, ch}));
  float* p = img.data();
  // Noise first: it takes every Gaussian, one per element in memory order.
  rng.FillGaussianF32(img.values(), 1.0);

  // Each control row interpolated along x once: g rows of W x C.
  std::vector<float> rows(static_cast<std::size_t>(g) * row_len);
  for (std::int64_t x = 0; x < w; ++x) {
    const float fx = static_cast<float>(x) /
                     static_cast<float>(w - 1 > 0 ? w - 1 : 1) *
                     static_cast<float>(g - 1);
    const int x0 = std::min(static_cast<int>(fx), g - 2);
    const float wx = fx - static_cast<float>(x0);
    for (int gy = 0; gy < g; ++gy) {
      const float* c0 =
          &control[(static_cast<std::size_t>(gy) * static_cast<std::size_t>(g) +
                    static_cast<std::size_t>(x0)) *
                   static_cast<std::size_t>(ch)];
      const float* c1 = c0 + ch;
      float* dst = &rows[static_cast<std::size_t>(gy) * row_len +
                         static_cast<std::size_t>(x * ch)];
      for (std::int64_t c = 0; c < ch; ++c)
        dst[c] = c0[c] * (1 - wx) + c1[c] * wx;
    }
  }

  // Each image row blends two of those rows, then adds its noise.
  for (std::int64_t y = 0; y < cfg.height; ++y) {
    const float fy = static_cast<float>(y) /
                     static_cast<float>(cfg.height - 1 > 0 ? cfg.height - 1
                                                           : 1) *
                     static_cast<float>(g - 1);
    const int y0 = std::min(static_cast<int>(fy), g - 2);
    const float wy = fy - static_cast<float>(y0);
    const float* top = &rows[static_cast<std::size_t>(y0) * row_len];
    const float* bot = top + row_len;
    float* out = p + static_cast<std::size_t>(y) * row_len;
    for (std::size_t i = 0; i < row_len; ++i) {
      float v = top[i] * (1 - wy) + bot[i] * wy;
      v += cfg.noise_level * out[i];
      out[i] = std::clamp(v, 0.0f, 1.0f);
    }
  }
  return img;
}

}  // namespace mlpm::datasets
