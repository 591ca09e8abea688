#include "datasets/preprocess.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mlpm::datasets {

infer::Tensor ResizeBilinear(const infer::Tensor& image, std::int64_t out_h,
                             std::int64_t out_w) {
  const auto& s = image.shape();
  Expects(s.rank() == 4 && s.batch() == 1, "expected NHWC batch-1 image");
  const std::int64_t ih = s.height(), iw = s.width(), c = s.channels();
  infer::Tensor out(graph::TensorShape({1, out_h, out_w, c}));
  const double sh = static_cast<double>(ih) / static_cast<double>(out_h);
  const double sw = static_cast<double>(iw) / static_cast<double>(out_w);
  const float* ip = image.data();
  float* op = out.data();

  // Column taps, the same for every row.
  struct XTap {
    std::int64_t x0, x1;
    float wx;
  };
  std::vector<XTap> taps(static_cast<std::size_t>(out_w));
  for (std::int64_t x = 0; x < out_w; ++x) {
    const double fx =
        std::max(0.0, (static_cast<double>(x) + 0.5) * sw - 0.5);
    const auto x0 = std::min<std::int64_t>(static_cast<std::int64_t>(fx),
                                           iw - 1);
    const auto x1 = std::min<std::int64_t>(x0 + 1, iw - 1);
    taps[static_cast<std::size_t>(x)] = {
        x0, x1, static_cast<float>(fx - static_cast<double>(x0))};
  }

  // Each input row an output row reads is interpolated along x once, into
  // out_w x c floats; an output row is then a blend of two of them.  Rows
  // are read in ascending order, so two buffers hold every row in use.
  const auto row_len = static_cast<std::size_t>(out_w * c);
  std::vector<float> top(row_len), bot(row_len);
  std::int64_t top_row = -1, bot_row = -1;
  const auto interpolate = [&](std::int64_t yy, std::vector<float>& dst) {
    const float* src = ip + yy * iw * c;
    float* d = dst.data();
    for (const XTap& t : taps) {
      const float* a = src + t.x0 * c;
      const float* b = src + t.x1 * c;
      for (std::int64_t ch = 0; ch < c; ++ch)
        *d++ = a[ch] * (1 - t.wx) + b[ch] * t.wx;
    }
  };

  for (std::int64_t y = 0; y < out_h; ++y) {
    const double fy =
        std::max(0.0, (static_cast<double>(y) + 0.5) * sh - 0.5);
    const auto y0 = std::min<std::int64_t>(static_cast<std::int64_t>(fy),
                                           ih - 1);
    const auto y1 = std::min<std::int64_t>(y0 + 1, ih - 1);
    const float wy = static_cast<float>(fy - static_cast<double>(y0));
    if (y0 != top_row) {
      if (y0 == bot_row) {
        std::swap(top, bot);
        std::swap(top_row, bot_row);
      } else {
        interpolate(y0, top);
        top_row = y0;
      }
    }
    if (y1 != bot_row) {
      interpolate(y1, bot);
      bot_row = y1;
    }
    float* dst = op + static_cast<std::size_t>(y) * row_len;
    for (std::size_t i = 0; i < row_len; ++i)
      dst[i] = top[i] * (1 - wy) + bot[i] * wy;
  }
  return out;
}

infer::Tensor CenterCrop(const infer::Tensor& image, std::int64_t size) {
  const auto& s = image.shape();
  Expects(s.rank() == 4 && s.batch() == 1, "expected NHWC batch-1 image");
  Expects(s.height() >= size && s.width() >= size,
          "image smaller than crop size");
  const std::int64_t ih = s.height(), iw = s.width(), c = s.channels();
  const std::int64_t oy = (ih - size) / 2;
  const std::int64_t ox = (iw - size) / 2;
  infer::Tensor out(graph::TensorShape({1, size, size, c}));
  const float* ip = image.data();
  float* op = out.data();
  for (std::int64_t y = 0; y < size; ++y)
    for (std::int64_t x = 0; x < size; ++x)
      for (std::int64_t ch = 0; ch < c; ++ch)
        op[(y * size + x) * c + ch] =
            ip[((y + oy) * iw + (x + ox)) * c + ch];
  return out;
}

void Normalize(infer::Tensor& image, float mean, float stddev) {
  Expects(stddev > 0.0f, "stddev must be positive");
  const float inv = 1.0f / stddev;
  for (auto& v : image.values()) v = (v - mean) * inv;
}

infer::Tensor ClassificationPreprocess(const infer::Tensor& raw_image,
                                       std::int64_t size) {
  // 256/224 resize-then-crop ratio used by the ImageNet pipeline.
  const auto resize_to = static_cast<std::int64_t>(
      std::llround(static_cast<double>(size) * 256.0 / 224.0));
  infer::Tensor t = ResizeBilinear(raw_image, resize_to, resize_to);
  t = CenterCrop(t, size);
  Normalize(t, 0.5f, 0.5f);  // [0,1] -> [-1,1]
  return t;
}

infer::Tensor DirectResizePreprocess(const infer::Tensor& raw_image,
                                     std::int64_t size) {
  infer::Tensor t = ResizeBilinear(raw_image, size, size);
  Normalize(t, 0.5f, 0.5f);
  return t;
}

}  // namespace mlpm::datasets
