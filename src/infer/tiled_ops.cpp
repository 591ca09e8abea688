#include "infer/tiled_ops.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "graph/bounds.h"
#include "infer/op_math.h"

namespace mlpm::infer {
namespace {

using graph::Activation;

}  // namespace

RowBand FullBand(const Tensor& t, std::int64_t image) {
  const graph::TensorShape& s = t.shape();
  Expects(s.rank() == 4 && image >= 0 && image < s.batch(),
          "row bands require a rank-4 tensor and an image in its batch");
  const std::int64_t image_elems = s.height() * s.width() * s.channels();
  return RowBand{t.data() + image * image_elems, 0, s.height(), s.height(),
                 s.width(), s.channels()};
}

void RunConv2dRows(const graph::Conv2dAttrs& a, const RowBand& in,
                   const Tensor& w, const Tensor& bias,
                   const MutableRowBand& out,
                   const kernels::KernelTable& kt) {
  const std::int64_t IH = in.height, IW = in.width, IC = in.channels;
  const std::int64_t OW = out.width, OC = out.channels;
  const std::int64_t ph = graph::SamePadBegin(IH, out.height, a.kernel_h,
                                              a.stride, a.dilation, a.padding);
  const std::int64_t pw = graph::SamePadBegin(IW, out.width, a.kernel_w,
                                              a.stride, a.dilation, a.padding);
  const float* __restrict wp = w.data();  // [OC, KH, KW, IC]
  const float* __restrict bp = bias.data();
  const float* __restrict ip = in.data;
  float* __restrict op = out.data;

  // Taps in (kh, kw) order; weight offsets are the same for every pixel.
  const std::int64_t ntaps = static_cast<std::int64_t>(a.kernel_h) *
                             a.kernel_w;
  const std::int64_t wstride = ntaps * IC;
  const std::int64_t oc4 = OC - OC % kernels::kF32RowBlock;
  // `woff` holds each tap's weight offset, `taps` one pixel pair's input
  // pointers per tap: [0, ntaps) for the first, [ntaps, 2 * ntaps) for the
  // second.  Both are per-thread scratch that only grows, so a conv node
  // allocates nothing once its thread has run a kernel at least as large.
  thread_local std::vector<std::int64_t> woff;
  thread_local std::vector<const float*> taps;
  woff.resize(static_cast<std::size_t>(ntaps));
  taps.resize(static_cast<std::size_t>(2 * ntaps));
  for (std::int64_t t = 0; t < ntaps; ++t)
    woff[static_cast<std::size_t>(t)] = t * IC;

  // Gathers the taps of the band's next pixel, row-major from global row
  // out.origin.  Taps are null outside the *logical* bounds [0, IH) x
  // [0, IW); surviving taps are guaranteed in-slab by bounds inference.
  std::int64_t oh = out.origin, ow = 0;
  const auto gather_next = [&](const float** x) {
    for (int kh = 0; kh < a.kernel_h; ++kh) {
      const std::int64_t ih =
          oh * a.stride - ph + static_cast<std::int64_t>(kh) * a.dilation;
      for (int kw = 0; kw < a.kernel_w; ++kw) {
        const std::int64_t iw =
            ow * a.stride - pw + static_cast<std::int64_t>(kw) * a.dilation;
        *x++ = ih < 0 || ih >= IH || iw < 0 || iw >= IW
                   ? nullptr
                   : ip + ((ih - in.origin) * IW + iw) * IC;
      }
    }
    if (++ow == OW) {
      ow = 0;
      ++oh;
    }
  };
  // The block entry leaves raw sums in [0, oc4); the OC % 4 remainder
  // channels are summed here, and then the activation runs over the pair's
  // two contiguous pixels at once.
  const auto remainder = [&](const float* const* x, float* out_px) {
    for (std::int64_t oc = oc4; oc < OC; ++oc) {
      float acc = bp[oc];
      for (std::int64_t t = 0; t < ntaps; ++t) {
        const float* in_px = x[t];
        if (in_px == nullptr) continue;
        const float* w_px = wp + oc * wstride + t * IC;
        for (std::int64_t ic = 0; ic < IC; ++ic) acc += in_px[ic] * w_px[ic];
      }
      out_px[oc] = acc;
    }
  };

  // The band's pixels in pairs, row-major; a pair may span two rows.
  const std::int64_t pixels = out.rows * OW;
  const float** x0 = taps.data();
  const float** x1 = x0 + ntaps;
  for (std::int64_t p = 0; p < pixels; p += 2) {
    const bool pair = p + 1 < pixels;
    float* px0 = op + p * OC;
    float* px1 = pair ? px0 + OC : nullptr;
    gather_next(x0);
    if (pair) gather_next(x1);
    kt.conv_block_f32(x0, pair ? x1 : nullptr, woff.data(), ntaps, wp,
                      wstride, IC, oc4, bp, px0, px1);
    remainder(x0, px0);
    if (pair) remainder(x1, px1);
    ApplyActivationInPlace(px0, (pair ? 2 : 1) * OC, a.activation, kt);
  }
}

void RunDepthwiseConv2dRows(const graph::DepthwiseConv2dAttrs& a,
                            const RowBand& in, const Tensor& w,
                            const Tensor& bias, const MutableRowBand& out,
                            const kernels::KernelTable& kt) {
  const std::int64_t IH = in.height, IW = in.width, C = in.channels;
  const std::int64_t OW = out.width;
  const std::int64_t ph = graph::SamePadBegin(IH, out.height, a.kernel_h,
                                              a.stride, a.dilation, a.padding);
  const std::int64_t pw = graph::SamePadBegin(IW, out.width, a.kernel_w,
                                              a.stride, a.dilation, a.padding);
  const float* __restrict wp = w.data();  // [KH, KW, C]
  const float* __restrict bp = bias.data();
  const float* __restrict ip = in.data;
  float* __restrict op = out.data;

  // Each pixel accumulates in its own output slot, which never aliases the
  // input.
  for (std::int64_t oh = out.origin; oh < out.origin + out.rows; ++oh) {
    for (std::int64_t ow = 0; ow < OW; ++ow) {
      float* out_px = op + ((oh - out.origin) * OW + ow) * C;
      std::copy_n(bp, C, out_px);
      for (int kh = 0; kh < a.kernel_h; ++kh) {
        const std::int64_t ih =
            oh * a.stride - ph + static_cast<std::int64_t>(kh) * a.dilation;
        if (ih < 0 || ih >= IH) continue;
        for (int kw = 0; kw < a.kernel_w; ++kw) {
          const std::int64_t iw =
              ow * a.stride - pw + static_cast<std::int64_t>(kw) * a.dilation;
          if (iw < 0 || iw >= IW) continue;
          kt.dw_madd_f32(
              ip + ((ih - in.origin) * IW + iw) * C,
              wp + (static_cast<std::int64_t>(kh) * a.kernel_w + kw) * C,
              out_px, C);
        }
      }
      ApplyActivationInPlace(out_px, C, a.activation, kt);
    }
  }
}

// Band rows are contiguous, so both elementwise runners treat the band as
// one flat range of elements.
void RunAddRows(const RowBand& x, const RowBand& y, const MutableRowBand& out) {
  const std::int64_t row_elems = out.width * out.channels;
  const std::int64_t n = out.rows * row_elems;
  const float* xp = x.data + (out.origin - x.origin) * row_elems;
  const float* yp = y.data + (out.origin - y.origin) * row_elems;
  for (std::int64_t i = 0; i < n; ++i) out.data[i] = xp[i] + yp[i];
}

void RunActivationRows(Activation act, const RowBand& in,
                       const MutableRowBand& out,
                       const kernels::KernelTable& kt) {
  const std::int64_t row_elems = out.width * out.channels;
  const std::int64_t n = out.rows * row_elems;
  const float* xp = in.data + (out.origin - in.origin) * row_elems;
  if (out.data != xp) std::copy(xp, xp + n, out.data);
  ApplyActivationInPlace(out.data, n, act, kt);
}

void RunResizeBilinearRows(const RowBand& in, const MutableRowBand& out) {
  const std::int64_t IH = in.height, IW = in.width, C = in.channels;
  const std::int64_t OH = out.height, OW = out.width;
  const double sh = static_cast<double>(IH) / static_cast<double>(OH);
  const double sw = static_cast<double>(IW) / static_cast<double>(OW);
  const float* ip = in.data;
  float* op = out.data;
  for (std::int64_t oh = out.origin; oh < out.origin + out.rows; ++oh) {
    // Half-pixel centers, clamped to the valid range; taps land inside the
    // slab because bounds inference materialized [y0(first), y1(last)].
    const double fy =
        std::max(0.0, (static_cast<double>(oh) + 0.5) * sh - 0.5);
    const auto y0 =
        std::min<std::int64_t>(static_cast<std::int64_t>(fy), IH - 1);
    const auto y1 = std::min<std::int64_t>(y0 + 1, IH - 1);
    const float wy = static_cast<float>(fy - static_cast<double>(y0));
    for (std::int64_t ow = 0; ow < OW; ++ow) {
      const double fx =
          std::max(0.0, (static_cast<double>(ow) + 0.5) * sw - 0.5);
      const auto x0 =
          std::min<std::int64_t>(static_cast<std::int64_t>(fx), IW - 1);
      const auto x1 = std::min<std::int64_t>(x0 + 1, IW - 1);
      const float wx = static_cast<float>(fx - static_cast<double>(x0));
      for (std::int64_t c = 0; c < C; ++c) {
        const auto px = [&](std::int64_t y, std::int64_t x) {
          return ip[((y - in.origin) * IW + x) * C + c];
        };
        const float top = px(y0, x0) * (1 - wx) + px(y0, x1) * wx;
        const float bot = px(y1, x0) * (1 - wx) + px(y1, x1) * wx;
        op[((oh - out.origin) * OW + ow) * C + c] =
            top * (1 - wy) + bot * wy;
      }
    }
  }
}

}  // namespace mlpm::infer
