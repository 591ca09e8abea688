// Row-band kernels: the executor's one implementation of every spatial op.
//
// Each runner computes a *band of output rows* of one NHWC image, reading
// inputs through RowBand views that expose global coordinates over a
// partially-materialized buffer (a tile slab holding rows
// [origin, origin + rows) of the logical tensor, or a fully-materialized
// image with origin 0).  The executor calls them two ways: a fused tile
// segment walks a chain band by band through one slab, and every other
// node runs as one full-height band per batch image.
//
// Bit-identity contract (DESIGN.md §15): an output element's value depends
// only on its global coordinates — bias-first accumulators, the same
// (kh, kw) tap order, the same per-tap arithmetic (conv_block_f32's, which
// is one dot4 per tap whatever pixel it is paired with, and dw_madd's)
// keyed on the same absolute output-channel index, taps skipped outside the
// *logical* tensor bounds (not the slab bounds).  So any partition of the
// rows into bands gives bitwise the same output, for every kernel table,
// including vectorized ones.
#pragma once

#include <cstdint>

#include "graph/ops.h"
#include "infer/kernels/registry.h"
#include "infer/tensor.h"

namespace mlpm::infer {

// Rows [origin, origin + rows) of a logical [height, width, channels]
// image; data points at row `origin`.  A fully-materialized image is the
// band {data, 0, height, height, width, channels}.
struct RowBand {
  const float* data = nullptr;
  std::int64_t origin = 0;
  std::int64_t rows = 0;
  std::int64_t height = 0;  // full logical H, the padding/clamp bound
  std::int64_t width = 0;
  std::int64_t channels = 0;
};

struct MutableRowBand {
  float* data = nullptr;
  std::int64_t origin = 0;
  std::int64_t rows = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t channels = 0;
};

// The whole of batch image `image` of a rank-4 NHWC tensor.
[[nodiscard]] RowBand FullBand(const Tensor& t, std::int64_t image = 0);

// Conv2d over output rows [out.origin, out.origin + out.rows).  `w` is the
// executor's prepared [OC, KH, KW, IC] weight, `bias` its prepared bias.
void RunConv2dRows(const graph::Conv2dAttrs& a, const RowBand& in,
                   const Tensor& w, const Tensor& bias,
                   const MutableRowBand& out, const kernels::KernelTable& kt);

// Depthwise conv; `w` is the executor's prepacked [KH, KW, C] weight.
void RunDepthwiseConv2dRows(const graph::DepthwiseConv2dAttrs& a,
                            const RowBand& in, const Tensor& w,
                            const Tensor& bias, const MutableRowBand& out,
                            const kernels::KernelTable& kt);

// Elementwise add; `y` is the second operand, read at the same global rows
// as the output band.  `out` may alias `x`.
void RunAddRows(const RowBand& x, const RowBand& y, const MutableRowBand& out);

// Standalone activation; `out` may alias `in`.
void RunActivationRows(graph::Activation act, const RowBand& in,
                       const MutableRowBand& out,
                       const kernels::KernelTable& kt);

// Bilinear resize over an output row band: half-pixel centers clamped to
// the logical input.
void RunResizeBilinearRows(const RowBand& in, const MutableRowBand& out);

}  // namespace mlpm::infer
