#include "graph/bounds.h"

#include <algorithm>
#include <variant>

#include "common/check.h"

namespace mlpm::graph {
namespace {

// Input rows a strided window op touches for output rows [begin, end):
// first tap of the first row through last tap of the last row, clamped.
Interval WindowSpan(const Interval& out, std::int64_t in_size, int kernel,
                    int stride, int dilation, std::int64_t pad_begin) {
  const std::int64_t eff_k =
      static_cast<std::int64_t>(dilation) * (kernel - 1) + 1;
  const std::int64_t lo = out.begin * stride - pad_begin;
  const std::int64_t hi = (out.end - 1) * stride - pad_begin + eff_k;
  return Interval{std::max<std::int64_t>(0, lo),
                  std::min<std::int64_t>(in_size, hi)};
}

// Source rows a bilinear band reads: the first tap (y0) of the first
// output row through the second tap (y1 = y0 + 1, clamped) of the last,
// with the whole-op kernel's half-pixel center math reproduced verbatim.
Interval ResizeSpan(const Interval& out, std::int64_t in_size,
                    std::int64_t out_size) {
  const double s =
      static_cast<double>(in_size) / static_cast<double>(out_size);
  const auto tap0 = [&](std::int64_t o) {
    const double f = std::max(0.0, (static_cast<double>(o) + 0.5) * s - 0.5);
    return std::min<std::int64_t>(static_cast<std::int64_t>(f), in_size - 1);
  };
  const std::int64_t lo = tap0(out.begin);
  const std::int64_t hi =
      std::min<std::int64_t>(tap0(out.end - 1) + 1, in_size - 1) + 1;
  return Interval{lo, hi};
}

}  // namespace

std::int64_t SamePadBegin(std::int64_t in, std::int64_t out, int kernel,
                          int stride, int dilation, Padding pad) {
  if (pad == Padding::kValid) return 0;
  const std::int64_t eff_k =
      static_cast<std::int64_t>(dilation) * (kernel - 1) + 1;
  const std::int64_t total =
      std::max<std::int64_t>(0, (out - 1) * stride + eff_k - in);
  return total / 2;
}

bool SupportsBoundsInference(OpType op) {
  switch (op) {
    case OpType::kConv2d:
    case OpType::kDepthwiseConv2d:
    case OpType::kAdd:
    case OpType::kActivation:
    case OpType::kResizeBilinear:
      return true;
    default:
      return false;
  }
}

Box InferInputBounds(const Node& n, const TensorShape& in_shape,
                     const TensorShape& out_shape, const Box& crop) {
  Expects(SupportsBoundsInference(n.op),
          "bounds inference unsupported for op");
  Expects(crop.rank() == out_shape.rank(),
          "crop rank does not match output shape");
  Expects(Box::FromShape(out_shape).Contains(crop),
          "crop outside the output shape");

  switch (n.op) {
    case OpType::kAdd:
    case OpType::kActivation:
      // Elementwise: the input box is the crop itself.
      return crop;

    case OpType::kConv2d: {
      const auto& a = std::get<Conv2dAttrs>(n.attrs);
      Box in = crop;
      in.dims[1] = WindowSpan(
          crop.dims[1], in_shape.height(), a.kernel_h, a.stride, a.dilation,
          SamePadBegin(in_shape.height(), out_shape.height(), a.kernel_h,
                       a.stride, a.dilation, a.padding));
      in.dims[2] = WindowSpan(
          crop.dims[2], in_shape.width(), a.kernel_w, a.stride, a.dilation,
          SamePadBegin(in_shape.width(), out_shape.width(), a.kernel_w,
                       a.stride, a.dilation, a.padding));
      in.dims[3] = {0, in_shape.channels()};  // every input channel
      return in;
    }

    case OpType::kDepthwiseConv2d: {
      const auto& a = std::get<DepthwiseConv2dAttrs>(n.attrs);
      Box in = crop;
      in.dims[1] = WindowSpan(
          crop.dims[1], in_shape.height(), a.kernel_h, a.stride, a.dilation,
          SamePadBegin(in_shape.height(), out_shape.height(), a.kernel_h,
                       a.stride, a.dilation, a.padding));
      in.dims[2] = WindowSpan(
          crop.dims[2], in_shape.width(), a.kernel_w, a.stride, a.dilation,
          SamePadBegin(in_shape.width(), out_shape.width(), a.kernel_w,
                       a.stride, a.dilation, a.padding));
      return in;
    }

    case OpType::kResizeBilinear: {
      Box in = crop;
      in.dims[1] =
          ResizeSpan(crop.dims[1], in_shape.height(), out_shape.height());
      in.dims[2] =
          ResizeSpan(crop.dims[2], in_shape.width(), out_shape.width());
      // Channels map 1:1; the crop's channel span carries over.
      return in;
    }

    default:
      break;
  }
  return crop;  // unreachable: guarded by the Expects above
}

}  // namespace mlpm::graph
