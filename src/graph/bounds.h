// Bounds inference: output crop -> required input box.
//
// For the ops the tiled executor can run crop-by-crop (hannk-style
// interpreter tiling), this maps a crop of a node's output back to the box
// of its first input the crop needs.  The mapping is the *inverse* of the
// kernel's index arithmetic — for a conv row band [b, e) with stride s,
// effective kernel k and SAME pad p, the input rows touched are
// [b*s - p, (e-1)*s - p + k), clamped to the tensor — so a tile executor
// that materializes exactly the inferred box computes every output element
// from the same inputs as the whole-op kernel (DESIGN.md §15).
//
// Contracts:
//   * Inference covers input[0] only.  Binary elementwise ops read their
//     second operand at the *same* coordinates as the output crop, so the
//     required box of input[1] equals the crop itself.
//   * The returned box is clamped to the input shape.  Padding (SAME conv
//     edges) is handled by the kernels skipping taps outside the logical
//     tensor, which the clamped box always covers.
//   * Crops split N and H only; inference keeps W and C spans full-range
//     in the same spirit, but the math is exact for W crops too.
#pragma once

#include "graph/box.h"
#include "graph/graph.h"

namespace mlpm::graph {

// Padding offset at the start of one spatial dimension for SAME padding.
// Shared by the whole-op kernels and the crop-aware kernels so both sides
// of the equivalence proof use one definition.
[[nodiscard]] std::int64_t SamePadBegin(std::int64_t in, std::int64_t out,
                                        int kernel, int stride, int dilation,
                                        Padding pad);

// True if the op has an exact crop -> input-box mapping (and a crop-aware
// kernel in the tiled executor).  Everything else forces a segment break.
[[nodiscard]] bool SupportsBoundsInference(OpType op);

// The box of `n`'s first input required to compute the output crop.
// `crop` must have the output's rank and lie inside the output shape.
// Requires SupportsBoundsInference(n.op).
[[nodiscard]] Box InferInputBounds(const Node& n, const TensorShape& in_shape,
                                   const TensorShape& out_shape,
                                   const Box& crop);

}  // namespace mlpm::graph
