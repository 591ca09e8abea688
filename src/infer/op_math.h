// Scalar math shared by the whole-op executor and the crop-aware tiled
// kernels.  Both paths must apply the exact same per-element operations in
// the exact same order for the tiled engine's bit-identity guarantee
// (DESIGN.md §15), so the shared pieces live here instead of being
// duplicated per translation unit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "graph/ops.h"
#include "infer/kernels/registry.h"
#include "infer/kernels/tanh_f32.h"

namespace mlpm::infer {

// Fused/standalone activation applied to one accumulator.
inline float ApplyActivation(float v, graph::Activation a) {
  switch (a) {
    case graph::Activation::kNone:
      return v;
    case graph::Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case graph::Activation::kRelu6:
      return std::clamp(v, 0.0f, 6.0f);
    case graph::Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case graph::Activation::kTanh:
      return kernels::TanhF32(v);
    case graph::Activation::kGelu:
      return kernels::GeluF32(v);
  }
  return v;
}

// ApplyActivation over v[0, n) in place, with the switch outside the loop
// so each case's loop can vectorize; every element gets the same operation.
template <graph::Activation A>
void ApplyActivationInPlace(float* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) v[i] = ApplyActivation(v[i], A);
}

// GELU goes through the kernel table's `gelu_f32`, which returns
// ApplyActivation's bits on every table.
inline void ApplyActivationInPlace(float* v, std::int64_t n,
                                   graph::Activation a,
                                   const kernels::KernelTable& kt) {
  using graph::Activation;
  switch (a) {
    case Activation::kNone: return;
    case Activation::kRelu:
      return ApplyActivationInPlace<Activation::kRelu>(v, n);
    case Activation::kRelu6:
      return ApplyActivationInPlace<Activation::kRelu6>(v, n);
    case Activation::kSigmoid:
      return ApplyActivationInPlace<Activation::kSigmoid>(v, n);
    case Activation::kTanh:
      return ApplyActivationInPlace<Activation::kTanh>(v, n);
    case Activation::kGelu:
      return kt.gelu_f32(v, n);
  }
}

}  // namespace mlpm::infer
