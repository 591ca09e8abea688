// Portable scalar microkernels — the fallback table and the bit-exactness
// oracle.  dot4_f32 and dw_madd_f32 reproduce the executor's original
// conv/FC/depthwise accumulation order element for element, so a forced
// scalar run matches the pre-registry engine bit for bit.  The scalar-order
// entries (scalar_order.h) are the definitions every table must reproduce
// exactly; this file is built with -ffp-contract=off so they stay unfused
// even when the whole tree is compiled with -mfma.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/fp16.h"
#include "infer/kernels/conv_block.h"
#include "infer/kernels/registry.h"
#include "infer/kernels/scalar_order.h"
#include "infer/kernels/tanh_f32.h"

namespace mlpm::infer::kernels {
namespace {

// Accumulates directly into the four running sums, one element at a time —
// the exact order of the executor's original 4-output-channel loops.
void Dot4F32Portable(const float* x, const float* w0, const float* w1,
                     const float* w2, const float* w3, std::int64_t len,
                     float* acc) {
  float a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
  for (std::int64_t i = 0; i < len; ++i) {
    const float v = x[i];
    a0 += v * w0[i];
    a1 += v * w1[i];
    a2 += v * w2[i];
    a3 += v * w3[i];
  }
  acc[0] = a0;
  acc[1] = a1;
  acc[2] = a2;
  acc[3] = a3;
}

void DwMaddF32Portable(const float* x, const float* w, float* acc,
                       std::int64_t channels) {
  for (std::int64_t c = 0; c < channels; ++c) acc[c] += x[c] * w[c];
}

}  // namespace

void MatmulF32Portable(const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float* c, std::int64_t ldc,
                       std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p)
        acc += a[i * lda + p] * b[p * ldb + j];
      c[i * ldc + j] = acc;
    }
}

void GeluF32Portable(float* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) v[i] = GeluF32(v[i]);
}

void RoundHalfF32Portable(float* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) v[i] = RoundToHalf(v[i]);
}

void FakeQuantF32Portable(float* v, std::int64_t n, float scale, float zp,
                          float qmax) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float q = std::clamp(std::round(v[i] / scale) + zp, 0.0f, qmax);
    v[i] = (q - zp) * scale;
  }
}

const KernelTable& ScalarKernels() {
  static constexpr KernelTable kTable = {
      .isa = KernelIsa::kScalar,
      .name = "scalar",
      .dot4_f32 = Dot4F32Portable,
      .conv_block_f32 = ConvBlockPerTap<Dot4F32Portable>,
      .dw_madd_f32 = DwMaddF32Portable,
      .matmul_f32 = MatmulF32Portable,
      .gelu_f32 = GeluF32Portable,
      .round_half_f32 = RoundHalfF32Portable,
      .fake_quant_f32 = FakeQuantF32Portable};
  return kTable;
}

}  // namespace mlpm::infer::kernels
