// Portable scalar microkernels — the fallback table and the bit-exactness
// oracle.  dot4_f32 and dw_madd_f32 reproduce the executor's original
// conv/FC/depthwise accumulation order element for element, so a forced
// scalar run matches the pre-registry engine bit for bit.
#include <cstdint>

#include "infer/kernels/registry.h"

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

const KernelTable& ScalarKernels() {
  static constexpr KernelTable kTable = {KernelIsa::kScalar, "scalar",
                                         Dot4F32Portable, DwMaddF32Portable};
  return kTable;
}

}  // namespace mlpm::infer::kernels
