// AArch64 NEON (Advanced SIMD) microkernel table.  Compiled on aarch64
// builds only; ASIMD is architecturally mandatory there, but the registry
// still confirms it via HWCAP before dispatching here.
//
// Exactness mirrors avx2.cpp: the kernels reassociate across 4 lanes and
// fuse with vfmaq, so they match the scalar oracle within the documented
// tolerance only.  The scalar-order entries point at the portable bodies
// (scalar_order.h) until NEON versions that keep the scalar order exist.
#include "infer/kernels/conv_block.h"
#include "infer/kernels/registry.h"
#include "infer/kernels/scalar_order.h"

#if defined(MLPM_KERNELS_HAVE_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include <cstdint>

namespace mlpm::infer::kernels {
namespace {

void Dot4F32Neon(const float* x, const float* w0, const float* w1,
                 const float* w2, const float* w3, std::int64_t len,
                 float* acc) {
  float32x4_t s0 = vdupq_n_f32(0.0f), s1 = vdupq_n_f32(0.0f);
  float32x4_t s2 = vdupq_n_f32(0.0f), s3 = vdupq_n_f32(0.0f);
  std::int64_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const float32x4_t xv = vld1q_f32(x + i);
    s0 = vfmaq_f32(s0, xv, vld1q_f32(w0 + i));
    s1 = vfmaq_f32(s1, xv, vld1q_f32(w1 + i));
    s2 = vfmaq_f32(s2, xv, vld1q_f32(w2 + i));
    s3 = vfmaq_f32(s3, xv, vld1q_f32(w3 + i));
  }
  float r0 = vaddvq_f32(s0), r1 = vaddvq_f32(s1), r2 = vaddvq_f32(s2),
        r3 = vaddvq_f32(s3);
  for (; i < len; ++i) {
    const float v = x[i];
    r0 += v * w0[i];
    r1 += v * w1[i];
    r2 += v * w2[i];
    r3 += v * w3[i];
  }
  acc[0] += r0;
  acc[1] += r1;
  acc[2] += r2;
  acc[3] += r3;
}

void DwMaddF32Neon(const float* x, const float* w, float* acc,
                   std::int64_t channels) {
  std::int64_t c = 0;
  for (; c + 4 <= channels; c += 4)
    vst1q_f32(acc + c,
              vfmaq_f32(vld1q_f32(acc + c), vld1q_f32(x + c),
                        vld1q_f32(w + c)));
  for (; c < channels; ++c) acc[c] += x[c] * w[c];
}

}  // namespace

const KernelTable* NeonKernelsOrNull() {
  static constexpr KernelTable kTable = {
      .isa = KernelIsa::kNeon,
      .name = "neon",
      .dot4_f32 = Dot4F32Neon,
      .conv_block_f32 = ConvBlockPerTap<Dot4F32Neon>,
      .dw_madd_f32 = DwMaddF32Neon,
      .matmul_f32 = MatmulF32Portable,
      .gelu_f32 = GeluF32Portable,
      .round_half_f32 = RoundHalfF32Portable,
      .fake_quant_f32 = FakeQuantF32Portable};
  return &kTable;
}

}  // namespace mlpm::infer::kernels

#endif  // MLPM_KERNELS_HAVE_NEON && __aarch64__
