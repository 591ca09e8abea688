// AVX2 + FMA microkernel table.  Compiled with -mavx2 -mfma on x86 builds
// only (see src/infer/CMakeLists.txt); the registry dispatches here when the
// host CPU advertises AVX2, FMA and F16C.
//
// Exactness: the kernels in this file use 8-lane FMA accumulators, which
// reassociates the sum and fuses the round step, so they match the scalar
// oracle only within the documented relative tolerance (DESIGN.md §13).
// The table's scalar-order entries live in avx2_scalar_order.cpp, which is
// built without FMA and returns the scalar bits.
#include "infer/kernels/registry.h"
#include "infer/kernels/scalar_order.h"

#if defined(MLPM_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#include <cstdint>

namespace mlpm::infer::kernels {
namespace {

inline float Hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

void Dot4F32Avx2(const float* x, const float* w0, const float* w1,
                 const float* w2, const float* w3, std::int64_t len,
                 float* acc) {
  __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
  __m256 s2 = _mm256_setzero_ps(), s3 = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    s0 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w0 + i), s0);
    s1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w1 + i), s1);
    s2 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w2 + i), s2);
    s3 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w3 + i), s3);
  }
  float r0 = Hsum256(s0), r1 = Hsum256(s1), r2 = Hsum256(s2),
        r3 = Hsum256(s3);
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

void DwMaddF32Avx2(const float* x, const float* w, float* acc,
                   std::int64_t channels) {
  std::int64_t c = 0;
  for (; c + 8 <= channels; c += 8)
    _mm256_storeu_ps(acc + c,
                     _mm256_fmadd_ps(_mm256_loadu_ps(x + c),
                                     _mm256_loadu_ps(w + c),
                                     _mm256_loadu_ps(acc + c)));
  for (; c < channels; ++c) acc[c] += x[c] * w[c];
}

}  // namespace

const KernelTable* Avx2KernelsOrNull() {
  static constexpr KernelTable kTable = {
      .isa = KernelIsa::kAvx2,
      .name = "avx2",
      .dot4_f32 = Dot4F32Avx2,
      .dw_madd_f32 = DwMaddF32Avx2,
      .matmul_f32 = MatmulF32Avx2,
      .round_half_f32 = RoundHalfF32Avx2,
      .fake_quant_f32 = FakeQuantF32Avx2};
  return &kTable;
}

}  // namespace mlpm::infer::kernels

#endif  // MLPM_KERNELS_HAVE_AVX2
