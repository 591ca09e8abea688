// AVX2 + FMA microkernel table.  Compiled with -mavx2 -mfma on x86 builds
// only (see src/infer/CMakeLists.txt); the registry dispatches here when the
// host CPU advertises AVX2, FMA and F16C.
//
// Exactness: the kernels in this file use 8-lane FMA accumulators, which
// reassociates the sum and fuses the round step, so they match the scalar
// oracle only within the documented relative tolerance (DESIGN.md §13);
// conv_block_f32 returns this table's own dot4_f32 bits.
// The table's scalar-order entries live in avx2_scalar_order.cpp, which is
// built without FMA and returns the scalar bits.
#include "infer/kernels/conv_block.h"
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

// Out of line on purpose: conv_block_f32 calls it directly for every tap it
// does not pair, and its scalar tail must keep the code the digests were
// taken with (DESIGN.md §13) instead of being re-optimized inside a caller.
[[gnu::noinline]] void Dot4F32Avx2(const float* x, const float* w0,
                                   const float* w1, const float* w2,
                                   const float* w3, std::int64_t len,
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

// Hsum256 of a0..a3 and of b0..b3 at once: every sum takes Hsum256's pairs
// in its operand order (lo + hi, then lanes 0 + 2 and 1 + 3, then those two).
// Returns {Hsum256(a0), ..., Hsum256(a3)} in *ra and the b sums in *rb.
inline void Hsum256x8(__m256 a0, __m256 a1, __m256 a2, __m256 a3, __m256 b0,
                      __m256 b1, __m256 b2, __m256 b3, __m128* ra,
                      __m128* rb) {
  // [x lo + x hi | y lo + y hi]
  const auto fold = [](__m256 x, __m256 y) {
    return _mm256_add_ps(_mm256_permute2f128_ps(x, y, 0x20),
                         _mm256_permute2f128_ps(x, y, 0x31));
  };
  // u = [s(x0) | s(x2)], v = [s(x1) | s(x3)] -> per 128-bit lane
  // [s0 + s2, s1 + s3] of u, then of v.
  const auto pairs = [](__m256 u, __m256 v) {
    return _mm256_add_ps(_mm256_shuffle_ps(u, v, _MM_SHUFFLE(1, 0, 1, 0)),
                         _mm256_shuffle_ps(u, v, _MM_SHUFFLE(3, 2, 3, 2)));
  };
  const __m256 za = pairs(fold(a0, a2), fold(a1, a3));
  const __m256 zb = pairs(fold(b0, b2), fold(b1, b3));
  // [a0 a1 b0 b1 | a2 a3 b2 b3]
  const __m256 h = _mm256_hadd_ps(za, zb);
  const __m128 lo = _mm256_castps256_ps128(h);
  const __m128 hi = _mm256_extractf128_ps(h, 1);
  *ra = _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(1, 0, 1, 0));
  *rb = _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 2, 3, 2));
}

// One tap of one position through Dot4F32Avx2, on a register accumulator.
inline __m128 Dot4Tap(const float* x, const float* w0, std::int64_t wstride,
                      std::int64_t len, __m128 acc) {
  alignas(16) float a[4];
  _mm_store_ps(a, acc);
  Dot4F32Avx2(x, w0, w0 + wstride, w0 + 2 * wstride, w0 + 3 * wstride, len,
              a);
  return _mm_load_ps(a);
}

// When len % 8 == 0 (Dot4F32Avx2 has no tail), a tap both positions have
// runs on eight accumulators that share the four weight loads, then one
// batched Hsum: each sum is Dot4F32Avx2's, lane for lane and FMA for FMA.
// Any other tap calls Dot4F32Avx2 itself, and any other len is the per-tap
// definition outright.
void ConvBlockF32Avx2(const float* const* x0, const float* const* x1,
                      const std::int64_t* woff, std::int64_t ntaps,
                      const float* w, std::int64_t wstride, std::int64_t len,
                      std::int64_t oc4, const float* bias, float* out0,
                      float* out1) {
  if (len % 8 != 0) {
    ConvBlockPerTap<Dot4F32Avx2>(x0, x1, woff, ntaps, w, wstride, len, oc4,
                                 bias, out0, out1);
    return;
  }
  for (std::int64_t oc = 0; oc < oc4; oc += 4) {
    const float* wb = w + oc * wstride;
    __m128 acc0 = _mm_loadu_ps(bias + oc);
    __m128 acc1 = acc0;
    for (std::int64_t t = 0; t < ntaps; ++t) {
      const float* xa = x0[t];
      const float* xb = x1 != nullptr ? x1[t] : nullptr;
      const float* w0 = wb + woff[t];
      if (xa == nullptr || xb == nullptr) {
        if (xa != nullptr) acc0 = Dot4Tap(xa, w0, wstride, len, acc0);
        if (xb != nullptr) acc1 = Dot4Tap(xb, w0, wstride, len, acc1);
        continue;
      }
      const float* w1 = w0 + wstride;
      const float* w2 = w1 + wstride;
      const float* w3 = w2 + wstride;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
      __m256 b2 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
      for (std::int64_t i = 0; i < len; i += 8) {
        const __m256 xav = _mm256_loadu_ps(xa + i);
        const __m256 xbv = _mm256_loadu_ps(xb + i);
        const __m256 wv0 = _mm256_loadu_ps(w0 + i);
        const __m256 wv1 = _mm256_loadu_ps(w1 + i);
        const __m256 wv2 = _mm256_loadu_ps(w2 + i);
        const __m256 wv3 = _mm256_loadu_ps(w3 + i);
        a0 = _mm256_fmadd_ps(xav, wv0, a0);
        a1 = _mm256_fmadd_ps(xav, wv1, a1);
        a2 = _mm256_fmadd_ps(xav, wv2, a2);
        a3 = _mm256_fmadd_ps(xav, wv3, a3);
        b0 = _mm256_fmadd_ps(xbv, wv0, b0);
        b1 = _mm256_fmadd_ps(xbv, wv1, b1);
        b2 = _mm256_fmadd_ps(xbv, wv2, b2);
        b3 = _mm256_fmadd_ps(xbv, wv3, b3);
      }
      __m128 ra, rb;
      Hsum256x8(a0, a1, a2, a3, b0, b1, b2, b3, &ra, &rb);
      acc0 = _mm_add_ps(acc0, ra);
      acc1 = _mm_add_ps(acc1, rb);
    }
    _mm_storeu_ps(out0 + oc, acc0);
    if (x1 != nullptr) _mm_storeu_ps(out1 + oc, acc1);
  }
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
      .conv_block_f32 = ConvBlockF32Avx2,
      .dw_madd_f32 = DwMaddF32Avx2,
      .matmul_f32 = MatmulF32Avx2,
      .gelu_f32 = GeluF32Avx2,
      .round_half_f32 = RoundHalfF32Avx2,
      .fake_quant_f32 = FakeQuantF32Avx2};
  return &kTable;
}

}  // namespace mlpm::infer::kernels

#endif  // MLPM_KERNELS_HAVE_AVX2
