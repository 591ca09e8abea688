// AVX2 bodies of the scalar-order kernel-table entries (scalar_order.h).
// Compiled with -mavx2 -mf16c -ffp-contract=off and without -mfma (see
// src/infer/CMakeLists.txt), so every multiply and add below stays a
// separately rounded instruction.
//
// Exactness: lanes run across independent outputs — matmul columns, or
// elements of an elementwise pass — never across a reduction, so each
// output sees the portable body's operations in the portable body's order
// and every result is bit-identical to the scalar table.
#include "infer/kernels/scalar_order.h"

#if defined(MLPM_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#include <cstdint>

namespace mlpm::infer::kernels {
namespace {

// One output of the portable matmul, for the columns and rows the vector
// blocks leave over.
float DotColumn(const float* a, const float* b, std::int64_t ldb,
                std::int64_t k) {
  float acc = 0.0f;
  for (std::int64_t p = 0; p < k; ++p) acc += a[p] * b[p * ldb];
  return acc;
}

}  // namespace

// Blocks of 4 rows x 8 columns: one load of b serves four rows, and each
// lane accumulates its own c[i][j] from 0.0f with p ascending.
void MatmulF32Avx2(const float* a, std::int64_t lda, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc,
                   std::int64_t m, std::int64_t n, std::int64_t k) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + i * lda;
    const float* a1 = a0 + lda;
    const float* a2 = a1 + lda;
    const float* a3 = a2 + lda;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 c0 = _mm256_setzero_ps(), c1 = _mm256_setzero_ps();
      __m256 c2 = _mm256_setzero_ps(), c3 = _mm256_setzero_ps();
      for (std::int64_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(a0[p]), bv));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(a1[p]), bv));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(a2[p]), bv));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(a3[p]), bv));
      }
      float* crow = c + i * ldc + j;
      _mm256_storeu_ps(crow, c0);
      _mm256_storeu_ps(crow + ldc, c1);
      _mm256_storeu_ps(crow + 2 * ldc, c2);
      _mm256_storeu_ps(crow + 3 * ldc, c3);
    }
    for (; j < n; ++j)
      for (std::int64_t r = 0; r < 4; ++r)
        c[(i + r) * ldc + j] =
            DotColumn(a + (i + r) * lda, b + j, ldb, k);
  }
  for (; i < m; ++i) {
    const float* arow = a + i * lda;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 c0 = _mm256_setzero_ps();
      for (std::int64_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(arow[p]), bv));
      }
      _mm256_storeu_ps(c + i * ldc + j, c0);
    }
    for (; j < n; ++j) c[i * ldc + j] = DotColumn(arow, b + j, ldb, k);
  }
}

// F16C rounds to nearest even, which is FloatToHalfBits on every non-NaN
// input (subnormals, overflow to infinity included).  F16C keeps a NaN's
// payload; the portable path returns the canonical quiet NaN with the
// input's sign, so NaN lanes take that instead.
void RoundHalfF32Avx2(float* v, std::int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 quiet_nan =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FC00000));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 rounded =
        _mm256_cvtph_ps(_mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
    const __m256 canonical = _mm256_or_ps(_mm256_and_ps(x, sign), quiet_nan);
    _mm256_storeu_ps(v + i,
                     _mm256_blendv_ps(rounded, canonical,
                                      _mm256_cmp_ps(x, x, _CMP_UNORD_Q)));
  }
  RoundHalfF32Portable(v + i, n - i);
}

// std::round is half away from zero: truncate, then step one away from
// zero when the dropped fraction (exact) is at least one half.  The clamp
// uses std::clamp's two comparisons, so a NaN passes through unchanged.
void FakeQuantF32Avx2(float* v, std::int64_t n, float scale, float zp,
                      float qmax) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vzp = _mm256_set1_ps(zp);
  const __m256 vqmax = _mm256_set1_ps(qmax);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d = _mm256_div_ps(_mm256_loadu_ps(v + i), vscale);
    const __m256 t =
        _mm256_round_ps(d, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 frac = _mm256_andnot_ps(sign, _mm256_sub_ps(d, t));
    const __m256 away = _mm256_cmp_ps(frac, half, _CMP_GE_OQ);
    const __m256 step = _mm256_or_ps(_mm256_and_ps(d, sign), one);
    const __m256 r = _mm256_blendv_ps(t, _mm256_add_ps(t, step), away);
    __m256 q = _mm256_add_ps(r, vzp);
    q = _mm256_blendv_ps(q, zero, _mm256_cmp_ps(q, zero, _CMP_LT_OQ));
    q = _mm256_blendv_ps(q, vqmax, _mm256_cmp_ps(vqmax, q, _CMP_LT_OQ));
    _mm256_storeu_ps(v + i, _mm256_mul_ps(_mm256_sub_ps(q, vzp), vscale));
  }
  FakeQuantF32Portable(v + i, n - i, scale, zp, qmax);
}

}  // namespace mlpm::infer::kernels

#endif  // MLPM_KERNELS_HAVE_AVX2
