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
#include "infer/kernels/tanh_f32.h"

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

__m256 Select(__m256i mask, __m256 if_set, __m256 otherwise) {
  return _mm256_blendv_ps(otherwise, if_set, _mm256_castsi256_ps(mask));
}

__m256i Splat(std::uint32_t bits) {
  return _mm256_set1_epi32(static_cast<int>(bits));
}

// Adds k to each lane's exponent: tanh_f32::Expm1's `scale`.
__m256 AddToExponent(__m256 y, __m256i k) {
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
}

// tanh_f32::Expm1 on eight lanes.  Each lane computes every branch's value
// with that branch's operations and keeps the one its own k and |x| pick,
// so a lane's result is the scalar function's bits.
__m256 Expm1Avx2(__m256 x) {
  using namespace tanh_f32;
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 xsign = _mm256_and_ps(x, sign);
  const __m256i hx = _mm256_castps_si256(_mm256_andnot_ps(sign, x));
  const __m256i reduce = _mm256_cmpgt_epi32(hx, Splat(kHalfLn2));
  const __m256i k_is_pm1 = _mm256_cmpgt_epi32(Splat(kThreeHalvesLn2), hx);
  const __m256i tiny = _mm256_cmpgt_epi32(Splat(kExpm1Tiny), hx);

  // Range reduction.  k = +-1: hi = x -+ ln2_hi, lo = +-ln2_lo (x + ln2_hi
  // is x - (-ln2_hi), the same IEEE operation).  Otherwise k = (int)(x /
  // ln2 +- 0.5), truncated as C converts.
  const __m256 hi_pm1 =
      _mm256_sub_ps(x, _mm256_xor_ps(_mm256_set1_ps(kLn2Hi), xsign));
  const __m256 lo_pm1 = _mm256_xor_ps(_mm256_set1_ps(kLn2Lo), xsign);
  const __m256i k_pm1 = _mm256_or_si256(
      _mm256_srai_epi32(_mm256_castps_si256(x), 31), _mm256_set1_epi32(1));
  const __m256i k_far = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(kInvLn2), x), _mm256_xor_ps(half, xsign)));
  const __m256 t_far = _mm256_cvtepi32_ps(k_far);
  const __m256 hi_far =
      _mm256_sub_ps(x, _mm256_mul_ps(t_far, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo_far = _mm256_mul_ps(t_far, _mm256_set1_ps(kLn2Lo));
  const __m256 hi = Select(k_is_pm1, hi_pm1, hi_far);
  const __m256 lo = Select(k_is_pm1, lo_pm1, lo_far);
  const __m256 reduced = _mm256_sub_ps(hi, lo);
  const __m256i k = _mm256_and_si256(
      reduce, _mm256_blendv_epi8(k_far, k_pm1, k_is_pm1));
  const __m256 r = Select(reduce, reduced, x);
  const __m256 c = Select(
      reduce, _mm256_sub_ps(_mm256_sub_ps(hi, reduced), lo),
      _mm256_setzero_ps());

  // The primary range.
  const __m256 hfx = _mm256_mul_ps(half, r);
  const __m256 hxs = _mm256_mul_ps(r, hfx);
  __m256 p = _mm256_mul_ps(hxs, _mm256_set1_ps(kQ5));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kQ4), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kQ3), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kQ2), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(kQ1), p));
  const __m256 r1 = _mm256_add_ps(one, p);
  const __m256 t =
      _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e0 = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(r, t))));
  const __m256 y_k0 =
      _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e0), hxs));
  const __m256 e = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e0, c)), c), hxs);
  const __m256 y_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
  const __m256 y_k1 = _mm256_blendv_ps(
      _mm256_add_ps(one, _mm256_mul_ps(_mm256_set1_ps(2.0f),
                                       _mm256_sub_ps(r, e))),
      _mm256_mul_ps(_mm256_set1_ps(-2.0f),
                    _mm256_sub_ps(e, _mm256_add_ps(r, half))),
      _mm256_cmp_ps(r, _mm256_set1_ps(-0.25f), _CMP_LT_OQ));
  const __m256 y_wide = _mm256_sub_ps(
      AddToExponent(_mm256_sub_ps(one, _mm256_sub_ps(e, r)), k), one);
  const __m256 one_minus_2_neg_k = _mm256_castsi256_ps(_mm256_sub_epi32(
      Splat(0x3f800000u), _mm256_srlv_epi32(Splat(0x1000000u), k)));
  const __m256 y_lt23 = AddToExponent(
      _mm256_sub_ps(one_minus_2_neg_k, _mm256_sub_ps(e, r)), k);
  const __m256 two_neg_k = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(Splat(0x7f), k), 23));
  const __m256 y_ge23 = AddToExponent(
      _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, two_neg_k)), one), k);

  // The scalar function's returns, last-checked first.
  const __m256i wide = _mm256_or_si256(
      _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
      _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)));
  __m256 y = Select(_mm256_cmpgt_epi32(_mm256_set1_epi32(23), k), y_lt23,
                    y_ge23);
  y = Select(wide, y_wide, y);
  y = Select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(1)), y_k1, y);
  y = Select(_mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1)), y_km1, y);
  y = Select(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), y_k0, y);
  return Select(tiny, x, y);
}

// TanhF32 on eight lanes.  One division serves both |x| < 1 and |x| >= 1:
// the numerator is -t there and 2 here.  NaN lanes return x + x, which is
// the quieted NaN that the scalar 1 / x +- 1 returns; infinities fall in
// the |x| >= 22 lanes, whose +-(1 - 1e-30f) is +-1 as 1 / x +- 1 is.
__m256 TanhAvx2(__m256 x) {
  using namespace tanh_f32;
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 xsign = _mm256_and_ps(x, sign);
  const __m256 ax = _mm256_andnot_ps(sign, x);
  const __m256i ix = _mm256_castps_si256(ax);
  const __m256i at_least_one = _mm256_cmpgt_epi32(ix, Splat(kTanhOne - 1));
  // expm1(2|x|) for |x| >= 1, expm1(-2|x|) below.
  const __m256 arg = _mm256_xor_ps(
      _mm256_mul_ps(two, ax),
      _mm256_andnot_ps(_mm256_castsi256_ps(at_least_one), sign));
  const __m256 t = Expm1Avx2(arg);
  const __m256 q = _mm256_div_ps(Select(at_least_one, two,
                                        _mm256_xor_ps(t, sign)),
                                 _mm256_add_ps(t, two));
  __m256 z = _mm256_xor_ps(Select(at_least_one, _mm256_sub_ps(one, q), q),
                           xsign);
  z = Select(_mm256_cmpgt_epi32(ix, Splat(kTanhHuge - 1)),
             _mm256_xor_ps(_mm256_set1_ps(1.0f - kTiny), xsign), z);
  z = Select(_mm256_cmpgt_epi32(Splat(kTanhTiny), ix),
             _mm256_mul_ps(x, _mm256_add_ps(one, x)), z);
  return Select(_mm256_cmpgt_epi32(ix, Splat(kInf)), _mm256_add_ps(x, x), z);
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


// GeluF32's expression, lane for lane.
void GeluF32Avx2(float* v, std::int64_t n) {
  const __m256 c = _mm256_set1_ps(0.7978845608f);
  const __m256 k = _mm256_set1_ps(0.044715f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 cube =
        _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(k, x), x), x);
    const __m256 inner = _mm256_mul_ps(c, _mm256_add_ps(x, cube));
    _mm256_storeu_ps(v + i,
                     _mm256_mul_ps(_mm256_mul_ps(half, x),
                                   _mm256_add_ps(one, TanhAvx2(inner))));
  }
  GeluF32Portable(v + i, n - i);
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
