// Bodies of the kernel-table entries that keep the scalar order
// (registry.h): `matmul_f32`, `gelu_f32`, `round_half_f32` and
// `fake_quant_f32`.  Every
// table returns the portable bodies' exact bits for these entries, so the
// NEON table points straight at them and the AVX2 bodies put their lanes
// across independent outputs only.
//
// The AVX2 bodies live in their own translation unit, built with
// -mavx2 -mf16c -ffp-contract=off and without -mfma (src/infer/
// CMakeLists.txt): GCC fuses `_mm256_add_ps(c, _mm256_mul_ps(a, b))` into
// an FMA when FMA is enabled, and a fused step rounds once where the
// scalar order rounds twice.
#pragma once

#include <cstdint>

namespace mlpm::infer::kernels {

void MatmulF32Portable(const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float* c, std::int64_t ldc,
                       std::int64_t m, std::int64_t n, std::int64_t k);
void GeluF32Portable(float* v, std::int64_t n);
void RoundHalfF32Portable(float* v, std::int64_t n);
void FakeQuantF32Portable(float* v, std::int64_t n, float scale, float zp,
                          float qmax);

#if defined(MLPM_KERNELS_HAVE_AVX2)
void MatmulF32Avx2(const float* a, std::int64_t lda, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc,
                   std::int64_t m, std::int64_t n, std::int64_t k);
void GeluF32Avx2(float* v, std::int64_t n);
void RoundHalfF32Avx2(float* v, std::int64_t n);
void FakeQuantF32Avx2(float* v, std::int64_t n, float scale, float zp,
                      float qmax);
#endif

}  // namespace mlpm::infer::kernels
