// Single-precision tanh and the GELU built on it, as plain C++ that every
// build rounds the same way.
//
// `TanhF32` is a port of fdlibm's `s_tanhf.c` and the part of `s_expm1f.c`
// that tanhf reaches, the code glibc 2.36 ships as `tanhf`/`expm1f`: the
// same constants, branches and operation order, so on such a host it
// returns `std::tanh`'s exact bits, NaN payloads included.  It is a port
// and not a libm call so that f32 results, and the ground truth labelled
// from them, do not depend on the host's libm (musl, or a glibc with a
// correctly rounded tanhf, return other bits), and so that the AVX2
// `gelu_f32` body has a definition it can reproduce lane for lane.
//
// Every translation unit that includes this header is built with
// -ffp-contract=off (src/infer/CMakeLists.txt, tests/CMakeLists.txt): a
// fused multiply-add would round once where the port rounds twice.
#pragma once

#include <bit>
#include <cstdint>

namespace mlpm::infer::kernels {

namespace tanh_f32 {

// s_expm1f.c's constants, by bit pattern.
inline constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
inline constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
inline constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
inline constexpr float kQ1 = std::bit_cast<float>(0xbd088889u);
inline constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01u);
inline constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdu);
inline constexpr float kQ4 = std::bit_cast<float>(0x36867e54u);
inline constexpr float kQ5 = std::bit_cast<float>(0xb457edbbu);
inline constexpr float kTiny = 1.0e-30f;

// |x| thresholds, as the bits of |x|.
inline constexpr std::uint32_t kHalfLn2 = 0x3eb17218;       // expm1f: 0.5 ln2
inline constexpr std::uint32_t kThreeHalvesLn2 = 0x3F851592;  // 1.5 ln2
inline constexpr std::uint32_t kExpm1Tiny = 0x33000000;     // 2^-25
inline constexpr std::uint32_t kTanhTiny = 0x24000000;      // tanhf: 2^-55
inline constexpr std::uint32_t kTanhOne = 0x3f800000;       // 1
inline constexpr std::uint32_t kTanhHuge = 0x41b00000;      // 22
inline constexpr std::uint32_t kInf = 0x7f800000;

// expm1f for the arguments tanhf passes it: finite, in (-2, 44).  The
// overflow and huge-negative filters at the top of s_expm1f.c never fire
// there, so they are left out; every other branch is kept.
inline float Expm1(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const bool negative = (bits & 0x80000000u) != 0;
  const std::uint32_t hx = bits & 0x7fffffffu;
  float c = 0.0f;
  std::int32_t k = 0;
  if (hx > kHalfLn2) {  // |x| > 0.5 ln2: reduce by k ln2
    float hi, lo;
    if (hx < kThreeHalvesLn2) {  // and |x| < 1.5 ln2: k = +-1
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const auto t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpm1Tiny) {  // |x| < 2^-25: expm1(x) rounds to x
    return x;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return 1.0f + 2.0f * (x - e);
  }
  // Adds k to the exponent of y (k << 23 wraps for negative k, as
  // fdlibm's int arithmetic does).
  const auto scale = [k](float y) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                                (static_cast<std::uint32_t>(k) << 23));
  };
  if (k <= -2 || k > 56) return scale(1.0f - (e - x)) - 1.0f;
  if (k < 23) {
    t = std::bit_cast<float>(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return scale(t - (e - x));
  }
  t = std::bit_cast<float>(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += 1.0f;
  return scale(y);
}

}  // namespace tanh_f32

// s_tanhf.c: tanh(x) from expm1(2|x|) or expm1(-2|x|).
inline float TanhF32(float x) {
  using namespace tanh_f32;
  const std::uint32_t jx = std::bit_cast<std::uint32_t>(x);
  const bool negative = (jx & 0x80000000u) != 0;
  const std::uint32_t ix = jx & 0x7fffffffu;
  if (ix >= kInf) {  // tanh(+-inf) = +-1, tanh(NaN) = NaN
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  }
  float z;
  if (ix < kTanhHuge) {  // |x| < 22
    if (ix == 0) return x;  // +-0
    if (ix < kTanhTiny) return x * (1.0f + x);  // |x| < 2^-55
    const float ax = std::bit_cast<float>(ix);
    if (ix >= kTanhOne) {  // |x| >= 1
      const float t = Expm1(2.0f * ax);
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = Expm1(-2.0f * ax);
      z = -t / (t + 2.0f);
    }
  } else {  // |x| >= 22: +-1, inexact
    z = 1.0f - kTiny;
  }
  return negative ? -z : z;
}

// The tanh approximation of GELU; `gelu_f32`'s definition (registry.h).
inline float GeluF32(float v) {
  const float c = 0.7978845608f;  // sqrt(2/pi)
  const float inner = c * (v + 0.044715f * v * v * v);
  return 0.5f * v * (1.0f + TanhF32(inner));
}

}  // namespace mlpm::infer::kernels
