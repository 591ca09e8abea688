#include "common/box_muller.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>

namespace mlpm::box_muller {
namespace {

// GCC/Clang vector extensions at baseline flags: no ISA dispatch, and the
// compiler maps each operation onto whatever vector unit the target has.
using V4d = double __attribute__((vector_size(32)));
using V4u = std::uint64_t __attribute__((vector_size(32)));
using V4f = float __attribute__((vector_size(16)));
using V4w = std::int32_t __attribute__((vector_size(16)));
static_assert(kPairs == 4, "the vector types hold one block");

// θ = kTwoPi · u2 in the libm chain and in the fast path alike.
constexpr double kTwoPi = 2.0 * std::numbers::pi;

// fdlibm e_log.c: ln 2 split so that k·ln2_hi is exact, and the minimax
// coefficients of R(s) in log(1 + f) = 2·atanh(s), s = f / (2 + f).
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;

// fdlibm e_rem_pio2.c: 2/π, and π/2 as 33 + 33 + 53 bits, so k·pio2_1 and
// k·pio2_2 are exact for the k ≤ 4 that θ < 2π needs.
constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
constexpr double kPio2_1 = 0x1.921fb544p0;
constexpr double kPio2_2 = 0x1.0b4611a6p-34;
constexpr double kPio2_2t = 0x1.3198a2e037073p-69;

// fdlibm k_sin.c and k_cos.c on |y| ≤ π/4.
constexpr double kS1 = -0x1.5555555555549p-3;
constexpr double kS2 = 0x1.111111110f8a6p-7;
constexpr double kS3 = -0x1.a01a019c161d5p-13;
constexpr double kS4 = 0x1.71de357b1fe7dp-19;
constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
constexpr double kC1 = 0x1.555555555554cp-5;
constexpr double kC2 = -0x1.6c16c16c15177p-10;
constexpr double kC3 = 0x1.a01a019cb159p-16;
constexpr double kC4 = -0x1.27e4f809c52adp-22;
constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
constexpr double kC6 = -0x1.8fae9be8838d4p-37;

// Adding 1.5·2^52 rounds a double of magnitude < 2^51 to an integer, which
// then sits in the low bits of the sum's pattern.
constexpr double kRoundMagic = 0x1.8p52;

// Half-width of the exactness bracket, relative.  Approx is within about
// 2^-50.4 of Libm, so Libm's value lies well inside [z(1-e), z(1+e)].
constexpr double kBracket = 0x1p-40;

// Approx on one block already in registers (references, so no vector is
// passed by value across a call boundary whose ABI depends on the ISA).
[[gnu::always_inline]] inline void ApproxBlock(const V4d& u1, const V4d& u2,
                                               V4d& cos, V4d& sin) {
  // -log(u1), u1 in (0, 1]: u1 = 2^k·(1 + f) with 1 + f in [√2/2, √2), as
  // fdlibm splits it, then fdlibm's result negated.  u1 = 1 gives +0 where
  // libm's -2·log(1) is -0; BlockF32 sends every value that rounds to a
  // float zero to Libm.
  const V4u bits = __builtin_bit_cast(V4u, u1);
  const V4u hx = (bits >> 32) & 0x000fffff;
  const V4u i = (hx + 0x95f64) & 0x100000;
  const V4d m = __builtin_bit_cast(
      V4d, ((hx | (i ^ 0x3ff00000)) << 32) | (bits & 0xffffffff));
  // k + 1.5·2^52 as a pattern, k = exponent - 1023 + (i >> 20), then k.
  const V4d dk =
      __builtin_bit_cast(V4d, (bits >> 52) + (i >> 20) +
                                  (std::bit_cast<std::uint64_t>(kRoundMagic) -
                                   1023)) -
      kRoundMagic;
  const V4d f = m - 1.0;
  const V4d s = f / (2.0 + f);
  const V4d z = s * s;
  const V4d w = z * z;
  const V4d t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const V4d t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const V4d hfsq = 0.5 * f * f;
  const V4d neg_log =
      ((hfsq - (s * (hfsq + (t2 + t1)) + dk * kLn2Lo)) - f) - dk * kLn2Hi;
  const V4d r2 = 2.0 * neg_log;
  V4d r;
  for (std::size_t l = 0; l < kPairs; ++l) r[l] = std::sqrt(r2[l]);

  // θ = q·π/2 + y with |y| ≤ π/4; θ < 2π, so q ≤ 4.
  const V4d theta = u2 * kTwoPi;
  const V4d shifted = theta * kInvPio2 + kRoundMagic;
  const V4u q = __builtin_bit_cast(V4u, shifted);
  const V4d fq = shifted - kRoundMagic;
  const V4d y = ((theta - fq * kPio2_1) - fq * kPio2_2) - fq * kPio2_2t;
  const V4d yy = y * y;
  const V4d sin_y =
      y + yy * y *
              (kS1 +
               yy * (kS2 + yy * (kS3 + yy * (kS4 + yy * (kS5 + yy * kS6)))));
  const V4d cos_y =
      1.0 -
      (0.5 * yy -
       yy * (yy * (kC1 +
                   yy * (kC2 +
                         yy * (kC3 + yy * (kC4 + yy * (kC5 + yy * kC6)))))));

  // Odd quadrants swap sin and cos; sin θ is negative in quadrants 2 and
  // 3, cos θ in 1 and 2.
  const V4u odd = -(q & 1);
  const V4u sin_bits = __builtin_bit_cast(V4u, sin_y);
  const V4u cos_bits = __builtin_bit_cast(V4u, cos_y);
  const V4u sin_theta =
      ((cos_bits & odd) | (sin_bits & ~odd)) ^ ((q & 2) << 62);
  const V4u cos_theta =
      ((sin_bits & odd) | (cos_bits & ~odd)) ^ (((q + 1) & 2) << 62);
  cos = r * __builtin_bit_cast(V4d, cos_theta);
  sin = r * __builtin_bit_cast(V4d, sin_theta);
}

}  // namespace

Pair Libm(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = kTwoPi * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

void Approx(std::span<const double, kPairs> u1,
            std::span<const double, kPairs> u2, std::span<double, kPairs> cos,
            std::span<double, kPairs> sin) {
  V4d a, b, c, s;
  std::memcpy(&a, u1.data(), sizeof a);
  std::memcpy(&b, u2.data(), sizeof b);
  ApproxBlock(a, b, c, s);
  std::memcpy(cos.data(), &c, sizeof c);
  std::memcpy(sin.data(), &s, sizeof s);
}

void BlockF32(std::span<const double, kPairs> u1,
              std::span<const double, kPairs> u2, double scale,
              std::span<float, 2 * kPairs> out) {
  V4d a, b, c, s;
  std::memcpy(&a, u1.data(), sizeof a);
  std::memcpy(&b, u2.data(), sizeof b);
  ApproxBlock(a, b, c, s);
  const V4d zc = c * scale;
  const V4d zs = s * scale;
  const V4f fc = __builtin_convertvector(zc * (1.0 - kBracket), V4f);
  const V4f fs = __builtin_convertvector(zs * (1.0 - kBracket), V4f);
  // All-ones in a lane whose value needs Libm: the bracket straddles a
  // float boundary, or z rounds to a zero whose sign it cannot vouch for.
  const V4w bad_c =
      (__builtin_bit_cast(V4w, fc) !=
       __builtin_bit_cast(
           V4w, __builtin_convertvector(zc * (1.0 + kBracket), V4f))) |
      (fc == 0.0f);
  const V4w bad_s =
      (__builtin_bit_cast(V4w, fs) !=
       __builtin_bit_cast(
           V4w, __builtin_convertvector(zs * (1.0 + kBracket), V4f))) |
      (fs == 0.0f);
  for (std::size_t l = 0; l < kPairs; ++l) {
    out[2 * l] = fc[l];
    out[2 * l + 1] = fs[l];
  }
  const V4w bad = bad_c | bad_s;
  if ((bad[0] | bad[1] | bad[2] | bad[3]) == 0) return;
  for (std::size_t l = 0; l < kPairs; ++l) {
    if (bad[l] == 0) continue;
    const Pair p = Libm(u1[l], u2[l]);
    if (bad_c[l] != 0) out[2 * l] = static_cast<float>(p.cos * scale);
    if (bad_s[l] != 0) out[2 * l + 1] = static_cast<float>(p.sin * scale);
  }
}

}  // namespace mlpm::box_muller
