// Box-Muller pieces behind Rng::NextGaussian and Rng::FillGaussianF32.
//
// Not part of the Rng interface: rng.cpp and the tests that hold the fast
// path to the libm chain use it.
#pragma once

#include <cstddef>
#include <span>

namespace mlpm::box_muller {

// Pairs one fast block takes.
inline constexpr std::size_t kPairs = 4;

struct Pair {
  double cos = 0.0;  // r·cos θ: what NextGaussian returns
  double sin = 0.0;  // r·sin θ: what it caches for the next call
};

// The definition, through libm: r = sqrt(-2·log(u1)), θ = 2π·u2.
[[nodiscard]] Pair Libm(double u1, double u2);

// The fast approximation of Libm for kPairs pairs at once: log by exponent
// split and fdlibm's atanh-series polynomial, sin and cos by a three-part
// Cody-Waite reduction of θ and fdlibm's kernel polynomials.  Within about
// 2^-50.4 relative of glibc's chain, but not its bits; only its error
// bound reaches an output, through BlockF32.
void Approx(std::span<const double, kPairs> u1,
            std::span<const double, kPairs> u2, std::span<double, kPairs> cos,
            std::span<double, kPairs> sin);

// out[2i] = float(Libm(u1[i], u2[i]).cos * scale) and out[2i + 1] the same
// for .sin, bit for bit.  A value z = Approx · scale is taken as float(z)
// only when z·(1 - 2^-40) and z·(1 + 2^-40) round to the same nonzero
// float: rounding is monotone, so every double between them, Libm's value
// included, rounds there too.  (A zero's sign is not in the bracket.)  Any
// other value goes through Libm.
void BlockF32(std::span<const double, kPairs> u1,
              std::span<const double, kPairs> u2, double scale,
              std::span<float, 2 * kPairs> out);

}  // namespace mlpm::box_muller
