// Deterministic, splittable random number generation.
//
// The LoadGen rules (paper §4.1) require a fixed seed so sample selection is
// reproducible and auditable; every stochastic component in this repo
// (synthetic weights, dataset generation, sample scheduling) derives its
// stream from an explicit seed, never from global state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mlpm {

// xoshiro256** by Blackman & Vigna; small, fast, and good enough for
// benchmark workload generation.  Seeded via splitmix64 so that nearby seeds
// give independent streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform on [0, 2^64).
  std::uint64_t NextU64();

  // Uniform on [0, bound).  bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform on [0, 1).
  double NextDouble();

  // Uniform on [lo, hi).
  double NextUniform(double lo, double hi);

  // Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  // out[i] = static_cast<float>(NextGaussian() * scale) for each i in turn,
  // bit for bit, and the generator (cached value included) ends where that
  // loop leaves it.  Only the float has to match, not the double, so whole
  // blocks of pairs take a vector Box-Muller whose value is used only where
  // its error bound cannot change the float; the rest, and any tail, go
  // through NextGaussian's libm chain (box_muller.h, DESIGN.md §1).
  void FillGaussianF32(std::span<float> out, double scale);

  // A child generator whose stream is independent of this one; `tag`
  // distinguishes children of the same parent.
  [[nodiscard]] Rng Split(std::uint64_t tag) const;

  // k distinct indices drawn uniformly from [0, n) (Floyd's algorithm).
  [[nodiscard]] std::vector<std::size_t> SampleWithoutReplacement(
      std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace mlpm
