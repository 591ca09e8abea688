#include "common/rng.h"

#include <unordered_set>

#include "common/box_muller.h"
#include "common/check.h"

namespace mlpm {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  Expects(bound > 0, "NextBelow bound must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = NextU64();
  while (v >= limit) v = NextU64();
  return v % bound;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - NextDouble();
  const double u2 = NextDouble();
  const box_muller::Pair p = box_muller::Libm(u1, u2);
  cached_gaussian_ = p.sin;
  has_cached_gaussian_ = true;
  return p.cos;
}

void Rng::FillGaussianF32(std::span<float> out, double scale) {
  constexpr std::size_t kPairs = box_muller::kPairs;
  std::size_t i = 0;
  if (has_cached_gaussian_ && !out.empty())
    out[i++] = static_cast<float>(NextGaussian() * scale);
  for (; out.size() - i >= 2 * kPairs; i += 2 * kPairs) {
    double u1[kPairs], u2[kPairs];
    for (std::size_t l = 0; l < kPairs; ++l) {
      u1[l] = 1.0 - NextDouble();
      u2[l] = NextDouble();
    }
    box_muller::BlockF32(u1, u2, scale, out.subspan(i).first<2 * kPairs>());
  }
  for (; i < out.size(); ++i)
    out[i] = static_cast<float>(NextGaussian() * scale);
}

Rng Rng::Split(std::uint64_t tag) const {
  // Derive a child seed from the parent state and the tag.
  std::uint64_t mix = s_[0] ^ Rotl(s_[2], 13) ^ (tag * 0x9E3779B97F4A7C15ULL);
  return Rng(SplitMix64(mix));
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  Expects(k <= n, "cannot sample more items than population");
  // Floyd's algorithm: O(k) expected draws.
  std::unordered_set<std::size_t> chosen;
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(NextBelow(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace mlpm
