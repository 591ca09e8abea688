// Unit + property tests for src/common: rng, fp16, statistics, table, check.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <set>
#include <source_location>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/box_muller.h"
#include "common/check.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/barchart.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace mlpm {
namespace {

TEST(Check, ExpectsThrowsOnViolation) {
  EXPECT_THROW(Expects(false, "boom"), CheckError);
  EXPECT_NO_THROW(Expects(true));
}

TEST(Check, EnsuresThrowsWithMessage) {
  try {
    Ensures(false, "specific invariant");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("specific invariant"),
              std::string::npos);
  }
}

// What a failing check threw, or "" when it did not throw.
template <class F>
std::string WhatOf(const F& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

// The text every failed check has always carried:
// "<Kind> failed at <file>:<line> in <function>: <message>".
std::string CheckText(std::string_view kind, const std::source_location& at,
                      std::string_view message) {
  return std::string(kind) + " failed at " + at.file_name() + ":" +
         std::to_string(at.line()) + " in " + at.function_name() + ": " +
         std::string(message);
}

// Runs `check`, which stores the source location of the line its failing
// check is on, inside the same lambda, so file, line and function match the
// check's own; the thrown text must be CheckText's.
template <class F>
void ExpectCheckText(std::string_view kind, std::string_view message,
                     const F& check) {
  std::source_location at;
  const std::string what = WhatOf([&] { check(at); });
  EXPECT_EQ(what, CheckText(kind, at, message));
}

TEST(Check, FailedCheckTextInEveryForm) {
  using SL = std::source_location;
  const std::string name = "tensor_with_a_long_name";
  int* null = nullptr;
  // Literal messages.
  ExpectCheckText("Expects", "boom", [&](SL& at) {
    at = SL::current(); Expects(false, "boom");
  });
  ExpectCheckText("Ensures", "boom", [&](SL& at) {
    at = SL::current(); Ensures(false, "boom");
  });
  ExpectCheckText("NotNull", "boom", [&](SL& at) {
    at = SL::current(); (void)NotNull(null, "boom");
  });
  // Default messages.
  ExpectCheckText("Expects", "precondition", [&](SL& at) {
    at = SL::current(); Expects(false);
  });
  ExpectCheckText("Ensures", "invariant", [&](SL& at) {
    at = SL::current(); Ensures(false);
  });
  ExpectCheckText("NotNull", "pointer must not be null", [&](SL& at) {
    at = SL::current(); (void)NotNull(null);
  });
  // Messages built by a callable on failure; one returns a literal.
  const auto msg = [&] { return "use of unplanned tensor " + name; };
  const std::string built = "use of unplanned tensor " + name;
  ExpectCheckText("Expects", built, [&](SL& at) {
    at = SL::current(); Expects(false, msg);
  });
  ExpectCheckText("Ensures", built, [&](SL& at) {
    at = SL::current(); Ensures(false, msg);
  });
  ExpectCheckText("NotNull", built, [&](SL& at) {
    at = SL::current(); (void)NotNull(null, msg);
  });
  ExpectCheckText("Expects", "lit", [&](SL& at) {
    at = SL::current(); Expects(false, [] { return "lit"; });
  });
}

TEST(Check, CallableMessageRunsOnlyOnFailure) {
  int calls = 0;
  const auto msg = [&] {
    ++calls;
    return std::string("built");
  };
  int x = 0;
  for (int i = 0; i < 100; ++i) {
    Expects(true, msg);
    Ensures(true, msg);
    EXPECT_EQ(NotNull(&x, msg), &x);
  }
  EXPECT_EQ(calls, 0);
  EXPECT_THROW(Expects(false, msg), CheckError);
  EXPECT_EQ(calls, 1);
  EXPECT_THROW(Ensures(false, msg), CheckError);
  EXPECT_EQ(calls, 2);
  EXPECT_THROW((void)NotNull(static_cast<int*>(nullptr), msg), CheckError);
  EXPECT_EQ(calls, 3);
}

// A message built eagerly (a std::string) does not compile: only a
// literal or a callable binds, so no caller builds text on every pass.
template <class M>
concept CompilesAsMessage = requires(M m) { Expects(true, m); };
static_assert(CompilesAsMessage<const char*>);
static_assert(!CompilesAsMessage<std::string>);
static_assert(!CompilesAsMessage<const std::string&>);
static_assert(CompilesAsMessage<std::string (*)()>);

TEST(Types, ByteSizes) {
  EXPECT_EQ(ByteSize(DataType::kFloat32), 4u);
  EXPECT_EQ(ByteSize(DataType::kFloat16), 2u);
  EXPECT_EQ(ByteSize(DataType::kInt8), 1u);
  EXPECT_EQ(ByteSize(DataType::kUInt8), 1u);
  EXPECT_EQ(ByteSize(DataType::kInt32), 4u);
}

TEST(Types, QuantizedPredicate) {
  EXPECT_TRUE(IsQuantized(DataType::kInt8));
  EXPECT_TRUE(IsQuantized(DataType::kUInt8));
  EXPECT_FALSE(IsQuantized(DataType::kFloat16));
  EXPECT_FALSE(IsQuantized(DataType::kFloat32));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.NextU64() == b.NextU64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.NextBelow(0), CheckError);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.NextUniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Rng, SplitIsIndependentOfParentConsumption) {
  Rng parent(5);
  const Rng child1 = parent.Split(1);
  // Consuming the parent must not change what Split would have produced...
  Rng parent2(5);
  const Rng child2 = parent2.Split(1);
  Rng c1 = child1, c2 = child2;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c1.NextU64(), c2.NextU64());
}

TEST(Rng, SplitTagsProduceDistinctStreams) {
  const Rng parent(5);
  Rng a = parent.Split(1), b = parent.Split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.NextU64() == b.NextU64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(21);
  const auto idx = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(22);
  const auto idx = rng.SampleWithoutReplacement(10, 10);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(23);
  EXPECT_THROW(rng.SampleWithoutReplacement(5, 6), CheckError);
}

// ---- Gaussian fill (box_muller.h) ----

std::uint32_t FloatBits(float f) { return std::bit_cast<std::uint32_t>(f); }
std::uint64_t DoubleBits(double d) { return std::bit_cast<std::uint64_t>(d); }

// The scales the generators use: image and speech noise, biases, and He
// weights for a 3x3x3 stem and a 1x1 conv over 144 channels.
const double kFillScales[] = {1.0, 0.01, std::sqrt(2.0 / 27.0),
                              std::sqrt(2.0 / 144.0)};

TEST(Rng, FillGaussianF32MatchesTheNextGaussianLoop) {
  for (const std::uint64_t seed : {1ull, 7ull, 0x3Eull, 0xC0FFEEull}) {
    for (const double scale : kFillScales) {
      for (const bool cached : {false, true}) {
        for (std::size_t n = 0; n <= 67; ++n) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " scale " +
                       std::to_string(scale) + " n " + std::to_string(n) +
                       (cached ? " cached" : ""));
          Rng loop(seed), fill(seed);
          if (cached) {
            ASSERT_EQ(DoubleBits(loop.NextGaussian()),
                      DoubleBits(fill.NextGaussian()));
          }
          std::vector<float> want(n), got(n);
          for (float& v : want)
            v = static_cast<float>(loop.NextGaussian() * scale);
          fill.FillGaussianF32(got, scale);
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(FloatBits(want[i]), FloatBits(got[i])) << "at " << i;
          // The cached value and the stream position carry over.
          ASSERT_EQ(DoubleBits(loop.NextGaussian()),
                    DoubleBits(fill.NextGaussian()));
          ASSERT_EQ(loop.NextU64(), fill.NextU64());
        }
      }
    }
  }
}

// Box-Muller inputs where the fast path is weakest: θ = 2π·u2 within
// 2·10^5 steps of 2^-53 of each quadrant edge, u1 within as many steps of 1
// (log u1 near 0, u1 = 1 itself giving r = ±0) and of 0 (the largest r),
// every power of two down to 2^-53, and u2 = 0.  Each list is paired with
// seeded draws for the other input.
struct BoxMullerInputs {
  std::vector<double> u1, u2;
};

BoxMullerInputs AdversarialBoxMullerInputs(std::uint64_t seed) {
  constexpr std::int64_t kSteps = 200000;
  Rng rng(seed);
  BoxMullerInputs in;
  const auto add = [&](double u1, double u2) {
    in.u1.push_back(u1);
    in.u2.push_back(u2);
  };
  for (int edge = 0; edge <= 4; ++edge)
    for (std::int64_t j = -kSteps; j <= kSteps; ++j) {
      const double u2 = 0.25 * edge + static_cast<double>(j) * 0x1p-53;
      if (u2 >= 0.0 && u2 < 1.0) add(1.0 - rng.NextDouble(), u2);
    }
  for (std::int64_t j = 0; j < kSteps; ++j) {
    add(1.0 - static_cast<double>(j) * 0x1p-53, rng.NextDouble());
    add(static_cast<double>(j + 1) * 0x1p-53, rng.NextDouble());
  }
  for (int e = 0; e <= 53; ++e) add(std::ldexp(1.0, -e), rng.NextDouble());
  for (const double u2 : {0.0, 0.1, 0.3, 0.6, 0.9}) add(1.0, u2);
  for (int i = 0; i < 8; ++i) add(1.0 - rng.NextDouble(), 0.0);
  while (in.u1.size() % box_muller::kPairs != 0) add(0.5, 0.5);
  return in;
}

// Relative distance of the fast value from libm's; both zero counts as 0.
double RelativeError(double fast, double libm) {
  if (libm == 0.0) return fast == 0.0 ? 0.0 : 1.0;
  return std::fabs((fast - libm) / libm);
}

TEST(BoxMuller, ApproxIsWellInsideTheBracketOfLibm) {
  const BoxMullerInputs in = AdversarialBoxMullerInputs(0xB0);
  constexpr std::size_t kP = box_muller::kPairs;
  double worst = 0.0;
  for (std::size_t b = 0; b < in.u1.size(); b += kP) {
    double c[kP], s[kP];
    box_muller::Approx(std::span<const double, kP>(&in.u1[b], kP),
                       std::span<const double, kP>(&in.u2[b], kP), c, s);
    for (std::size_t l = 0; l < kP; ++l) {
      const box_muller::Pair p = box_muller::Libm(in.u1[b + l], in.u2[b + l]);
      worst = std::max({worst, RelativeError(c[l], p.cos),
                        RelativeError(s[l], p.sin)});
    }
  }
  // The bracket is 2^-40; measured about 2^-50.4 against glibc 2.36.
  EXPECT_LE(worst, 0x1p-49) << "log2 " << std::log2(worst);
}

// A scale that puts a float rounding boundary strictly between the fast
// value and libm's, so only the bracket can tell them apart; 0 if the two
// are the same double.
double StraddlingScale(double fast, double libm) {
  if (DoubleBits(fast) == DoubleBits(libm) || libm == 0.0) return 0.0;
  const double midpoint = 1.5 + 0x1p-24;  // halfway between two floats
  double scale = midpoint / std::fabs(libm);
  for (int i = 0; i < 8; ++i) scale = std::nextafter(scale, 0.0);
  for (int i = 0; i < 16; ++i, scale = std::nextafter(scale, 2.0 * scale))
    if (FloatBits(static_cast<float>(fast * scale)) !=
        FloatBits(static_cast<float>(libm * scale)))
      return scale;
  return 0.0;
}

// Every value of BlockF32 is float(Libm · scale), on the inputs above, at
// the generators' scales and at scales that make the fast value round to
// another float than libm's.
TEST(BoxMuller, BlockF32HasLibmBitsEvenWhereTheFastValueRoundsElsewhere) {
  const BoxMullerInputs in = AdversarialBoxMullerInputs(0xB1);
  constexpr std::size_t kP = box_muller::kPairs;
  std::size_t straddles = 0;
  for (std::size_t b = 0; b < in.u1.size(); b += kP) {
    const std::span<const double, kP> u1(&in.u1[b], kP), u2(&in.u2[b], kP);
    double c[kP], s[kP];
    box_muller::Approx(u1, u2, c, s);
    std::vector<double> scales(std::begin(kFillScales), std::end(kFillScales));
    for (std::size_t l = 0; l < kP; ++l) {
      const box_muller::Pair p = box_muller::Libm(u1[l], u2[l]);
      for (const double scale :
           {StraddlingScale(c[l], p.cos), StraddlingScale(s[l], p.sin)})
        if (scale != 0.0) {
          scales.push_back(scale);
          ++straddles;
        }
    }
    for (const double scale : scales) {
      float got[2 * kP];
      box_muller::BlockF32(u1, u2, scale, got);
      for (std::size_t l = 0; l < kP; ++l) {
        const box_muller::Pair p = box_muller::Libm(u1[l], u2[l]);
        ASSERT_EQ(FloatBits(got[2 * l]),
                  FloatBits(static_cast<float>(p.cos * scale)))
            << "cos, u1 " << u1[l] << " u2 " << u2[l] << " scale " << scale;
        ASSERT_EQ(FloatBits(got[2 * l + 1]),
                  FloatBits(static_cast<float>(p.sin * scale)))
            << "sin, u1 " << u1[l] << " u2 " << u2[l] << " scale " << scale;
      }
    }
  }
  // The straddling scales are what hold the bracket to its width.
  EXPECT_GE(straddles, 1000u);
}

// BlockF32 against libm on 10^9 values of the generator's own draws, on
// four threads (25-40 s on a 4-core x86 host).  Run with
// --gtest_also_run_disabled_tests --gtest_filter='*Billion*'.
TEST(BoxMuller, DISABLED_BlockF32HasLibmBitsOnABillionValues) {
  constexpr std::size_t kP = box_muller::kPairs;
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kBlocksPerThread =
      (1'000'000'000 / (2 * kP) + kThreads - 1) / kThreads;
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  std::vector<double> worst(kThreads, 0.0);
  std::vector<std::thread> workers;
  for (std::uint64_t w = 0; w < kThreads; ++w)
    workers.emplace_back([&, w] {
      Rng rng(0xB111 + w);
      for (std::uint64_t b = 0; b < kBlocksPerThread; ++b) {
        double u1[kP], u2[kP], c[kP], s[kP];
        for (std::size_t l = 0; l < kP; ++l) {
          u1[l] = 1.0 - rng.NextDouble();
          u2[l] = rng.NextDouble();
        }
        const double scale = kFillScales[b % std::size(kFillScales)];
        float got[2 * kP];
        box_muller::Approx(u1, u2, c, s);
        box_muller::BlockF32(u1, u2, scale, got);
        for (std::size_t l = 0; l < kP; ++l) {
          const box_muller::Pair p = box_muller::Libm(u1[l], u2[l]);
          worst[w] = std::max({worst[w], RelativeError(c[l], p.cos),
                               RelativeError(s[l], p.sin)});
          if (FloatBits(got[2 * l]) !=
              FloatBits(static_cast<float>(p.cos * scale)))
            ++mismatches[w];
          if (FloatBits(got[2 * l + 1]) !=
              FloatBits(static_cast<float>(p.sin * scale)))
            ++mismatches[w];
        }
      }
    });
  for (std::thread& t : workers) t.join();
  for (std::uint64_t w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[w], 0u) << "thread " << w;
    EXPECT_LE(worst[w], 0x1p-49) << "thread " << w << " log2 "
                                 << std::log2(worst[w]);
  }
}

// ---- fp16 ----

TEST(Fp16, ExactSmallIntegers) {
  for (float f : {0.0f, 1.0f, -1.0f, 2.0f, 1024.0f, -2048.0f})
    EXPECT_EQ(RoundToHalf(f), f);
}

TEST(Fp16, SignedZeroPreserved) {
  EXPECT_EQ(FloatToHalfBits(-0.0f), 0x8000u);
  EXPECT_EQ(FloatToHalfBits(0.0f), 0x0000u);
}

TEST(Fp16, OverflowGoesToInfinity) {
  EXPECT_TRUE(std::isinf(RoundToHalf(70000.0f)));
  EXPECT_TRUE(std::isinf(RoundToHalf(-70000.0f)));
  EXPECT_LT(RoundToHalf(-70000.0f), 0.0f);
}

TEST(Fp16, MaxFiniteHalf) {
  EXPECT_EQ(RoundToHalf(65504.0f), 65504.0f);
}

TEST(Fp16, NanPropagates) {
  EXPECT_TRUE(std::isnan(RoundToHalf(std::nanf(""))));
}

TEST(Fp16, SubnormalsRepresented) {
  const float tiny = 6e-8f;  // within half subnormal range
  const float rt = RoundToHalf(tiny);
  EXPECT_GT(rt, 0.0f);
  EXPECT_NEAR(rt, tiny, 6e-8f);
}

TEST(Fp16, UnderflowToZero) {
  EXPECT_EQ(RoundToHalf(1e-12f), 0.0f);
}

TEST(Fp16, RoundTripIsIdempotent) {
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const float f = static_cast<float>(rng.NextGaussian() * 10.0);
    const float once = RoundToHalf(f);
    EXPECT_EQ(RoundToHalf(once), once);
  }
}

// Property: relative rounding error of normal values <= 2^-11.
class Fp16Property : public ::testing::TestWithParam<float> {};

TEST_P(Fp16Property, RelativeErrorBounded) {
  const float f = GetParam();
  const float rt = RoundToHalf(f);
  EXPECT_LE(std::abs(rt - f), std::abs(f) * (1.0f / 2048.0f) + 1e-12f);
}

INSTANTIATE_TEST_SUITE_P(ValueGrid, Fp16Property,
                         ::testing::Values(0.001f, 0.1f, 0.5f, 0.9999f, 1.5f,
                                           3.14159f, 42.0f, 123.456f,
                                           -0.001f, -0.1f, -1.5f, -3.14159f,
                                           -42.0f, 999.9f, -999.9f,
                                           60000.0f, -60000.0f));

// ---- statistics ----

TEST(Statistics, PercentileOfSingleton) {
  const double v[] = {5.0};
  EXPECT_EQ(Percentile(v, 0.0), 5.0);
  EXPECT_EQ(Percentile(v, 90.0), 5.0);
  EXPECT_EQ(Percentile(v, 100.0), 5.0);
}

TEST(Statistics, PercentileEndpoints) {
  const double v[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile(v, 100.0), 4.0);
}

TEST(Statistics, MedianInterpolates) {
  const double v[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 2.5);
}

TEST(Statistics, PercentileUnsortedInput) {
  const double v[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 2.5);
}

TEST(Statistics, PercentileRejectsEmptyAndBadP) {
  const std::vector<double> empty;
  EXPECT_THROW((void)Percentile(empty, 50.0), CheckError);
  const double v[] = {1.0};
  EXPECT_THROW((void)Percentile(v, -1.0), CheckError);
  EXPECT_THROW((void)Percentile(v, 101.0), CheckError);
}

TEST(Statistics, PercentileOfSortedMatchesPercentile) {
  const double sorted[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 50.0), Percentile(sorted, 50.0));
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileOfSorted(sorted, 100.0), 4.0);
  EXPECT_THROW((void)PercentileOfSorted(sorted, 101.0), CheckError);
}

TEST(Statistics, PercentilesMatchIndividualCalls) {
  const double v[] = {4.0, 1.0, 3.0, 2.0, 9.0, 0.5};  // unsorted on purpose
  const double ps[] = {0.0, 50.0, 90.0, 97.0, 99.0, 100.0};
  const std::vector<double> got = Percentiles(v, ps);
  ASSERT_EQ(got.size(), 6u);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_DOUBLE_EQ(got[i], Percentile(v, ps[i])) << "p" << ps[i];
}

TEST(Statistics, PercentileSelectionMatchesSortedBitwise) {
  // Percentile and Percentiles select the order statistics they read
  // instead of sorting; every result must be the very bits
  // PercentileOfSorted reads off a full sort, also for heavy duplicates
  // and mixed-sign zeros, and for a p list that is unsorted and repeats.
  Rng rng(0x5E1EC7);
  const double kPool[] = {-0.0, 0.0, 1.0, -1.0, 0.25, 3.5};
  const double ps[] = {0.0, 0.5, 50.0, 90.0, 99.0, 100.0};
  const double shuffled_ps[] = {99.0, 0.5, 50.0, 100.0, 50.0, 0.0, 90.0,
                                99.0, 97.0, 0.5};
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (const std::size_t n : {1u, 2u, 3u, 1000u, 15000u}) {
    for (int kind = 0; kind < 4; ++kind) {
      std::vector<double> v(n);
      for (double& x : v) {
        switch (kind) {
          case 0: x = rng.NextDouble() * 2.0 - 1.0; break;  // distinct
          case 1: x = kPool[rng.NextBelow(std::size(kPool))]; break;
          case 2: x = rng.NextBelow(2) == 0 ? -0.0 : 0.0; break;
          default: x = std::floor(rng.NextDouble() * 8.0) * 1e-3; break;
        }
      }
      std::vector<double> sorted = v;
      std::sort(sorted.begin(), sorted.end());
      for (const double p : ps) {
        const double got = Percentile(v, p);
        const double want = PercentileOfSorted(sorted, p);
        EXPECT_TRUE(same_bits(got, want))
            << "n=" << n << " kind=" << kind << " p=" << p << ": " << got
            << " vs " << want;
      }
      const std::vector<double> copied = Percentiles(v, shuffled_ps);
      ASSERT_EQ(copied.size(), std::size(shuffled_ps));
      for (std::size_t i = 0; i < std::size(shuffled_ps); ++i) {
        const double want = PercentileOfSorted(sorted, shuffled_ps[i]);
        EXPECT_TRUE(same_bits(copied[i], want))
            << "n=" << n << " kind=" << kind << " p=" << shuffled_ps[i];
      }
    }
  }
}

TEST(Statistics, PercentilesOfRunsMatchConcatenation) {
  // PercentilesOfRuns returns the very bits Percentiles returns on the
  // concatenated runs, at any pool size, below 32768 values (where it
  // gathers every value) and above, where it counts buckets first and
  // gathers only the buckets that hold a rank, or every value when those
  // buckets hold nearly all of them (all equal, ties, one bucket, zeros).
  Rng rng(0x0F4E75);
  const double ps[] = {99.0, 0.0, 50.0, 100.0, 50.0, 90.0, 99.9, 0.5, 99.0};
  const double kSigned[] = {-0.0, 0.0, -1.5, -1e-300, 2.0, -7.25};
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  using Runs = std::vector<std::vector<double>>;
  // `count` runs of up to `max_len` values each; every third run is empty.
  const auto draw = [&](std::size_t count, std::size_t max_len,
                        const auto& value) {
    Runs runs(count);
    for (std::size_t r = 0; r < count; ++r) {
      if (r % 3 == 1) continue;
      runs[r].resize(1 + rng.NextBelow(max_len));
      for (double& x : runs[r]) x = value();
    }
    return runs;
  };
  const auto latency = [&] {
    return 1e-3 + rng.NextDouble() * 0.02 * double(1 + rng.NextBelow(3));
  };
  const auto ties = [&] { return std::floor(rng.NextDouble() * 8.0) * 1e-3; };
  // [1, 1 + 1/32): one bucket of the top 16 key bits.
  const auto one_bucket = [&] { return 1.0 + rng.NextDouble() / 32.0; };
  const auto signed_values = [&] {
    return rng.NextBelow(2) == 0 ? kSigned[rng.NextBelow(std::size(kSigned))]
                                 : -rng.NextDouble() * 4.0;
  };
  const auto zeros = [&] { return rng.NextBelow(2) == 0 ? -0.0 : 0.0; };
  const auto equal = [] { return 0.004; };

  std::vector<std::pair<std::string, Runs>> cases;
  cases.emplace_back("single value", Runs{{}, {0.125}, {}});
  cases.emplace_back("single negative zero", Runs{{-0.0}});
  for (const auto& [count, max_len] :
       {std::pair<std::size_t, std::size_t>{5, 40}, {64, 2000}}) {
    const std::string size = " x" + std::to_string(count);
    cases.emplace_back("latencies" + size, draw(count, max_len, latency));
    cases.emplace_back("all equal" + size, draw(count, max_len, equal));
    cases.emplace_back("heavy ties" + size, draw(count, max_len, ties));
    cases.emplace_back("one bucket" + size, draw(count, max_len, one_bucket));
    cases.emplace_back("signed" + size, draw(count, max_len, signed_values));
    cases.emplace_back("zeros" + size, draw(count, max_len, zeros));
  }
  cases.emplace_back("200 runs", draw(200, 600, latency));

  const ThreadPool one_lane(1);
  const ThreadPool four_lanes(4);
  for (const auto& [name, runs] : cases) {
    std::vector<double> concatenated;
    for (const std::vector<double>& run : runs)
      concatenated.insert(concatenated.end(), run.begin(), run.end());
    if (name.find("x64") != std::string::npos || name == "200 runs") {
      EXPECT_GT(concatenated.size(), 32768u) << name << " counts no buckets";
    }
    const std::vector<double> want = Percentiles(concatenated, ps);
    const std::vector<std::span<const double>> spans(runs.begin(),
                                                     runs.end());
    for (const ThreadPool* pool : {static_cast<const ThreadPool*>(nullptr),
                                   &one_lane, &four_lanes}) {
      const std::vector<double> got = PercentilesOfRuns(spans, ps, pool);
      ASSERT_EQ(got.size(), std::size(ps)) << name;
      for (std::size_t i = 0; i < std::size(ps); ++i)
        EXPECT_TRUE(same_bits(got[i], want[i]))
            << name << " (" << concatenated.size() << " values, "
            << (pool == nullptr ? 0 : pool->thread_count())
            << " lanes) p=" << ps[i] << ": " << got[i] << " vs " << want[i];
    }
  }

  const std::vector<std::span<const double>> no_runs;
  const std::vector<std::span<const double>> empty_runs(3);
  EXPECT_THROW((void)PercentilesOfRuns(no_runs, ps, nullptr), CheckError);
  EXPECT_THROW((void)PercentilesOfRuns(empty_runs, ps, &four_lanes),
               CheckError);
}

TEST(Statistics, PercentilesRejectEmptyInput) {
  const std::vector<double> empty;
  const double ps[] = {50.0};
  EXPECT_THROW((void)Percentiles(empty, ps), CheckError);
}

TEST(Statistics, GeometricMeanOfPowers) {
  const double v[] = {1.0, 4.0};
  EXPECT_NEAR(GeometricMean(v), 2.0, 1e-12);
}

TEST(Statistics, GeometricMeanRejectsNonPositive) {
  const double v[] = {1.0, 0.0};
  EXPECT_THROW((void)GeometricMean(v), CheckError);
}

// Property: percentile is monotone in p.
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v(101);
  for (auto& x : v) x = rng.NextDouble() * 100.0;
  double prev = -1.0;
  for (double p = 0.0; p <= 100.0; p += 5.0) {
    const double q = Percentile(v, p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Range(1, 11));

// ---- table ----


TEST(BarChart, ScalesToMaxValue) {
  BarChart c("t", "ms");
  c.Add("a", 10.0);
  c.Add("b", 5.0);
  const std::string out = c.Render(10);
  EXPECT_NE(out.find(std::string(10, '#')), std::string::npos);
  EXPECT_NE(out.find(std::string(5, '#') + " 5.00 ms"), std::string::npos);
}

TEST(BarChart, TinyNonZeroValueStillVisible) {
  BarChart c("", "");
  c.Add("big", 1000.0);
  c.Add("tiny", 0.001);
  const std::string out = c.Render(20);
  // Tiny bars render a "||" marker rather than vanishing entirely.
  EXPECT_NE(out.find("tiny || 0.00"), std::string::npos);
}

TEST(BarChart, RejectsNegativeValues) {
  BarChart c("", "");
  EXPECT_THROW(c.Add("x", -1.0), CheckError);
}

TEST(BarChart, GapInsertsBlankLine) {
  BarChart c("", "");
  c.Add("a", 1.0);
  c.AddGap();
  c.Add("b", 1.0);
  const std::string out = c.Render(8);
  EXPECT_NE(out.find("\n\n"), std::string::npos);
}

TEST(Table, RendersHeaderAndRows) {
  TextTable t("title");
  t.SetHeader({"a", "bb"});
  t.AddRow({"1", "2"});
  const std::string s = t.Render();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| 1 "), std::string::npos);
}

TEST(Table, PadsRaggedRows) {
  TextTable t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"only-one"});
  EXPECT_NO_THROW((void)t.Render());
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatMs(0.00223), "2.23 ms");
  EXPECT_EQ(FormatPercent(0.985, 1), "98.5%");
}

}  // namespace
}  // namespace mlpm
