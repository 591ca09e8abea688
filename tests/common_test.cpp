// Unit + property tests for src/common: rng, fp16, statistics, table, check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "common/check.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/barchart.h"
#include "common/table.h"
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
      std::vector<double> permuted = v;
      const std::vector<double> in_place =
          PercentilesInPlace(permuted, shuffled_ps);
      ASSERT_EQ(copied.size(), std::size(shuffled_ps));
      ASSERT_EQ(in_place.size(), std::size(shuffled_ps));
      for (std::size_t i = 0; i < std::size(shuffled_ps); ++i) {
        const double want = PercentileOfSorted(sorted, shuffled_ps[i]);
        EXPECT_TRUE(same_bits(copied[i], want))
            << "n=" << n << " kind=" << kind << " p=" << shuffled_ps[i];
        EXPECT_TRUE(same_bits(in_place[i], want))
            << "n=" << n << " kind=" << kind << " p=" << shuffled_ps[i];
      }
      // Selecting in place only reorders: the same multiset remains.
      std::sort(permuted.begin(), permuted.end());
      EXPECT_EQ(permuted, sorted) << "n=" << n << " kind=" << kind;
    }
  }
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
