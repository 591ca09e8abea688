// Runtime kernel dispatch (DESIGN.md §13): the registry's feature probe,
// ISA resolution and fallback; the exactness contract of every table the
// host can run (the reassociating f32 entries within a documented tolerance
// of the scalar oracle, the scalar-order entries bit for bit, the conv
// block entry bit for bit against its own table's dot4); and the
// harness-level guarantee that a forced ISA flows through RunOptions into
// the executors, the result fields and the RUN007 pre-run lint.
//
// The CI matrix runs this binary with MLPM_KERNEL_ISA=scalar and =auto
// (and under an -mavx2 build); the env var picks the dispatched side of
// the harness comparison so sanitizers sweep every table.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fp16.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "harness/run_session.h"
#include "infer/executor.h"
#include "infer/kernels/registry.h"
#include "infer/weights.h"
#include "models/mobilenet_edgetpu.h"
#include "models/zoo.h"

namespace mlpm {
namespace {

using infer::kernels::CpuFeatures;
using infer::kernels::KernelIsa;
using infer::kernels::KernelRegistry;
using infer::kernels::KernelTable;

// --- registry ---------------------------------------------------------------

TEST(KernelRegistry, ParseAndToStringRoundTrip) {
  for (const KernelIsa isa : {KernelIsa::kAuto, KernelIsa::kScalar,
                              KernelIsa::kAvx2, KernelIsa::kNeon}) {
    const auto back =
        infer::kernels::ParseKernelIsa(infer::kernels::ToString(isa));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, isa);
  }
  EXPECT_FALSE(infer::kernels::ParseKernelIsa("sse9").has_value());
  EXPECT_FALSE(infer::kernels::ParseKernelIsa("").has_value());
  EXPECT_FALSE(infer::kernels::ParseKernelIsa("AVX2").has_value());
}

TEST(KernelRegistry, ScalarIsAlwaysAvailable) {
  const KernelRegistry none(CpuFeatures{});
  EXPECT_TRUE(none.Available(KernelIsa::kAuto));
  EXPECT_TRUE(none.Available(KernelIsa::kScalar));
  EXPECT_FALSE(none.Available(KernelIsa::kAvx2));
  EXPECT_FALSE(none.Available(KernelIsa::kNeon));
}

TEST(KernelRegistry, AutoOnFeaturelessHostResolvesToScalar) {
  const KernelRegistry none(CpuFeatures{});
  EXPECT_EQ(none.Resolve(KernelIsa::kAuto), KernelIsa::kScalar);
  EXPECT_EQ(none.Select(KernelIsa::kAuto).isa, KernelIsa::kScalar);
}

TEST(KernelRegistry, ForcedUnavailableIsaFallsBackToScalar) {
  const KernelRegistry none(CpuFeatures{});
  EXPECT_EQ(none.Resolve(KernelIsa::kAvx2), KernelIsa::kScalar);
  EXPECT_EQ(none.Resolve(KernelIsa::kNeon), KernelIsa::kScalar);
  EXPECT_EQ(none.Select(KernelIsa::kAvx2).isa, KernelIsa::kScalar);
}

TEST(KernelRegistry, FeatureBitAloneIsNotEnough) {
  // A CPU feature without the matching compiled-in table (or vice versa)
  // must not select a missing kernel: availability is probe AND table.
  CpuFeatures f;
  f.avx2 = true;
  f.neon = true;
  const KernelRegistry reg(f);
#if defined(MLPM_KERNELS_HAVE_AVX2)
  EXPECT_TRUE(reg.Available(KernelIsa::kAvx2));
  EXPECT_EQ(reg.Resolve(KernelIsa::kAuto), KernelIsa::kAvx2);
  EXPECT_EQ(reg.Select(KernelIsa::kAvx2).isa, KernelIsa::kAvx2);
#else
  EXPECT_FALSE(reg.Available(KernelIsa::kAvx2));
  EXPECT_EQ(reg.Resolve(KernelIsa::kAvx2), KernelIsa::kScalar);
#endif
#if defined(MLPM_KERNELS_HAVE_NEON) && defined(__aarch64__)
  EXPECT_TRUE(reg.Available(KernelIsa::kNeon));
#else
  EXPECT_FALSE(reg.Available(KernelIsa::kNeon));
#endif
}

TEST(KernelRegistry, GlobalNeverResolvesToAuto) {
  const KernelRegistry& reg = KernelRegistry::Global();
  const KernelIsa resolved = reg.Resolve(KernelIsa::kAuto);
  EXPECT_NE(resolved, KernelIsa::kAuto);
  EXPECT_TRUE(reg.Available(resolved));
}

TEST(KernelRegistry, AvailableIsasEndsWithScalar) {
  const std::vector<KernelIsa> isas = KernelRegistry::Global().AvailableIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.back(), KernelIsa::kScalar);
  for (const KernelIsa isa : isas)
    EXPECT_TRUE(KernelRegistry::Global().Available(isa));
}

// --- exactness contract -----------------------------------------------------

// The vectorized f32 kernels reassociate and contract (FMA): the contract is
// closeness to the scalar oracle, not bit-equality.  Lengths straddle every
// SIMD width and remainder path.
TEST(KernelDispatch, Dot4AndDwMaddWithinToleranceOnEveryTable) {
  const KernelTable& oracle = infer::kernels::ScalarKernels();
  Rng rng(0xD4);
  const auto random = [&](std::size_t n) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    return v;
  };
  for (const KernelIsa isa : KernelRegistry::Global().AvailableIsas()) {
    const KernelTable& table = KernelRegistry::Global().Select(isa);
    for (int trial = 0; trial < 24; ++trial) {
      const auto len = static_cast<std::int64_t>(1 + rng.NextBelow(200));
      const auto n = static_cast<std::size_t>(len);
      const std::vector<float> x = random(n);
      const std::vector<float> w = random(4 * n);
      const std::vector<float> bias = random(n);
      // |x|, |w| <= 1, so each sum is bounded by len.
      const double tol = 1e-5 * static_cast<double>(len);
      float want[4] = {0.5f, -0.25f, 0.0f, 1.0f};
      float got[4] = {0.5f, -0.25f, 0.0f, 1.0f};
      oracle.dot4_f32(x.data(), &w[0], &w[n], &w[2 * n], &w[3 * n], len,
                      want);
      table.dot4_f32(x.data(), &w[0], &w[n], &w[2 * n], &w[3 * n], len, got);
      for (int r = 0; r < 4; ++r)
        EXPECT_NEAR(want[r], got[r], tol)
            << infer::kernels::ToString(isa) << " dot4 len=" << len;

      std::vector<float> acc_want = bias;
      std::vector<float> acc_got = bias;
      oracle.dw_madd_f32(x.data(), w.data(), acc_want.data(), len);
      table.dw_madd_f32(x.data(), w.data(), acc_got.data(), len);
      for (std::size_t c = 0; c < n; ++c)
        EXPECT_NEAR(acc_want[c], acc_got[c], 1e-6)
            << infer::kernels::ToString(isa) << " dw_madd c=" << c;
    }
  }
}

// --- scalar-order entries ---------------------------------------------------

float FromBits(std::uint32_t bits) { return std::bit_cast<float>(bits); }
std::uint32_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// Elementwise-entry inputs: the edge cases of FP16 rounding and of the
// fake-quant grid, then seeded values (random bit patterns included, so
// every exponent and NaN class shows up).
std::vector<float> ElementwiseEdgeInputs(std::uint64_t seed) {
  std::vector<float> v = {
      0.0f, -0.0f,
      FromBits(0x00000001u), FromBits(0x80000001u),  // f32 subnormals
      FromBits(0x007FFFFFu), FromBits(0x80400000u),
      std::ldexp(1.0f, -25), -std::ldexp(1.0f, -25),  // 2^-25 and neighbours
      std::nextafter(std::ldexp(1.0f, -25), 0.0f),
      std::nextafter(std::ldexp(1.0f, -25), 1.0f),
      3.0f * std::ldexp(1.0f, -25),                    // subnormal halfway
      1.0f + std::ldexp(1.0f, -11),                    // RNE ties to even
      1.0f + 3.0f * std::ldexp(1.0f, -11),
      -(1.0f + std::ldexp(1.0f, -11)),
      2048.0f + 1.0f, 2048.0f + 3.0f,                  // ties at ulp 2
      65504.0f, -65504.0f, 65519.99f, 65520.0f, -65520.0f, 1e6f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      FromBits(0x7FC00000u), FromBits(0xFFC00000u),    // quiet NaNs
      FromBits(0x7FC12345u), FromBits(0xFFD00001u),    // ... with payloads
      FromBits(0x7F800001u), FromBits(0xFF812345u),    // signalling NaNs
      FromBits(0x7FA00000u)};
  Rng rng(seed);
  for (int i = 0; i < 2048; ++i)
    v.push_back(
        FromBits(static_cast<std::uint32_t>(rng.NextBelow(1ull << 32))));
  for (int i = 0; i < 2048; ++i)
    v.push_back(static_cast<float>(rng.NextUniform(-70000.0, 70000.0)));
  for (int i = 0; i < 1027; ++i)
    v.push_back(static_cast<float>(rng.NextUniform(-4.0, 4.0)));
  return v;
}

// Runs `entry` of `table` and of the scalar table on `in` — whole, and at
// every short length (so each vector tail path runs) — and compares bits.
template <typename Entry>
void ExpectSameBitsAsScalar(const KernelTable& table,
                            const std::vector<float>& in, const Entry& entry,
                            const char* what) {
  const KernelTable& oracle = infer::kernels::ScalarKernels();
  const auto check = [&](std::size_t offset, std::size_t n) {
    std::vector<float> want(in.begin() + static_cast<std::ptrdiff_t>(offset),
                            in.begin() +
                                static_cast<std::ptrdiff_t>(offset + n));
    std::vector<float> got = want;
    entry(oracle, want.data(), static_cast<std::int64_t>(n));
    entry(table, got.data(), static_cast<std::int64_t>(n));
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(Bits(want[i]), Bits(got[i]))
          << table.name << " " << what << " input bits 0x" << std::hex
          << Bits(in[offset + i]) << std::dec << " (n=" << n << ")";
  };
  check(0, in.size());
  for (std::size_t n = 0; n <= 19; ++n)
    for (std::size_t offset = 0; offset + n <= 40; offset += 7)
      check(offset, n);
}

TEST(KernelDispatch, RoundHalfIsBitExactOnEveryTable) {
  const std::vector<float> in = ElementwiseEdgeInputs(0xF16);
  // The scalar entry is RoundToHalf, element for element.
  std::vector<float> v = in;
  infer::kernels::ScalarKernels().round_half_f32(
      v.data(), static_cast<std::int64_t>(v.size()));
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_EQ(Bits(v[i]), Bits(RoundToHalf(in[i]))) << i;
  for (const KernelIsa isa : KernelRegistry::Global().AvailableIsas())
    ExpectSameBitsAsScalar(
        KernelRegistry::Global().Select(isa), in,
        [](const KernelTable& t, float* p, std::int64_t n) {
          t.round_half_f32(p, n);
        },
        "round_half_f32");
}

TEST(KernelDispatch, FakeQuantIsBitExactOnEveryTable) {
  struct Grid {
    float scale, zp, qmax;
  };
  // A power-of-two scale makes quotients of exactly +-k.5; zp -0.0 is what
  // a range with min 0 produces; 4-bit and 8-bit qmax.
  const Grid grids[] = {{0.25f, 0.0f, 255.0f},
                        {0.25f, -0.0f, 255.0f},
                        {0.25f, 128.0f, 255.0f},
                        {0.0117647f, 37.0f, 255.0f},
                        {0.3f, 5.0f, 15.0f},
                        {1e-30f, 0.0f, 255.0f}};
  std::vector<float> in = ElementwiseEdgeInputs(0xFA4E);
  for (int k = -300; k <= 300; ++k) {
    in.push_back((static_cast<float>(k) + 0.5f) * 0.25f);   // quotient k.5
    in.push_back(static_cast<float>(k) * 0.25f);            // exact ints
  }
  for (const Grid& g : grids)
    for (const KernelIsa isa : KernelRegistry::Global().AvailableIsas())
      ExpectSameBitsAsScalar(
          KernelRegistry::Global().Select(isa), in,
          [&](const KernelTable& t, float* p, std::int64_t n) {
            t.fake_quant_f32(p, n, g.scale, g.zp, g.qmax);
          },
          "fake_quant_f32");
}

TEST(KernelDispatch, MatmulIsBitExactOnEveryTable) {
  const KernelTable& oracle = infer::kernels::ScalarKernels();
  Rng rng(0x3A7);
  const auto fill = [&](std::vector<float>& v) {
    for (auto& x : v) {
      const std::uint64_t pick = rng.NextBelow(16);
      x = pick == 0   ? -0.0f
          : pick == 1 ? FromBits(0x00000003u)
          : pick == 2 ? static_cast<float>(rng.NextUniform(-1e4, 1e4))
                      : static_cast<float>(rng.NextUniform(-1.0, 1.0));
    }
  };
  // m % 4 != 0, n % 8 != 0 and k = 1 all appear, and leading dimensions
  // wider than the row so strided operands are read correctly.
  for (const std::int64_t m : {1, 3, 4, 5, 8, 13})
    for (const std::int64_t n : {1, 7, 8, 9, 16, 23})
      for (const std::int64_t k : {1, 2, 7, 16, 48}) {
        const std::int64_t lda = k + 3, ldb = n + 5, ldc = n + 2;
        std::vector<float> a(static_cast<std::size_t>(m * lda));
        std::vector<float> b(static_cast<std::size_t>(k * ldb));
        fill(a);
        fill(b);
        std::vector<float> want(static_cast<std::size_t>(m * ldc), 7.0f);
        oracle.matmul_f32(a.data(), lda, b.data(), ldb, want.data(), ldc, m,
                          n, k);
        for (const KernelIsa isa : KernelRegistry::Global().AvailableIsas()) {
          const KernelTable& table = KernelRegistry::Global().Select(isa);
          std::vector<float> got(want.size(), 7.0f);
          table.matmul_f32(a.data(), lda, b.data(), ldb, got.data(), ldc, m,
                           n, k);
          for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(Bits(want[i]), Bits(got[i]))
                << table.name << " matmul m=" << m << " n=" << n
                << " k=" << k << " at " << i;
        }
      }
}

// conv_block_f32 is defined by its own table's dot4_f32: on every table its
// outputs are the bits of one dot4 call per present tap, in tap order, on
// an accumulator that starts at the bias.  Lengths straddle the 8-lane
// width (the AVX2 body pairs positions only at len % 8 == 0), tap counts
// reach a 5x5 kernel, either position may miss taps (all of them, too) or
// be absent.  A quarter of the cases mix in +-0, subnormals and +-inf, and
// a quarter NaNs with payloads too.  An output that is NaN must be NaN on
// both sides, but its payload is not compared: where two NaNs meet, x86
// keeps the first source operand's, and GCC commutes the operands of a
// vector add or an FMA's factors as register allocation suits it (the
// compiled Dot4F32Avx2 itself orders its four sums differently), so no
// source order pins it.  Outputs past oc4, and position 1's when it is
// absent, must stay untouched.
TEST(KernelDispatch, ConvBlockIsBitExactToItsTablesDot4) {
  const float kEdges[] = {0.0f,
                          -0.0f,
                          FromBits(0x00000001u),
                          FromBits(0x807FFFFFu),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          FromBits(0x7FC12345u),
                          FromBits(0xFFD00001u),
                          FromBits(0x7F800001u),
                          FromBits(0xFFA00000u)};
  constexpr float kUntouched = 7.0f;
  Rng rng(0xC0B1);
  for (int trial = 0; trial < 560; ++trial) {
    const std::int64_t len = 1 + trial % 40;
    const std::int64_t ntaps = 1 + trial % 25;
    const std::int64_t oc4 = 4 * (1 + trial % 8);
    const int nulls = trial % 7;  // the null pattern, below
    // How many of kEdges may appear: none, the non-NaN ones, all.
    const std::size_t edges = trial < 280   ? 0
                              : trial < 420 ? 6
                                            : std::size(kEdges);
    const auto value = [&] {
      const std::uint64_t pick = rng.NextBelow(48);
      return pick < edges ? kEdges[pick]
                          : static_cast<float>(rng.NextUniform(-1.0, 1.0));
    };
    // A weight row per channel: ntaps slices of len, then some padding.
    const std::int64_t wstride =
        ntaps * len + static_cast<std::int64_t>(rng.NextBelow(4));
    std::vector<std::int64_t> woff(static_cast<std::size_t>(ntaps));
    for (std::int64_t t = 0; t < ntaps; ++t)
      woff[static_cast<std::size_t>(t)] = t * len;
    std::vector<float> w(static_cast<std::size_t>(oc4 * wstride));
    std::vector<float> bias(static_cast<std::size_t>(oc4));
    std::vector<float> xs(static_cast<std::size_t>(2 * ntaps * len));
    for (auto* v : {&w, &bias, &xs})
      for (float& f : *v) f = value();
    // 0: every tap present; 1/2/3: random nulls on position 0/1/both;
    // 4/5: position 0/1 all null; 6: position 1 absent.
    std::vector<const float*> taps[2];
    for (int p = 0; p < 2; ++p)
      for (std::int64_t t = 0; t < ntaps; ++t) {
        const bool random_null = (nulls == 1 + p || nulls == 3) &&
                                 rng.NextBelow(3) == 0;
        const bool all_null = nulls == 4 + p;
        taps[p].push_back(random_null || all_null
                              ? nullptr
                              : &xs[static_cast<std::size_t>(
                                    (p * ntaps + t) * len)]);
      }
    const float* const* x1 = nulls == 6 ? nullptr : taps[1].data();

    for (const KernelIsa isa : KernelRegistry::Global().AvailableIsas()) {
      const KernelTable& table = KernelRegistry::Global().Select(isa);
      std::vector<float> got[2];
      for (auto& g : got)
        g.assign(static_cast<std::size_t>(oc4 + 4), kUntouched);
      table.conv_block_f32(taps[0].data(), x1, woff.data(), ntaps, w.data(),
                           wstride, len, oc4, bias.data(), got[0].data(),
                           got[1].data());
      for (int p = 0; p < 2; ++p) {
        std::vector<float> want(got[p].size(), kUntouched);
        if (p == 0 || x1 != nullptr)
          for (std::int64_t oc = 0; oc < oc4; oc += 4) {
            float acc[4];
            std::copy_n(&bias[static_cast<std::size_t>(oc)], 4, acc);
            for (std::int64_t t = 0; t < ntaps; ++t) {
              const float* x = taps[p][static_cast<std::size_t>(t)];
              if (x == nullptr) continue;
              const float* w0 = &w[static_cast<std::size_t>(
                  oc * wstride + woff[static_cast<std::size_t>(t)])];
              table.dot4_f32(x, w0, w0 + wstride, w0 + 2 * wstride,
                             w0 + 3 * wstride, len, acc);
            }
            std::copy_n(acc, 4, &want[static_cast<std::size_t>(oc)]);
          }
        for (std::size_t i = 0; i < want.size(); ++i)
          if (!std::isnan(want[i]) || !std::isnan(got[p][i])) {
            ASSERT_EQ(Bits(want[i]), Bits(got[p][i]))
                << table.name << " conv_block len=" << len << " ntaps=" << ntaps
                << " oc4=" << oc4 << " nulls=" << nulls
                << " edges=" << edges << " position " << p << " output "
                << i;
          }
      }
    }
  }
}

// A one-node attention graph runs every matmul shape the op makes (four
// projections, Q.K^T, P.V) plus softmax; every table must give the scalar
// table's bits, at each numerics mode.
TEST(KernelDispatch, AttentionNodeIsBitIdenticalAtScalarAndAuto) {
  constexpr std::int64_t kSeq = 19, kHeads = 3, kHeadDim = 12;
  graph::GraphBuilder b("attention");
  const graph::TensorId x = b.Input("x", {kSeq, kHeads * kHeadDim});
  const graph::TensorId y = b.MultiHeadAttention(x, kHeads, kHeadDim, "att");
  b.MarkOutput(y);
  const graph::Graph g = std::move(b).Build();
  const infer::WeightStore w = infer::InitializeWeights(g, 11);
  infer::Tensor input(g.tensor(x).shape);
  Rng rng(17);
  for (auto& v : input.values())
    v = static_cast<float>(rng.NextUniform(-2.0, 2.0));
  const std::vector<infer::Tensor> inputs{input};
  infer::QuantParams qp;
  qp.activation_ranges[y] = infer::TensorRange{-0.7f, 1.3f};

  for (const infer::NumericsMode mode :
       {infer::NumericsMode::kFp32, infer::NumericsMode::kFp16,
        infer::NumericsMode::kInt8}) {
    const infer::Executor scalar(g, w, mode, &qp, KernelIsa::kScalar);
    const infer::Executor autod(g, w, mode, &qp, KernelIsa::kAuto);
    infer::ExecutionContext sctx(scalar);
    const std::vector<infer::Tensor> want = scalar.Run(inputs, sctx);
    for (const infer::Executor* e : {&scalar, &autod}) {
      infer::ExecutionContext ctx(*e);
      const std::vector<infer::Tensor> got = e->Run(inputs, ctx);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < want[0].size(); ++i)
        ASSERT_EQ(Bits(want[0].at(i)), Bits(got[0].at(i)))
            << infer::ToString(mode) << " " << e->kernels().name << " at "
            << i;
    }
  }
}

// --- executor ---------------------------------------------------------------

// Forced-scalar and dispatched executors over a real model (conv +
// depthwise + FC): same graph, same weights, outputs within f32 tolerance,
// and the executor reports the table it actually used plus non-zero
// dispatch counts for every kernel class the model contains.
TEST(KernelDispatch, ExecutorScalarVsAutoWithinTolerance) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor scalar(g, w, infer::NumericsMode::kFp32, nullptr,
                               KernelIsa::kScalar);
  const infer::Executor autod(g, w, infer::NumericsMode::kFp32, nullptr,
                              KernelIsa::kAuto);
  EXPECT_EQ(scalar.kernel_isa(), KernelIsa::kScalar);
  EXPECT_EQ(autod.kernel_isa(),
            KernelRegistry::Global().Resolve(KernelIsa::kAuto));

  infer::Tensor input(g.tensor(g.input_ids()[0]).shape);
  Rng rng(3);
  for (auto& v : input.values()) v = static_cast<float>(rng.NextDouble());
  const std::vector<infer::Tensor> inputs{input};
  const auto out_s = scalar.Run(inputs);
  const auto out_a = autod.Run(inputs);
  ASSERT_EQ(out_s.size(), out_a.size());
  for (std::size_t o = 0; o < out_s.size(); ++o) {
    ASSERT_EQ(out_s[o].size(), out_a[o].size());
    for (std::size_t i = 0; i < out_s[o].size(); ++i)
      EXPECT_NEAR(out_s[o].at(i), out_a[o].at(i), 5e-3) << "o=" << o
                                                        << " i=" << i;
  }

  const infer::KernelDispatchCounts counts = autod.dispatch_counts();
  EXPECT_GT(counts.conv2d, 0u);
  EXPECT_GT(counts.depthwise_conv2d, 0u);
  EXPECT_GT(counts.fully_connected, 0u);
}

// With the scalar table forced, the dispatched executor must reproduce the
// pre-registry arithmetic order — bit-identical to the default-constructed
// executor's output.
TEST(KernelDispatch, ForcedScalarExecutorIsBitIdenticalToItself) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor a(g, w, infer::NumericsMode::kFp32, nullptr,
                          KernelIsa::kScalar);
  const infer::Executor b(g, w, infer::NumericsMode::kFp32, nullptr,
                          KernelIsa::kScalar);
  infer::Tensor input(g.tensor(g.input_ids()[0]).shape);
  Rng rng(5);
  for (auto& v : input.values()) v = static_cast<float>(rng.NextDouble());
  const std::vector<infer::Tensor> inputs{input};
  const auto out_a = a.Run(inputs);
  const auto out_b = b.Run(inputs);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t o = 0; o < out_a.size(); ++o)
    for (std::size_t i = 0; i < out_a[o].size(); ++i)
      EXPECT_EQ(out_a[o].at(i), out_b[o].at(i));
}

// --- harness ----------------------------------------------------------------

// The CI matrix exports MLPM_KERNEL_ISA to sweep the dispatched side of
// this comparison; unset or "auto" exercises the default dispatch path.
KernelIsa DispatchedIsaUnderTest() {
  const char* env = std::getenv("MLPM_KERNEL_ISA");
  if (env == nullptr) return KernelIsa::kAuto;
  const auto isa = infer::kernels::ParseKernelIsa(env);
  return isa.value_or(KernelIsa::kAuto);
}

TEST(KernelDispatch, HarnessScalarVsDispatchedAccuracyAgree) {
  const soc::ChipsetDesc chipset = soc::CatalogV10().front();
  harness::SuiteBundles bundles;

  harness::RunOptions base;
  base.run_performance = false;
  base.run_offline = false;
  base.cooldown_s = 0.0;

  harness::RunOptions scalar = base;
  scalar.kernel_isa = KernelIsa::kScalar;
  const harness::SubmissionResult rs = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, scalar);

  harness::RunOptions dispatched = base;
  dispatched.kernel_isa = DispatchedIsaUnderTest();
  const harness::SubmissionResult rd = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, dispatched);

  const std::string resolved(infer::kernels::ToString(
      KernelRegistry::Global().Resolve(dispatched.kernel_isa)));
  ASSERT_EQ(rs.tasks.size(), rd.tasks.size());
  for (std::size_t i = 0; i < rs.tasks.size(); ++i) {
    const harness::TaskRunResult& a = rs.tasks[i];
    const harness::TaskRunResult& b = rd.tasks[i];
    EXPECT_EQ(a.kernel_isa, "scalar") << a.entry.id;
    EXPECT_EQ(b.kernel_isa, resolved) << b.entry.id;
    // Kernel tables change f32 rounding, not model quality: the scored
    // accuracy must agree closely and the quality gate identically.
    EXPECT_NEAR(a.accuracy, b.accuracy, 0.05) << a.entry.id;
    EXPECT_NEAR(a.ratio_to_fp32, b.ratio_to_fp32, 0.05) << a.entry.id;
    EXPECT_EQ(a.quality_passed, b.quality_passed) << a.entry.id;
    EXPECT_EQ(a.lint_error_count, 0u) << a.entry.id << "\n" << a.lint_log;
  }
}

TEST(KernelDispatch, ForcedUnavailableIsaLintsRun007AndFallsBack) {
  const KernelRegistry& reg = KernelRegistry::Global();
  // Whichever SIMD ISA this host lacks (x86 lacks NEON, ARM lacks AVX2;
  // a host with both compiled in and present cannot run this check).
  KernelIsa missing = KernelIsa::kAuto;
  for (const KernelIsa isa : {KernelIsa::kNeon, KernelIsa::kAvx2})
    if (!reg.Available(isa)) missing = isa;
  if (missing == KernelIsa::kAuto) GTEST_SKIP() << "every ISA is available";

  const soc::ChipsetDesc chipset = soc::CatalogV10().front();
  harness::SuiteBundles bundles;
  harness::RunOptions opts;
  opts.run_performance = false;
  opts.run_offline = false;
  opts.cooldown_s = 0.0;
  opts.kernel_isa = missing;
  const harness::SubmissionResult r = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, opts);
  ASSERT_FALSE(r.tasks.empty());
  for (const harness::TaskRunResult& t : r.tasks) {
    EXPECT_EQ(t.kernel_isa, "scalar") << t.entry.id;
    EXPECT_GE(t.lint_error_count, 1u) << t.entry.id;
    EXPECT_NE(t.lint_log.find("RUN007"), std::string::npos)
        << t.entry.id << "\n" << t.lint_log;
    // Report mode: the diagnostic is recorded but the task still runs.
    EXPECT_GT(t.accuracy_sample_count, 0u) << t.entry.id;
  }
}

}  // namespace
}  // namespace mlpm
