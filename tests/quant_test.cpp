// Tests for PTQ calibration, fake quantization and the calibration-set
// legality check (paper §5.1).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datasets/calibration_set.h"
#include "datasets/superres_dataset.h"
#include "infer/executor.h"
#include "infer/weights.h"
#include "quant/calibration.h"
#include "quant/rules.h"

namespace mlpm::quant {
namespace {

using graph::Activation;
using graph::GraphBuilder;
using graph::TensorId;
using graph::TensorShape;
using infer::Tensor;

graph::Graph TinyNet() {
  GraphBuilder b("tiny");
  TensorId x = b.Input("in", {1, 4, 4, 2});
  x = b.Conv2d(x, 4, 3, 1, Activation::kRelu);
  x = b.GlobalAvgPool(x);
  x = b.Reshape(x, {1, 4});
  x = b.FullyConnected(x, 3);
  b.MarkOutput(x);
  return std::move(b).Build();
}

std::vector<CalibrationSample> MakeSamples(const graph::Graph& g, int n,
                                           std::uint64_t seed) {
  std::vector<CalibrationSample> samples;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Tensor t(g.tensor(g.input_ids()[0]).shape);
    for (auto& v : t.values())
      v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    CalibrationSample s;
    s.push_back(std::move(t));
    samples.push_back(std::move(s));
  }
  return samples;
}

TEST(FakeQuant, ZeroIsExactlyRepresentable) {
  const infer::TensorRange r{-0.37f, 1.11f};
  EXPECT_EQ(infer::FakeQuantActivation(0.0f, r, 8), 0.0f);
}

TEST(FakeQuant, DegenerateRangePassesThrough) {
  const infer::TensorRange r{0.0f, 0.0f};
  EXPECT_EQ(infer::FakeQuantActivation(1.234f, r, 8), 1.234f);
}

TEST(FakeQuant, ClampsOutOfRangeValues) {
  const infer::TensorRange r{0.0f, 1.0f};
  EXPECT_LE(infer::FakeQuantActivation(5.0f, r, 8), 1.0f + 1e-4f);
  EXPECT_GE(infer::FakeQuantActivation(-5.0f, r, 8), -1e-4f);
}

TEST(FakeQuant, ErrorBoundedByHalfStep) {
  const infer::TensorRange r{-2.0f, 2.0f};
  const float step = 4.0f / 255.0f;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.NextUniform(-2.0, 2.0));
    const float q = infer::FakeQuantActivation(v, r, 8);
    EXPECT_LE(std::abs(q - v), step / 2 + 1e-6f);
  }
}

TEST(FakeQuant, MoreBitsLessError) {
  const infer::TensorRange r{-1.0f, 1.0f};
  Rng rng(6);
  double err8 = 0.0, err4 = 0.0;
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    err8 += std::abs(infer::FakeQuantActivation(v, r, 8) - v);
    err4 += std::abs(infer::FakeQuantActivation(v, r, 4) - v);
  }
  EXPECT_LT(err8, err4);
}

TEST(Calibration, RecordsRangesForAllActivations) {
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const auto samples = MakeSamples(g, 8, 11);
  const infer::QuantParams qp = CalibratePtq(g, w, samples);
  // Every node output should have a range (4 nodes).
  EXPECT_EQ(qp.activation_ranges.size(), g.nodes().size());
}

TEST(Calibration, MinMaxCoversObservedValues) {
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const auto samples = MakeSamples(g, 8, 11);
  const infer::QuantParams qp = CalibratePtq(g, w, samples);

  // Re-run one calibration sample and verify outputs fall inside ranges.
  const infer::Executor fp32(g, w);
  infer::ExecutionContext ctx(fp32);
  (void)fp32.Run(samples[0], ctx, [&](graph::TensorId id, const Tensor& t) {
    const auto it = qp.activation_ranges.find(id);
    ASSERT_NE(it, qp.activation_ranges.end());
    for (float v : t.values()) {
      EXPECT_GE(v, it->second.min - 1e-6f);
      EXPECT_LE(v, it->second.max + 1e-6f);
    }
  });
}

TEST(Calibration, MoreSamplesWidenMinMaxRanges) {
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const auto few = MakeSamples(g, 2, 11);
  const auto many = MakeSamples(g, 32, 11);
  const infer::QuantParams qa = CalibratePtq(g, w, few);
  const infer::QuantParams qb = CalibratePtq(g, w, many);
  for (const auto& [id, ra] : qa.activation_ranges) {
    const auto& rb = qb.activation_ranges.at(id);
    EXPECT_LE(rb.min, ra.min + 1e-6f);
    EXPECT_GE(rb.max, ra.max - 1e-6f);
  }
}

TEST(Calibration, MovingAverageNarrowerThanMinMax) {
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const auto samples = MakeSamples(g, 32, 11);
  const infer::QuantParams mm = CalibratePtq(g, w, samples);
  CalibrationConfig cc;
  cc.method = RangeMethod::kMovingAverage;
  const infer::QuantParams ema = CalibratePtq(g, w, samples, cc);
  double mm_width = 0.0, ema_width = 0.0;
  for (const auto& [id, r] : mm.activation_ranges) {
    mm_width += r.max - r.min;
    const auto& e = ema.activation_ranges.at(id);
    ema_width += e.max - e.min;
  }
  EXPECT_LE(ema_width, mm_width + 1e-9);
}

TEST(Calibration, EmptySampleSetRejected) {
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const std::vector<CalibrationSample> empty;
  EXPECT_THROW((void)CalibratePtq(g, w, empty), CheckError);
}

TEST(Calibration, Int8OutputsDifferFromFp32ButTrack) {
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const auto samples = MakeSamples(g, 16, 11);
  const infer::QuantParams qp = CalibratePtq(g, w, samples);
  const infer::Executor fp32(g, w);
  const infer::Executor int8(g, w, infer::NumericsMode::kInt8, &qp);
  const auto probe = MakeSamples(g, 1, 99);
  const auto o32 = fp32.Run(probe[0]);
  const auto o8 = int8.Run(probe[0]);
  double max_err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < o32[0].size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::abs(
                                    o32[0].data()[i] - o8[0].data()[i])));
    scale = std::max(scale,
                     static_cast<double>(std::abs(o32[0].data()[i])));
  }
  EXPECT_GT(max_err, 0.0);           // quantization does something
  EXPECT_LT(max_err, 0.3 * scale + 0.05);  // but stays in the same ballpark
}

TEST(Calibration, BitIdenticalAtEveryPoolSize) {
  // EMA folds are order-sensitive: a pool that merged ranges in completion
  // order would move the low bits.  29 samples split unevenly over 2-4 lanes.
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const auto samples = MakeSamples(g, 29, 11);
  for (const RangeMethod method :
       {RangeMethod::kMinMax, RangeMethod::kMovingAverage}) {
    CalibrationConfig cc;
    cc.method = method;
    const infer::QuantParams serial = CalibratePtq(g, w, samples, cc);
    for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
      SCOPED_TRACE("method " + std::to_string(static_cast<int>(method)) +
                   ", pool of " + std::to_string(lanes) + " lanes");
      const ThreadPool pool(lanes);
      const infer::QuantParams pooled = CalibratePtq(g, w, samples, cc, &pool);
      ASSERT_EQ(pooled.activation_ranges.size(),
                serial.activation_ranges.size());
      for (const auto& [id, r] : serial.activation_ranges) {
        const auto it = pooled.activation_ranges.find(id);
        ASSERT_NE(it, pooled.activation_ranges.end()) << "tensor " << id;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(it->second.min),
                  std::bit_cast<std::uint32_t>(r.min))
            << "tensor " << id;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(it->second.max),
                  std::bit_cast<std::uint32_t>(r.max))
            << "tensor " << id;
      }
    }
  }
}

TEST(Calibration, GatherOnAPoolMatchesSerial) {
  const datasets::SuperResDataset ds(datasets::SuperResDatasetConfig{});
  const std::vector<std::size_t> indices =
      datasets::ApprovedCalibrationIndices(1000, 37, 0xCA11B);
  const std::vector<CalibrationSample> serial =
      datasets::GatherCalibrationSamples(ds, indices);
  const ThreadPool pool(4);
  const std::vector<CalibrationSample> pooled =
      datasets::GatherCalibrationSamples(ds, indices, &pool);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    ASSERT_EQ(pooled[s].size(), serial[s].size());
    for (std::size_t t = 0; t < serial[s].size(); ++t) {
      ASSERT_EQ(pooled[s][t].shape(), serial[s][t].shape());
      for (std::size_t i = 0; i < serial[s][t].size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(pooled[s][t].at(i)),
                  std::bit_cast<std::uint32_t>(serial[s][t].at(i)))
            << "sample " << s << " tensor " << t << " value " << i;
    }
  }
}

TEST(QatRefinement, ReducesWeightQuantizationMse) {
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const infer::WeightStore refined = RefineWeightsMseOptimal(g, w);
  // The refined weights are clipped versions of the originals.
  const auto& orig = w.Get("Conv2d_0/w").values();
  const auto& ref = refined.Get("Conv2d_0/w").values();
  float orig_max = 0.0f, ref_max = 0.0f;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    orig_max = std::max(orig_max, std::abs(orig[i]));
    ref_max = std::max(ref_max, std::abs(ref[i]));
  }
  EXPECT_LE(ref_max, orig_max + 1e-6f);
}

TEST(QatRefinement, PreservesBiasesExactly) {
  const graph::Graph g = TinyNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const infer::WeightStore refined = RefineWeightsMseOptimal(g, w);
  const auto& ob = w.Get("Conv2d_0/b").values();
  const auto& rb = refined.Get("Conv2d_0/b").values();
  for (std::size_t i = 0; i < ob.size(); ++i) EXPECT_EQ(ob[i], rb[i]);
}

// ---- rules ----

TEST(Rules, CalibrationSubsetIsLegal) {
  const std::vector<std::size_t> approved{1, 2, 3, 5, 8};
  const std::vector<std::size_t> used{2, 5};
  EXPECT_TRUE(CheckCalibrationSet(approved, used).legal);
}

TEST(Rules, UnapprovedCalibrationSampleIsIllegal) {
  const std::vector<std::size_t> approved{1, 2, 3};
  const std::vector<std::size_t> used{2, 4};
  const LegalityReport r = CheckCalibrationSet(approved, used);
  EXPECT_FALSE(r.legal);
  EXPECT_EQ(r.violations.size(), 1u);
}

TEST(Rules, EmptyCalibrationUseIsLegal) {
  const std::vector<std::size_t> approved{1};
  const std::vector<std::size_t> used;
  EXPECT_TRUE(CheckCalibrationSet(approved, used).legal);
}

}  // namespace
}  // namespace mlpm::quant
