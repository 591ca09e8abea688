// Cross-cutting property tests: invariants that must hold over parameter
// sweeps rather than single examples.
#include <gtest/gtest.h>

#include <cmath>

#include "backends/vendor_policy.h"
#include "common/rng.h"
#include "datasets/preprocess.h"
#include "infer/executor.h"
#include "infer/weights.h"
#include "models/deeplab.h"
#include "models/detection.h"
#include "models/mobilebert.h"
#include "models/mobilenet_edgetpu.h"
#include "models/rnnt.h"
#include "models/ssd.h"
#include "models/zoo.h"
#include "quant/calibration.h"
#include "soc/simulator.h"

namespace mlpm {
namespace {

// ---- executor determinism & numerics bounds across the whole zoo ----

struct ModelCase {
  std::string name;
  graph::Graph g;
};

std::vector<ModelCase> MiniZoo() {
  std::vector<ModelCase> v;
  v.push_back({"classifier",
               models::BuildMobileNetEdgeTpu(models::ModelScale::kMini)});
  v.push_back({"ssd",
               models::BuildSsdMobileNetV2(models::ModelScale::kMini).graph});
  v.push_back({"mobiledet",
               models::BuildMobileDetSsd(models::ModelScale::kMini).graph});
  v.push_back({"deeplab",
               models::BuildDeepLabV3Plus(models::ModelScale::kMini)});
  v.push_back({"mobilebert",
               models::BuildMobileBert(models::ModelScale::kMini)});
  v.push_back({"rnnt", models::BuildMobileRnnt(models::ModelScale::kMini)});
  return v;
}

std::vector<infer::Tensor> RandomInputs(const graph::Graph& g,
                                        std::uint64_t seed) {
  std::vector<infer::Tensor> inputs;
  Rng rng(seed);
  for (const graph::TensorId id : g.input_ids()) {
    infer::Tensor t(g.tensor(id).shape);
    const bool integer_ids = g.tensor(id).name == "token_ids";
    for (auto& v : t.values())
      v = integer_ids ? static_cast<float>(rng.NextBelow(32))
                      : static_cast<float>(rng.NextUniform(-1.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

TEST(ZooProperty, ExecutionIsDeterministicAcrossExecutors) {
  for (const ModelCase& m : MiniZoo()) {
    const infer::WeightStore w = infer::InitializeWeights(m.g, 7);
    const auto in = RandomInputs(m.g, 3);
    const infer::Executor a(m.g, w);
    const infer::Executor b(m.g, w);
    const auto oa = a.Run(in);
    const auto ob = b.Run(in);
    ASSERT_EQ(oa.size(), ob.size()) << m.name;
    for (std::size_t t = 0; t < oa.size(); ++t)
      for (std::size_t i = 0; i < oa[t].size(); ++i)
        EXPECT_EQ(oa[t].data()[i], ob[t].data()[i]) << m.name;
  }
}

TEST(ZooProperty, Fp16OutputsTrackFp32) {
  for (const ModelCase& m : MiniZoo()) {
    const infer::WeightStore w = infer::InitializeWeights(m.g, 7);
    const auto in = RandomInputs(m.g, 3);
    const auto o32 = infer::Executor(m.g, w).Run(in);
    const auto o16 =
        infer::Executor(m.g, w, infer::NumericsMode::kFp16).Run(in);
    double scale = 1e-6, err = 0.0;
    for (std::size_t t = 0; t < o32.size(); ++t)
      for (std::size_t i = 0; i < o32[t].size(); ++i) {
        scale = std::max(scale,
                         static_cast<double>(std::abs(o32[t].data()[i])));
        err = std::max(err, static_cast<double>(std::abs(
                                o32[t].data()[i] - o16[t].data()[i])));
      }
    EXPECT_LT(err, 0.05 * scale + 1e-3) << m.name;
  }
}

TEST(ZooProperty, OutputsAreFinite) {
  for (const ModelCase& m : MiniZoo()) {
    const infer::WeightStore w = infer::InitializeWeights(m.g, 7);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto outs =
          infer::Executor(m.g, w).Run(RandomInputs(m.g, seed));
      for (const auto& o : outs)
        for (const float v : o.values())
          EXPECT_TRUE(std::isfinite(v)) << m.name;
    }
  }
}

TEST(ZooProperty, Int8WithSingleCalibrationSampleStillRuns) {
  for (const ModelCase& m : MiniZoo()) {
    const infer::WeightStore w = infer::InitializeWeights(m.g, 7);
    std::vector<quant::CalibrationSample> one;
    one.push_back(RandomInputs(m.g, 99));
    const infer::QuantParams qp = quant::CalibratePtq(m.g, w, one);
    const infer::Executor int8(m.g, w, infer::NumericsMode::kInt8, &qp);
    const auto outs = int8.Run(RandomInputs(m.g, 3));
    for (const auto& o : outs)
      for (const float v : o.values()) EXPECT_TRUE(std::isfinite(v));
  }
}

// ---- fake quantization ----

TEST(QuantProperty, FakeQuantIsIdempotent) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const infer::TensorRange r{
        static_cast<float>(rng.NextUniform(-4.0, 0.0)),
        static_cast<float>(rng.NextUniform(0.0, 4.0))};
    const float v = static_cast<float>(rng.NextUniform(-5.0, 5.0));
    const float once = infer::FakeQuantActivation(v, r, 8);
    EXPECT_FLOAT_EQ(infer::FakeQuantActivation(once, r, 8), once);
  }
}

TEST(QuantProperty, FakeQuantIsMonotone) {
  const infer::TensorRange r{-2.0f, 3.0f};
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const float a = static_cast<float>(rng.NextUniform(-3.0, 4.0));
    const float b = a + static_cast<float>(rng.NextUniform(0.0, 1.0));
    EXPECT_LE(infer::FakeQuantActivation(a, r, 8),
              infer::FakeQuantActivation(b, r, 8) + 1e-7f);
  }
}

// ---- preprocessing ----

TEST(PreprocessProperty, ResizeToSameSizeIsIdentity) {
  Rng rng(6);
  infer::Tensor img(graph::TensorShape({1, 9, 7, 3}));
  for (auto& v : img.values()) v = static_cast<float>(rng.NextDouble());
  const infer::Tensor out = datasets::ResizeBilinear(img, 9, 7);
  for (std::size_t i = 0; i < img.size(); ++i)
    EXPECT_NEAR(out.data()[i], img.data()[i], 1e-5f);
}

TEST(PreprocessProperty, ResizeStaysInValueRange) {
  Rng rng(7);
  infer::Tensor img(graph::TensorShape({1, 8, 8, 1}));
  for (auto& v : img.values()) v = static_cast<float>(rng.NextDouble());
  for (const std::int64_t target : {3, 5, 16, 33}) {
    const infer::Tensor out = datasets::ResizeBilinear(img, target, target);
    for (const float v : out.values()) {
      EXPECT_GE(v, -1e-5f);
      EXPECT_LE(v, 1.0f + 1e-5f);  // interpolation cannot overshoot
    }
  }
}

// ---- NMS invariants ----

TEST(NmsProperty, OutputIsSubsetAndNonOverlapping) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<models::Detection> dets;
    for (int i = 0; i < 40; ++i) {
      const float y = static_cast<float>(rng.NextUniform(0.0, 0.8));
      const float x = static_cast<float>(rng.NextUniform(0.0, 0.8));
      const float h = static_cast<float>(rng.NextUniform(0.05, 0.2));
      const float w = static_cast<float>(rng.NextUniform(0.05, 0.2));
      dets.push_back(models::Detection{
          models::BBox{y, x, y + h, x + w},
          static_cast<int>(rng.NextBelow(3)) + 1,
          static_cast<float>(rng.NextDouble())});
    }
    const std::vector<models::Detection> input = dets;
    const auto kept = models::Nms(std::move(dets), 0.4f, 25);
    // Subset property: every kept detection appears in the input.
    for (const auto& k : kept) {
      const bool found = std::any_of(
          input.begin(), input.end(), [&](const models::Detection& d) {
            return d.score == k.score && d.class_id == k.class_id &&
                   d.box.ymin == k.box.ymin;
          });
      EXPECT_TRUE(found);
    }
    // Pairwise same-class IoU below the threshold.
    for (std::size_t i = 0; i < kept.size(); ++i)
      for (std::size_t j = i + 1; j < kept.size(); ++j)
        if (kept[i].class_id == kept[j].class_id) {
          EXPECT_LE(kept[i].box.IoU(kept[j].box), 0.4f + 1e-6f);
        }
  }
}

// ---- thermal model ----

TEST(ThermalProperty, StepIsComposable) {
  soc::ThermalModel a{soc::ThermalParams{}};
  soc::ThermalModel b{soc::ThermalParams{}};
  a.Step(2.5, 10.0);
  a.Step(2.5, 14.0);
  b.Step(2.5, 24.0);
  EXPECT_NEAR(a.temperature_c(), b.temperature_c(), 1e-9);
}

TEST(ThermalProperty, HotterNeverFasterUnderConstantPower) {
  soc::ThermalModel t{soc::ThermalParams{}};
  double prev_factor = t.ThrottleFactor();
  for (int i = 0; i < 50; ++i) {
    t.Step(3.0, 5.0);
    const double f = t.ThrottleFactor();
    EXPECT_LE(f, prev_factor + 1e-12);
    prev_factor = f;
  }
}

// ---- compiled plans ----

TEST(CompileProperty, SegmentsPartitionTheGraph) {
  // Across every v1.0 submission plan: segment node counts sum to the
  // non-input node count of the graph.
  for (const soc::ChipsetDesc& chip : soc::CatalogV10()) {
    for (const auto& e : models::SuiteFor(models::SuiteVersion::kV1_0)) {
      const graph::Graph g = models::BuildReferenceGraph(
          e, models::SuiteVersion::kV1_0, models::ModelScale::kFull);
      const backends::SubmissionConfig sub =
          backends::GetSubmission(chip, e.task, models::SuiteVersion::kV1_0);
      const soc::CompiledModel m =
          backends::CompileSubmission(chip, sub, g);
      std::size_t nodes_in_segments = 0;
      for (const soc::CompiledSegment& seg : m.segments)
        nodes_in_segments += seg.node_count;
      std::size_t non_input = 0;
      for (const graph::Node& n : g.nodes())
        if (n.op != graph::OpType::kInput) ++non_input;
      EXPECT_EQ(nodes_in_segments, non_input) << chip.name << " " << e.id;
    }
  }
}

TEST(CompileProperty, LatencyMonotoneInThrottle) {
  const soc::ChipsetDesc chip = soc::Snapdragon888();
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageClassification,
      models::SuiteVersion::kV1_0);
  const soc::CompiledModel m = backends::CompileSubmission(chip, sub, g);
  double prev = 0.0;
  for (double f = 1.0; f >= 0.45; f -= 0.05) {
    const double t = m.LatencySeconds(f);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CompileProperty, CompilationIsDeterministic) {
  const soc::ChipsetDesc chip = soc::Exynos2100();
  const graph::Graph g =
      models::BuildDeepLabV3Plus(models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageSegmentation,
      models::SuiteVersion::kV1_0);
  const soc::CompiledModel a = backends::CompileSubmission(chip, sub, g);
  const soc::CompiledModel b = backends::CompileSubmission(chip, sub, g);
  EXPECT_EQ(a.segments.size(), b.segments.size());
  EXPECT_DOUBLE_EQ(a.LatencySeconds(), b.LatencySeconds());
  EXPECT_DOUBLE_EQ(a.EnergyJoules(), b.EnergyJoules());
}

// ---- detection decode ----

TEST(DecodeProperty, HigherScoreThresholdNeverAddsDetections) {
  const models::DetectionModel m =
      models::BuildSsdMobileNetV2(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(m.graph, 7);
  const infer::Executor exec(m.graph, w);
  const auto out = exec.Run(RandomInputs(m.graph, 21));
  std::size_t prev = SIZE_MAX;
  for (const float thresh : {0.1f, 0.3f, 0.5f, 0.7f, 0.9f}) {
    models::DecodeConfig cfg;
    cfg.score_threshold = thresh;
    cfg.max_detections = 100;
    const auto dets = models::DecodeDetections(
        out[0].values(), out[1].values(), m.anchors, m.num_classes, cfg);
    EXPECT_LE(dets.size(), prev);
    prev = dets.size();
  }
}

}  // namespace
}  // namespace mlpm
