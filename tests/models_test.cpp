// Tests for the reference model zoo: Table 1 parameter fidelity, output
// shapes, anchor/head consistency, and detection post-processing.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "graph/cost.h"
#include "models/deeplab.h"
#include "models/detection.h"
#include "models/mobilebert.h"
#include "models/mobilenet_edgetpu.h"
#include "models/ssd.h"
#include "models/zoo.h"

namespace mlpm::models {
namespace {

TEST(Zoo, SuiteV07HasFourTasks) {
  const auto suite = SuiteFor(SuiteVersion::kV0_7);
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[1].model_name, "SSD-MobileNet v2");
  EXPECT_EQ(suite[1].input_size, 300);
  EXPECT_DOUBLE_EQ(suite[1].quality_target, 0.93);
}

TEST(Zoo, SuiteV10SwapsDetectionModel) {
  const auto suite = SuiteFor(SuiteVersion::kV1_0);
  EXPECT_EQ(suite[1].model_name, "MobileDET-SSD");
  EXPECT_EQ(suite[1].input_size, 320);
  EXPECT_DOUBLE_EQ(suite[1].quality_target, 0.95);  // tightened in v1.0
}

TEST(Zoo, QualityTargetsMatchTable1) {
  const auto suite = SuiteFor(SuiteVersion::kV1_0);
  EXPECT_DOUBLE_EQ(suite[0].quality_target, 0.98);
  EXPECT_DOUBLE_EQ(suite[2].quality_target, 0.97);
  EXPECT_DOUBLE_EQ(suite[3].quality_target, 0.93);
}

// Parameter fidelity: measured counts within 15% of Table 1.
struct ParamCase {
  SuiteVersion version;
  // GoogleTest names each case by the raw bytes of its parameter, so the
  // padding after `version` is an explicit zeroed member: left implicit,
  // it holds whatever the allocator left there and the test names change
  // from run to run.
  std::array<std::uint8_t, 7> zero_padding{};
  std::size_t index;
  double expected_millions;
};

class Table1Params : public ::testing::TestWithParam<ParamCase> {};

TEST_P(Table1Params, WithinFifteenPercent) {
  const ParamCase& c = GetParam();
  const auto suite = SuiteFor(c.version);
  const graph::Graph g =
      BuildReferenceGraph(suite[c.index], c.version, ModelScale::kFull);
  const double millions =
      static_cast<double>(g.ParameterCount()) / 1e6;
  EXPECT_GT(millions, c.expected_millions * 0.85);
  EXPECT_LT(millions, c.expected_millions * 1.15);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, Table1Params,
    ::testing::Values(
        ParamCase{.version = SuiteVersion::kV0_7, .index = 0,
                  .expected_millions = 4.0},
        ParamCase{.version = SuiteVersion::kV0_7, .index = 1,
                  .expected_millions = 17.0},
        ParamCase{.version = SuiteVersion::kV1_0, .index = 1,
                  .expected_millions = 4.0},
        ParamCase{.version = SuiteVersion::kV0_7, .index = 2,
                  .expected_millions = 2.0},
        ParamCase{.version = SuiteVersion::kV0_7, .index = 3,
                  .expected_millions = 25.0}));

TEST(MobileNetEdgeTpu, FullOutputShape) {
  const graph::Graph g = BuildMobileNetEdgeTpu(ModelScale::kFull);
  EXPECT_EQ(g.tensor(g.output_ids()[0]).shape,
            graph::TensorShape({1, 1000}));
}

TEST(MobileNetEdgeTpu, MiniOutputShape) {
  const graph::Graph g = BuildMobileNetEdgeTpu(ModelScale::kMini);
  EXPECT_EQ(g.tensor(g.output_ids()[0]).shape, graph::TensorShape({1, 16}));
}

TEST(MobileNetEdgeTpu, EarlyStagesAreFused) {
  // The fused-IBN design point: no depthwise convs before the first
  // depthwise stage, and some 3x3 dense convs beyond the stem.
  const graph::Graph g = BuildMobileNetEdgeTpu(ModelScale::kFull);
  int first_dw = -1, dense3x3 = 0;
  for (std::size_t i = 0; i < g.nodes().size(); ++i) {
    if (g.nodes()[i].op == graph::OpType::kDepthwiseConv2d && first_dw < 0)
      first_dw = static_cast<int>(i);
    if (g.nodes()[i].op == graph::OpType::kConv2d) {
      const auto& a = std::get<graph::Conv2dAttrs>(g.nodes()[i].attrs);
      if (a.kernel_h == 3) ++dense3x3;
    }
  }
  EXPECT_GT(first_dw, 10);  // fused stages come first
  EXPECT_GT(dense3x3, 8);
}

TEST(MobileNetEdgeTpu, FullModelAboutOneGmac) {
  const graph::GraphCost c =
      graph::AnalyzeGraph(BuildMobileNetEdgeTpu(ModelScale::kFull));
  EXPECT_GT(c.TotalGMacs(), 0.7);
  EXPECT_LT(c.TotalGMacs(), 1.5);
}

TEST(Ssd, AnchorsMatchHeadOutputs) {
  for (const DetectionModel& m :
       {BuildSsdMobileNetV2(ModelScale::kFull),
        BuildMobileDetSsd(ModelScale::kFull),
        BuildSsdMobileNetV2(ModelScale::kMini),
        BuildMobileDetSsd(ModelScale::kMini)}) {
    const auto& boxes = m.graph.tensor(m.graph.output_ids()[0]).shape;
    const auto& classes = m.graph.tensor(m.graph.output_ids()[1]).shape;
    EXPECT_EQ(boxes.dim(0), static_cast<std::int64_t>(m.anchors.size()));
    EXPECT_EQ(boxes.dim(1), 4);
    EXPECT_EQ(classes.dim(0), static_cast<std::int64_t>(m.anchors.size()));
    EXPECT_EQ(classes.dim(1), m.num_classes);
  }
}

TEST(Ssd, Ssd300AnchorCountMatchesReference) {
  // 19^2*3 + 6*(10^2 + 5^2 + 3^2 + 2^2 + 1^2) anchors = 1917.
  const DetectionModel m = BuildSsdMobileNetV2(ModelScale::kFull);
  EXPECT_EQ(m.anchors.size(), 1917u);
}

TEST(Ssd, MobileDetUsesSeparableHeads) {
  // SSDLite: the prediction convs are depthwise+pointwise, so MobileDet has
  // far fewer parameters despite the bigger input.
  const auto ssd = BuildSsdMobileNetV2(ModelScale::kFull);
  const auto mobiledet = BuildMobileDetSsd(ModelScale::kFull);
  EXPECT_LT(mobiledet.graph.ParameterCount(),
            ssd.graph.ParameterCount() / 3);
  EXPECT_GT(mobiledet.input_size, ssd.input_size);
}

TEST(DeepLab, OutputIsPerPixelLogits) {
  const graph::Graph g = BuildDeepLabV3Plus(ModelScale::kFull);
  EXPECT_EQ(g.tensor(g.output_ids()[0]).shape,
            graph::TensorShape({1, 512, 512, 32}));
}

TEST(DeepLab, MiniOutputShape) {
  const graph::Graph g = BuildDeepLabV3Plus(ModelScale::kMini);
  EXPECT_EQ(g.tensor(g.output_ids()[0]).shape,
            graph::TensorShape({1, 32, 32, 8}));
}

TEST(DeepLab, ContainsDilatedConvs) {
  const graph::Graph g = BuildDeepLabV3Plus(ModelScale::kFull);
  const graph::GraphCost c = graph::AnalyzeGraph(g);
  bool any_dilated = false;
  for (const auto& nc : c.per_node) any_dilated |= nc.dilated;
  EXPECT_TRUE(any_dilated);
}

TEST(MobileBert, OutputIsSpanLogits) {
  const graph::Graph g = BuildMobileBert(ModelScale::kFull);
  EXPECT_EQ(g.tensor(g.output_ids()[0]).shape,
            graph::TensorShape({384, 2}));
}

TEST(MobileBert, BlockCountMatchesConfig) {
  const MobileBertConfig cfg;  // 24 blocks
  const graph::Graph g = BuildMobileBert(cfg);
  int attention_nodes = 0;
  for (const auto& n : g.nodes())
    if (n.op == graph::OpType::kMultiHeadAttention) ++attention_nodes;
  EXPECT_EQ(attention_nodes, cfg.num_blocks);
}

TEST(MobileBert, RejectsIndivisibleHeads) {
  MobileBertConfig cfg = MiniMobileBertConfig();
  cfg.num_heads = 3;  // bottleneck 32 not divisible by 3
  EXPECT_THROW((void)BuildMobileBert(cfg), CheckError);
}

TEST(Zoo, ReferenceGraphDispatchesPerVersion) {
  const auto v07 = SuiteFor(SuiteVersion::kV0_7);
  const auto v10 = SuiteFor(SuiteVersion::kV1_0);
  const graph::Graph od07 =
      BuildReferenceGraph(v07[1], SuiteVersion::kV0_7, ModelScale::kFull);
  const graph::Graph od10 =
      BuildReferenceGraph(v10[1], SuiteVersion::kV1_0, ModelScale::kFull);
  EXPECT_EQ(od07.name(), "ssd_mobilenet_v2");
  EXPECT_EQ(od10.name(), "mobiledet_ssd");
}

// ---- detection post-processing ----

TEST(Anchors, GridCenteredAndNormalized) {
  const AnchorSet::FeatureMapSpec spec{2, {0.5f}, {1.0f}};
  const AnchorSet set = AnchorSet::Build({&spec, 1});
  ASSERT_EQ(set.size(), 4u);
  EXPECT_FLOAT_EQ(set.anchors()[0].cy, 0.25f);
  EXPECT_FLOAT_EQ(set.anchors()[0].cx, 0.25f);
  EXPECT_FLOAT_EQ(set.anchors()[3].cy, 0.75f);
  EXPECT_FLOAT_EQ(set.anchors()[3].cx, 0.75f);
}

TEST(Anchors, AspectRatioPreservesArea) {
  const AnchorSet::FeatureMapSpec spec{1, {0.4f}, {2.0f}};
  const AnchorSet set = AnchorSet::Build({&spec, 1});
  const Anchor& a = set.anchors()[0];
  EXPECT_NEAR(a.h * a.w, 0.4f * 0.4f, 1e-5f);
  EXPECT_NEAR(a.w / a.h, 2.0f, 1e-4f);
}

TEST(Decode, ZeroDeltasRecoverAnchors) {
  const AnchorSet::FeatureMapSpec spec{1, {0.5f}, {1.0f}};
  const AnchorSet set = AnchorSet::Build({&spec, 1});
  // logits: background low, class1 high.
  const std::vector<float> deltas(4, 0.0f);
  const std::vector<float> logits{0.0f, 5.0f};
  const auto dets = DecodeDetections(deltas, logits, set, 2);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].class_id, 1);
  EXPECT_NEAR(dets[0].box.ymin, 0.25f, 1e-4f);
  EXPECT_NEAR(dets[0].box.ymax, 0.75f, 1e-4f);
}

TEST(Decode, BackgroundOnlyYieldsNothing) {
  const AnchorSet::FeatureMapSpec spec{1, {0.5f}, {1.0f}};
  const AnchorSet set = AnchorSet::Build({&spec, 1});
  const std::vector<float> deltas(4, 0.0f);
  const std::vector<float> logits{5.0f, 0.0f};
  EXPECT_TRUE(DecodeDetections(deltas, logits, set, 2).empty());
}

TEST(Decode, ScoreThresholdFilters) {
  const AnchorSet::FeatureMapSpec spec{1, {0.5f}, {1.0f}};
  const AnchorSet set = AnchorSet::Build({&spec, 1});
  const std::vector<float> deltas(4, 0.0f);
  const std::vector<float> logits{0.0f, 0.1f};  // weak foreground
  DecodeConfig cfg;
  cfg.score_threshold = 0.9f;
  EXPECT_TRUE(DecodeDetections(deltas, logits, set, 2, cfg).empty());
}

TEST(Decode, BoxesStayNormalized) {
  const AnchorSet::FeatureMapSpec spec{1, {0.9f}, {1.0f}};
  const AnchorSet set = AnchorSet::Build({&spec, 1});
  const std::vector<float> deltas{5.0f, 5.0f, 10.0f, 10.0f};  // blow up
  const std::vector<float> logits{0.0f, 5.0f};
  const auto dets = DecodeDetections(deltas, logits, set, 2);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_GE(dets[0].box.ymin, 0.0f);
  EXPECT_LE(dets[0].box.ymax, 1.0f);
  EXPECT_GE(dets[0].box.xmin, 0.0f);
  EXPECT_LE(dets[0].box.xmax, 1.0f);
}

TEST(Nms, SuppressesOverlappingSameClass) {
  std::vector<Detection> dets{
      {BBox{0.1f, 0.1f, 0.5f, 0.5f}, 1, 0.9f},
      {BBox{0.12f, 0.12f, 0.52f, 0.52f}, 1, 0.8f},
  };
  const auto kept = Nms(std::move(dets), 0.5f, 10);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
}

TEST(Nms, KeepsDifferentClasses) {
  std::vector<Detection> dets{
      {BBox{0.1f, 0.1f, 0.5f, 0.5f}, 1, 0.9f},
      {BBox{0.1f, 0.1f, 0.5f, 0.5f}, 2, 0.8f},
  };
  EXPECT_EQ(Nms(std::move(dets), 0.5f, 10).size(), 2u);
}

TEST(Nms, RespectsMaxDetections) {
  std::vector<Detection> dets;
  for (int i = 0; i < 20; ++i)
    dets.push_back({BBox{0.05f * i, 0.0f, 0.05f * i + 0.02f, 0.02f}, 1,
                    1.0f - 0.01f * i});
  EXPECT_EQ(Nms(std::move(dets), 0.5f, 5).size(), 5u);
}

TEST(Nms, OutputSortedByScore) {
  std::vector<Detection> dets{
      {BBox{0.0f, 0.0f, 0.1f, 0.1f}, 1, 0.3f},
      {BBox{0.5f, 0.5f, 0.6f, 0.6f}, 1, 0.9f},
      {BBox{0.8f, 0.8f, 0.9f, 0.9f}, 1, 0.6f},
  };
  const auto kept = Nms(std::move(dets), 0.5f, 10);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GE(kept[0].score, kept[1].score);
  EXPECT_GE(kept[1].score, kept[2].score);
}

}  // namespace
}  // namespace mlpm::models
