// Unit + property tests for the graph IR: shapes, builder invariants, shape
// inference and cost analysis.
#include <gtest/gtest.h>

#include <array>

#include "graph/cost.h"
#include "graph/graph.h"

namespace mlpm::graph {
namespace {

TEST(TensorShape, ElementsAndAccessors) {
  const TensorShape s({1, 8, 8, 3});
  EXPECT_EQ(s.rank(), 4u);
  EXPECT_EQ(s.elements(), 192);
  EXPECT_EQ(s.batch(), 1);
  EXPECT_EQ(s.height(), 8);
  EXPECT_EQ(s.width(), 8);
  EXPECT_EQ(s.channels(), 3);
}

TEST(TensorShape, RejectsNonPositiveDims) {
  EXPECT_THROW(TensorShape({1, 0, 3}), CheckError);
  EXPECT_THROW(TensorShape({-1}), CheckError);
}

TEST(TensorShape, NhwcAccessorRequiresRank4) {
  const TensorShape s({4, 4});
  EXPECT_THROW((void)s.height(), CheckError);
}

TEST(TensorShape, EqualityAndToString) {
  EXPECT_EQ(TensorShape({2, 3}), TensorShape({2, 3}));
  EXPECT_FALSE(TensorShape({2, 3}) == TensorShape({3, 2}));
  EXPECT_EQ(TensorShape({1, 224, 224, 3}).ToString(), "[1x224x224x3]");
}

// ---- ConvOutDim ----

// GoogleTest names a case by its parameter's raw bytes, so the padding
// after `pad` is an explicit zeroed member: the names stay fixed.
struct ConvDimCase {
  std::int64_t in;
  int kernel, stride, dilation;
  Padding pad;
  std::array<std::uint8_t, 3> zero_padding{};
  std::int64_t expected;
};

class ConvOutDimTest : public ::testing::TestWithParam<ConvDimCase> {};

TEST_P(ConvOutDimTest, MatchesReference) {
  const ConvDimCase& c = GetParam();
  EXPECT_EQ(ConvOutDim(c.in, c.kernel, c.stride, c.dilation, c.pad),
            c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvOutDimTest,
    ::testing::Values(
        ConvDimCase{224, 3, 2, 1, Padding::kSame, {}, 112},
        ConvDimCase{224, 3, 1, 1, Padding::kSame, {}, 224},
        ConvDimCase{300, 3, 2, 1, Padding::kSame, {}, 150},
        ConvDimCase{5, 3, 2, 1, Padding::kSame, {}, 3},
        ConvDimCase{3, 3, 2, 1, Padding::kSame, {}, 2},
        ConvDimCase{2, 3, 2, 1, Padding::kSame, {}, 1},
        ConvDimCase{224, 3, 1, 1, Padding::kValid, {}, 222},
        ConvDimCase{224, 3, 2, 1, Padding::kValid, {}, 111},
        ConvDimCase{7, 7, 1, 1, Padding::kValid, {}, 1},
        ConvDimCase{32, 3, 1, 2, Padding::kValid, {}, 28},
        ConvDimCase{32, 3, 1, 2, Padding::kSame, {}, 32}));

TEST(ConvOutDim, RejectsDegenerateInputs) {
  EXPECT_THROW((void)ConvOutDim(0, 3, 1, 1, Padding::kSame), CheckError);
  EXPECT_THROW((void)ConvOutDim(4, 3, 0, 1, Padding::kSame), CheckError);
  EXPECT_THROW((void)ConvOutDim(2, 3, 1, 1, Padding::kValid), CheckError);
}

// ---- builder ----

TEST(GraphBuilder, SimpleConvNetworkShapes) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 16, 16, 3});
  x = b.Conv2d(x, 8, 3, 2, Activation::kRelu);
  EXPECT_EQ(b.ShapeOf(x), TensorShape({1, 8, 8, 8}));
  x = b.DepthwiseConv2d(x, 3, 1);
  EXPECT_EQ(b.ShapeOf(x), TensorShape({1, 8, 8, 8}));
  x = b.GlobalAvgPool(x);
  EXPECT_EQ(b.ShapeOf(x), TensorShape({1, 1, 1, 8}));
  x = b.Reshape(x, {1, 8});
  x = b.FullyConnected(x, 4);
  EXPECT_EQ(b.ShapeOf(x), TensorShape({1, 4}));
  b.MarkOutput(x);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.input_ids().size(), 1u);
  EXPECT_EQ(g.output_ids().size(), 1u);
}

TEST(GraphBuilder, ConvRegistersWeightAndBias) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 4, 4, 3});
  b.MarkOutput(b.Conv2d(x, 8, 3, 1, Activation::kNone, Padding::kSame, 1,
                        "c"));
  const Graph g = std::move(b).Build();
  // conv weight [8,3,3,3] + bias [8] = 224.
  EXPECT_EQ(g.ParameterCount(), 8 * 3 * 3 * 3 + 8);
}

TEST(GraphBuilder, AddRequiresEqualShapes) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {1, 4, 4, 3});
  TensorId y = b.Input("b", {1, 4, 4, 2});
  EXPECT_THROW((void)b.Add(x, y), CheckError);
}

TEST(GraphBuilder, ResidualAddWorks) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {1, 4, 4, 3});
  TensorId y = b.Conv2d(x, 3, 3, 1);
  EXPECT_NO_THROW(b.MarkOutput(b.Add(x, y)));
}

TEST(GraphBuilder, ConcatShapes) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {1, 4, 4, 3});
  TensorId y = b.Input("b", {1, 4, 4, 5});
  TensorId z = b.Concat({x, y}, -1);
  EXPECT_EQ(b.ShapeOf(z), TensorShape({1, 4, 4, 8}));
}

TEST(GraphBuilder, ConcatAxisZero) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {3, 4});
  TensorId y = b.Input("b", {5, 4});
  EXPECT_EQ(b.ShapeOf(b.Concat({x, y}, 0)), TensorShape({8, 4}));
}

TEST(GraphBuilder, ConcatRejectsMismatchedNonAxisDims) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {1, 4, 4, 3});
  TensorId y = b.Input("b", {1, 5, 4, 3});
  EXPECT_THROW((void)b.Concat({x, y}, -1), CheckError);
}

TEST(GraphBuilder, ConcatRejectsBadAxis) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {1, 4});
  EXPECT_THROW((void)b.Concat({x}, 2), CheckError);
  EXPECT_THROW((void)b.Concat({x}, -3), CheckError);
}

TEST(GraphBuilder, ReshapeMustPreserveElements) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {1, 4, 4, 3});
  EXPECT_NO_THROW((void)b.Reshape(x, {48, 1}));
  EXPECT_THROW((void)b.Reshape(x, {47}), CheckError);
}

TEST(GraphBuilder, AttentionRequiresDivisibleHeads) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {8, 64});
  EXPECT_NO_THROW((void)b.MultiHeadAttention(x, 4, 16));
  EXPECT_THROW((void)b.MultiHeadAttention(x, 4, 15), CheckError);
}

TEST(GraphBuilder, EmbeddingShape) {
  GraphBuilder b("t");
  TensorId ids = b.Input("ids", {12});
  TensorId e = b.Embedding(ids, 100, 16);
  EXPECT_EQ(b.ShapeOf(e), TensorShape({12, 16}));
}

TEST(GraphBuilder, BuildRequiresInputsAndOutputs) {
  GraphBuilder b1("t");
  EXPECT_THROW((void)std::move(b1).Build(), CheckError);
  GraphBuilder b2("t");
  (void)b2.Input("a", {1});
  EXPECT_THROW((void)std::move(b2).Build(), CheckError);
}

TEST(GraphBuilder, ResizeBilinearShape) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {1, 4, 4, 3});
  EXPECT_EQ(b.ShapeOf(b.ResizeBilinear(x, 16, 16)),
            TensorShape({1, 16, 16, 3}));
}

// ---- cost ----

TEST(Cost, ConvMacsMatchFormula) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 8, 8, 3});
  x = b.Conv2d(x, 16, 3, 1);
  b.MarkOutput(x);
  const Graph g = std::move(b).Build();
  const GraphCost c = AnalyzeGraph(g);
  // out 8*8*16 elems, each 3*3*3 MACs.
  EXPECT_EQ(c.total_macs, 8 * 8 * 16 * 27);
}

TEST(Cost, DepthwiseMacsMatchFormula) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 8, 8, 6});
  x = b.DepthwiseConv2d(x, 3, 1);
  b.MarkOutput(x);
  const GraphCost c = AnalyzeGraph(std::move(b).Build());
  EXPECT_EQ(c.total_macs, 8 * 8 * 6 * 9);
}

TEST(Cost, FullyConnectedMacs) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 32});
  x = b.FullyConnected(x, 10);
  b.MarkOutput(x);
  EXPECT_EQ(AnalyzeGraph(std::move(b).Build()).total_macs, 320);
}

TEST(Cost, AttentionMacsScaleQuadraticallyInSeqLen) {
  const auto macs_for = [](std::int64_t seq) {
    GraphBuilder b("t");
    TensorId x = b.Input("in", {seq, 32});
    x = b.MultiHeadAttention(x, 2, 16);
    b.MarkOutput(x);
    return AnalyzeGraph(std::move(b).Build()).total_macs;
  };
  const std::int64_t m8 = macs_for(8), m16 = macs_for(16);
  // Projections are linear, scores quadratic: ratio must exceed 2x.
  EXPECT_GT(m16, 2 * m8);
}

TEST(Cost, DilatedFlagPropagates) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 8, 8, 3});
  x = b.Conv2d(x, 4, 3, 1, Activation::kNone, Padding::kSame, 2);
  b.MarkOutput(x);
  const Graph g = std::move(b).Build();
  const NodeCost nc = AnalyzeNode(g, g.nodes().back());
  EXPECT_TRUE(nc.dilated);
}

TEST(Cost, MemoryOpsHaveZeroMacs) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 4, 4, 2});
  x = b.Reshape(x, {32});
  b.MarkOutput(x);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(AnalyzeNode(g, g.nodes().back()).macs, 0);
}

TEST(Cost, TotalBytesScalesWithDtype) {
  NodeCost c;
  c.weight_elems = 10;
  c.input_elems = 20;
  c.output_elems = 30;
  EXPECT_EQ(c.TotalBytes(DataType::kInt8), 60);
  EXPECT_EQ(c.TotalBytes(DataType::kFloat16), 120);
  EXPECT_EQ(c.TotalBytes(DataType::kFloat32), 240);
}

TEST(OpClass, Classification) {
  EXPECT_EQ(ClassOf(OpType::kConv2d), OpClass::kConvDense);
  EXPECT_EQ(ClassOf(OpType::kDepthwiseConv2d), OpClass::kConvDepthwise);
  EXPECT_EQ(ClassOf(OpType::kFullyConnected), OpClass::kGemm);
  EXPECT_EQ(ClassOf(OpType::kMultiHeadAttention), OpClass::kAttention);
  EXPECT_EQ(ClassOf(OpType::kReshape), OpClass::kMemory);
}

}  // namespace
}  // namespace mlpm::graph
