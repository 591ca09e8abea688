// Tests for the frozen-checkpoint serialization: graph structure and
// weights must round-trip exactly (the audit loads submitted files and
// fingerprint-compares them, paper §5.1/§6.2).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/serialize.h"
#include "graph/validate.h"
#include "infer/executor.h"
#include "infer/weights.h"
#include "models/deeplab.h"
#include "models/mobilebert.h"
#include "models/mobilenet_edgetpu.h"
#include "models/rnnt.h"
#include "models/ssd.h"

namespace mlpm {
namespace {

std::vector<graph::Graph> AllMiniModels() {
  std::vector<graph::Graph> v;
  v.push_back(models::BuildMobileNetEdgeTpu(models::ModelScale::kMini));
  v.push_back(models::BuildSsdMobileNetV2(models::ModelScale::kMini).graph);
  v.push_back(models::BuildMobileDetSsd(models::ModelScale::kMini).graph);
  v.push_back(models::BuildDeepLabV3Plus(models::ModelScale::kMini));
  v.push_back(models::BuildMobileBert(models::ModelScale::kMini));
  v.push_back(models::BuildMobileRnnt(models::ModelScale::kMini));
  return v;
}

TEST(GraphSerialize, RoundTripPreservesFingerprintForAllModels) {
  for (const graph::Graph& g : AllMiniModels()) {
    const graph::Graph back = graph::ParseGraph(graph::SerializeGraph(g));
    EXPECT_EQ(back.StructuralFingerprint(), g.StructuralFingerprint())
        << g.name();
    EXPECT_EQ(back.name(), g.name());
    EXPECT_EQ(back.nodes().size(), g.nodes().size());
    EXPECT_EQ(back.ParameterCount(), g.ParameterCount());
    EXPECT_TRUE(graph::Validate(back).valid);
  }
}

TEST(GraphSerialize, SerializationIsDeterministic) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  EXPECT_EQ(graph::SerializeGraph(g), graph::SerializeGraph(g));
}

TEST(GraphSerialize, ParsedGraphExecutesIdentically) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const graph::Graph back = graph::ParseGraph(graph::SerializeGraph(g));
  const infer::WeightStore w = infer::InitializeWeights(g, 7);

  infer::Tensor input(g.tensor(g.input_ids()[0]).shape);
  Rng rng(5);
  for (auto& v : input.values()) v = static_cast<float>(rng.NextDouble());
  const std::vector<infer::Tensor> in{input};

  const infer::Executor a(g, w);
  const infer::Executor b(back, w);
  const auto oa = a.Run(in);
  const auto ob = b.Run(in);
  ASSERT_EQ(oa[0].size(), ob[0].size());
  for (std::size_t i = 0; i < oa[0].size(); ++i)
    EXPECT_EQ(oa[0].data()[i], ob[0].data()[i]);
}

TEST(GraphSerialize, RejectsGarbage) {
  EXPECT_THROW((void)graph::ParseGraph("not a graph"), CheckError);
  EXPECT_THROW((void)graph::ParseGraph(""), CheckError);
  EXPECT_THROW((void)graph::ParseGraph("mlpm_graph v1\nbogus stuff"),
               CheckError);
}

TEST(GraphSerialize, RejectsTamperedStructure) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  std::string text = graph::SerializeGraph(g);
  // Drop the last node line: its output becomes an undefined graph output.
  const auto last_node = text.rfind("\nnode ");
  ASSERT_NE(last_node, std::string::npos);
  const auto line_end = text.find('\n', last_node + 1);
  text.erase(last_node, line_end - last_node);
  EXPECT_THROW((void)graph::ParseGraph(text), CheckError);
}

// A hostile or damaged model file must fail as a CheckError (the audit's
// rejection path), never as a library exception or an unbounded allocation.
// kConstNode is a well-formed graph text around the materialized-constant
// op that graph rewriting once produced; the format no longer has it.
TEST(GraphSerialize, HostileInputsThrowCheckError) {
  const char* const kConstNode =
      "tensor 0 w 1 4 c/value\ntensor 1 a 1 4 c\n"
      "node c const [] in 0 w 1 0 out 1\ngraph_output 1";
  for (const char* body : {
           "node n act [a=abc] in 0 w 0 out 0",          // non-numeric attr
           "node n fc [of=99999999999999999999 a=0] in 0 w 0 out 0",
           "tensor 0 a 1000000000000 x",                 // rank > line
           "tensor 0 a -1 x",                            // negative rank
           "node n add [] in 100000000000 w 0 out 0",    // count > line
           "node n reshape [rank=1000000000000] in 0 w 0 out 0",
           "node n reshape [rank=-1] in 0 w 0 out 0",
           "tensor 0 a 1 5x x",                          // trailing garbage
           "graph_input 2147483648",                     // overflows TensorId
           kConstNode,                                   // removed op
       }) {
    EXPECT_THROW((void)graph::ParseGraphUnchecked(
                     std::string("mlpm_graph v1\n") + body + "\n"),
                 CheckError)
        << body;
  }
  try {
    (void)graph::ParseGraphUnchecked(std::string("mlpm_graph v1\n") +
                                     kConstNode + "\n");
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown op token: const"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphSerialize, DetectsPrunedSubmission) {
  // End-to-end audit flow: serialize reference, serialize a pruned variant,
  // parse both, fingerprint-compare.
  const graph::Graph reference =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  models::ClassifierConfig pruned_cfg = models::MiniClassifierConfig();
  pruned_cfg.num_classes = 12;  // smaller head = pruned
  const graph::Graph pruned =
      models::BuildMobileNetEdgeTpu(pruned_cfg, models::ModelScale::kMini);
  const graph::Graph ref_back =
      graph::ParseGraph(graph::SerializeGraph(reference));
  const graph::Graph sub_back =
      graph::ParseGraph(graph::SerializeGraph(pruned));
  EXPECT_NE(ref_back.StructuralFingerprint(),
            sub_back.StructuralFingerprint());
}

// ---- weights ----

TEST(WeightSerialize, ExactRoundTrip) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::WeightStore back =
      infer::ParseWeights(infer::SerializeWeights(w));
  EXPECT_EQ(back.size(), w.size());
  for (const auto& [name, tensor] : w.raw()) {
    const infer::Tensor& bt = back.Get(name);
    ASSERT_EQ(bt.size(), tensor.size()) << name;
    EXPECT_EQ(bt.shape(), tensor.shape());
    for (std::size_t i = 0; i < tensor.size(); ++i)
      EXPECT_EQ(bt.data()[i], tensor.data()[i]) << name << "[" << i << "]";
  }
}

TEST(WeightSerialize, HandlesSpecialValues) {
  infer::WeightStore w;
  w.Put("t", infer::Tensor(graph::TensorShape({4}),
                           {0.0f, -0.0f, 1e-38f, -3.14159265f}));
  const infer::WeightStore back =
      infer::ParseWeights(infer::SerializeWeights(w));
  const auto& t = back.Get("t");
  EXPECT_EQ(t.data()[0], 0.0f);
  EXPECT_EQ(t.data()[2], 1e-38f);
  EXPECT_EQ(t.data()[3], -3.14159265f);
}

TEST(WeightSerialize, DeterministicOrdering) {
  infer::WeightStore w;
  w.Put("zzz", infer::Tensor(graph::TensorShape({1}), {1.0f}));
  w.Put("aaa", infer::Tensor(graph::TensorShape({1}), {2.0f}));
  const std::string s = infer::SerializeWeights(w);
  EXPECT_LT(s.find("aaa"), s.find("zzz"));
}

TEST(WeightSerialize, RejectsMalformed) {
  EXPECT_THROW((void)infer::ParseWeights("junk"), CheckError);
  EXPECT_THROW(
      (void)infer::ParseWeights("mlpm_weights v1\ntensor 1 2 t\n0x1p+0"),
      CheckError);  // too few values
}

TEST(WeightSerialize, HostileHeadersThrowCheckErrorBeforeAllocating) {
  for (const char* text : {
           "mlpm_weights v1\ntensor 1000000000000 w\n0x1p+0",  // rank > line
           // 10^12 elements against one value: rejected by count, not by
           // allocating 4 TB first.
           "mlpm_weights v1\ntensor 2 1000000 1000000 w\n0x1p+0",
           "mlpm_weights v1\ntensor 2 4294967296 4294967296 w\n0x1p+0",
           "mlpm_weights v1\ntensor 1 -2 w\n0x1p+0",
           "mlpm_weights v1\ntensor 1 2 w\n0x1p+0 0x1p+0 0x1p+0",  // too many
       }) {
    EXPECT_THROW((void)infer::ParseWeights(text), CheckError) << text;
  }
}

}  // namespace
}  // namespace mlpm
