// Tests for the submitted-model reader (graph::ParseGraphUnchecked, what
// mlpm_lint loads `.graph` files with, paper §5.1/§6.2).  The writer below
// is the reader's inverse, kept here as the oracle: every zoo graph must
// round-trip through the text and come back clean through the lint passes,
// and damaged or hostile text must fail as a CheckError.
#include <gtest/gtest.h>

#include <sstream>
#include <variant>

#include "analysis/passes.h"
#include "common/rng.h"
#include "graph/serialize.h"
#include "infer/executor.h"
#include "infer/weights.h"
#include "models/mobilenet_edgetpu.h"
#include "models/rnnt.h"
#include "models/superres.h"
#include "models/zoo.h"

namespace mlpm {
namespace {

using graph::OpType;

const char* OpToken(OpType t) {
  switch (t) {
    case OpType::kInput: return "input_op";
    case OpType::kConv2d: return "conv2d";
    case OpType::kDepthwiseConv2d: return "dwconv2d";
    case OpType::kFullyConnected: return "fc";
    case OpType::kAdd: return "add";
    case OpType::kGlobalAvgPool: return "gap";
    case OpType::kResizeBilinear: return "resize";
    case OpType::kConcat: return "concat";
    case OpType::kReshape: return "reshape";
    case OpType::kActivation: return "act";
    case OpType::kLayerNorm: return "layernorm";
    case OpType::kEmbeddingLookup: return "embedding";
    case OpType::kMultiHeadAttention: return "mha";
    case OpType::kLstm: return "lstm";
  }
  return "?";
}

int ActToInt(graph::Activation a) { return static_cast<int>(a); }

void WriteAttrs(std::ostream& os, const graph::Node& n) {
  switch (n.op) {
    case OpType::kConv2d: {
      const auto& a = std::get<graph::Conv2dAttrs>(n.attrs);
      os << "oc=" << a.out_channels << " k=" << a.kernel_h
         << " s=" << a.stride << " d=" << a.dilation
         << " p=" << (a.padding == graph::Padding::kSame ? 1 : 0)
         << " a=" << ActToInt(a.activation);
      break;
    }
    case OpType::kDepthwiseConv2d: {
      const auto& a = std::get<graph::DepthwiseConv2dAttrs>(n.attrs);
      os << "k=" << a.kernel_h << " s=" << a.stride << " d=" << a.dilation
         << " p=" << (a.padding == graph::Padding::kSame ? 1 : 0)
         << " a=" << ActToInt(a.activation);
      break;
    }
    case OpType::kFullyConnected: {
      const auto& a = std::get<graph::FullyConnectedAttrs>(n.attrs);
      os << "of=" << a.out_features << " a=" << ActToInt(a.activation);
      break;
    }
    case OpType::kResizeBilinear: {
      const auto& a = std::get<graph::ResizeAttrs>(n.attrs);
      os << "h=" << a.out_h << " w=" << a.out_w;
      break;
    }
    case OpType::kConcat: {
      os << "axis=" << std::get<graph::ConcatAttrs>(n.attrs).axis;
      break;
    }
    case OpType::kReshape: {
      const auto& a = std::get<graph::ReshapeAttrs>(n.attrs);
      os << "rank=" << a.new_dims.size();
      for (auto d : a.new_dims) os << " dim=" << d;
      break;
    }
    case OpType::kActivation: {
      os << "a="
         << ActToInt(std::get<graph::ActivationAttrs>(n.attrs).activation);
      break;
    }
    case OpType::kEmbeddingLookup: {
      const auto& a = std::get<graph::EmbeddingAttrs>(n.attrs);
      os << "vocab=" << a.vocab_size << " dim=" << a.embed_dim;
      break;
    }
    case OpType::kMultiHeadAttention: {
      const auto& a = std::get<graph::AttentionAttrs>(n.attrs);
      os << "heads=" << a.num_heads << " hd=" << a.head_dim;
      break;
    }
    case OpType::kLstm: {
      os << "hidden=" << std::get<graph::LstmAttrs>(n.attrs).hidden_dim;
      break;
    }
    case OpType::kInput:
    case OpType::kAdd:
    case OpType::kGlobalAvgPool:
    case OpType::kLayerNorm:
      break;  // no attrs
  }
}

// The full structure: tensors (name/shape/kind), nodes
// (op/attrs/inputs/weights/output), graph inputs/outputs.
std::string SerializeGraph(const graph::Graph& g) {
  std::ostringstream os;
  os << "mlpm_graph v1\n";
  os << "name " << g.name() << '\n';
  for (std::size_t i = 0; i < g.tensors().size(); ++i) {
    const graph::TensorInfo& t = g.tensors()[i];
    os << "tensor " << i << ' '
       << (t.kind == graph::TensorKind::kWeight ? 'w' : 'a') << ' '
       << t.shape.rank();
    for (auto d : t.shape.dims()) os << ' ' << d;
    os << ' ' << t.name << '\n';
  }
  for (const graph::Node& n : g.nodes()) {
    os << "node " << n.name << ' ' << OpToken(n.op) << " [";
    WriteAttrs(os, n);
    os << "] in " << n.inputs.size();
    for (auto id : n.inputs) os << ' ' << id;
    os << " w " << n.weights.size();
    for (auto id : n.weights) os << ' ' << id;
    os << " out " << n.output << '\n';
  }
  for (auto id : g.input_ids()) os << "graph_input " << id << '\n';
  for (auto id : g.output_ids()) os << "graph_output " << id << '\n';
  return os.str();
}

// Every graph the zoo builds: both suite versions at both scales, plus the
// speech and super-resolution extensions.
std::vector<graph::Graph> AllZooGraphs() {
  std::vector<graph::Graph> v;
  for (const models::ModelScale scale :
       {models::ModelScale::kMini, models::ModelScale::kFull}) {
    for (const models::SuiteVersion version :
         {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0})
      for (const models::BenchmarkEntry& e : models::SuiteFor(version))
        v.push_back(models::BuildReferenceGraph(e, version, scale));
    v.push_back(models::BuildMobileRnnt(scale));
    v.push_back(models::BuildSuperResolution(scale));
  }
  return v;
}

TEST(GraphSerialize, RoundTripIsAFixedPointForEveryZooGraph) {
  for (const graph::Graph& g : AllZooGraphs()) {
    const std::string text = SerializeGraph(g);
    const graph::Graph back = graph::ParseGraphUnchecked(text);
    EXPECT_EQ(SerializeGraph(back), text) << g.name();
    EXPECT_EQ(back.name(), g.name());
    EXPECT_EQ(back.nodes().size(), g.nodes().size());
    EXPECT_EQ(back.ParameterCount(), g.ParameterCount());
    analysis::DiagnosticEngine de;
    analysis::RunModelPasses(back, de);
    EXPECT_EQ(de.error_count(), 0u) << g.name() << '\n' << de.ToText();
  }
}

TEST(GraphSerialize, SerializationIsDeterministic) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  EXPECT_EQ(SerializeGraph(g), SerializeGraph(g));
}

TEST(GraphSerialize, ParsedGraphExecutesIdentically) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const graph::Graph back = graph::ParseGraphUnchecked(SerializeGraph(g));
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
  EXPECT_THROW((void)graph::ParseGraphUnchecked("not a graph"), CheckError);
  EXPECT_THROW((void)graph::ParseGraphUnchecked(""), CheckError);
  EXPECT_THROW(
      (void)graph::ParseGraphUnchecked("mlpm_graph v1\nbogus stuff"),
      CheckError);
}

TEST(GraphSerialize, RejectsTamperedStructure) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  std::string text = SerializeGraph(g);
  // Drop the last node line: its output becomes an undefined graph output.
  const auto last_node = text.rfind("\nnode ");
  ASSERT_NE(last_node, std::string::npos);
  const auto line_end = text.find('\n', last_node + 1);
  text.erase(last_node, line_end - last_node);
  analysis::DiagnosticEngine de;
  analysis::RunModelPasses(graph::ParseGraphUnchecked(text), de);
  // The dropped node's input is now read by nobody, and no node reaches
  // the graph output any more.
  EXPECT_TRUE(de.SeenCode("GRAPH001")) << de.ToText();
  EXPECT_TRUE(de.SeenCode("GRAPH002")) << de.ToText();
}

// A hostile or damaged model file must fail as a CheckError (the linter's
// rejection path), never as a library exception or an unbounded allocation.
// The const, mul, avgpool, maxpool and softmax lines are well-formed graph
// text around ops the format no longer has.
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
  const std::string kTensors =
      "tensor 0 a 4 1 4 4 2 x\ntensor 1 a 4 1 4 4 2 y\n"
      "tensor 2 a 4 1 2 2 2 o\ngraph_input 0\ngraph_input 1\n";
  for (const std::string& removed : {
           std::string("node c const [] in 0 w 1 0 out 1"),
           std::string("node m mul [] in 2 0 1 w 0 out 2"),
           std::string("node p avgpool [k=2 s=2] in 1 0 w 0 out 2"),
           std::string("node p maxpool [k=2 s=2] in 1 0 w 0 out 2"),
           std::string("node s softmax [axis=-1] in 1 0 w 0 out 2"),
       }) {
    const std::string token = removed.substr(7, removed.find(" [") - 7);
    try {
      (void)graph::ParseGraphUnchecked("mlpm_graph v1\n" + kTensors +
                                       removed + "\ngraph_output 2\n");
      ADD_FAILURE() << token << " parsed";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown op token: " + token),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace mlpm
