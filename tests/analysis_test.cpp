// Static verification layer (DESIGN.md §9): one adversarial fixture per
// diagnostic code, engine semantics, the frozen JSON schema, and the
// harness strict-mode gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/passes.h"
#include "backends/vendor_policy.h"
#include "graph/serialize.h"
#include "harness/run_session.h"
#include "infer/quant_params.h"
#include "models/zoo.h"
#include "soc/chipset.h"

namespace mlpm {
namespace {

using analysis::DiagnosticEngine;
using analysis::Severity;

// Parses an adversarial fixture via the syntax-only loader, which keeps
// exactly the defects the linter must report.
graph::Graph G(const std::string& body) {
  return graph::ParseGraphUnchecked("mlpm_graph v1\nname fixture\n" + body);
}

std::vector<std::string> CodesOf(const DiagnosticEngine& de) {
  std::vector<std::string> codes;
  for (const auto& d : de.diagnostics()) codes.push_back(d.code);
  return codes;
}

bool Has(const DiagnosticEngine& de, std::string_view code) {
  return de.SeenCode(code);
}

// --- Engine semantics ------------------------------------------------------

TEST(DiagnosticEngine, CatalogueIsSortedAndComplete) {
  const auto cat = analysis::DiagnosticCatalogue();
  EXPECT_EQ(cat.size(), 30u);  // XFM001-XFM008 left with graph rewriting
  EXPECT_TRUE(std::is_sorted(
      cat.begin(), cat.end(),
      [](const auto& a, const auto& b) { return a.code < b.code; }));
  for (const auto& info : cat) {
    const analysis::CodeInfo* found = analysis::FindCode(info.code);
    ASSERT_NE(found, nullptr) << info.code;
    EXPECT_EQ(found->code, info.code);
    EXPECT_FALSE(info.summary.empty()) << info.code;
  }
  EXPECT_EQ(analysis::FindCode("NOPE999"), nullptr);
  EXPECT_EQ(analysis::FindCode("XFM001"), nullptr);
}

TEST(DiagnosticEngine, DefaultSeverityComesFromCatalogue) {
  DiagnosticEngine de;
  de.Report("GRAPH001", analysis::TensorSource("t", 3), "dead");
  de.Report("GRAPH003", analysis::NodeSource("n", 0), "alias");
  ASSERT_EQ(de.diagnostics().size(), 2u);
  EXPECT_EQ(de.diagnostics()[0].severity, Severity::kWarning);
  EXPECT_EQ(de.diagnostics()[1].severity, Severity::kError);
  EXPECT_EQ(de.error_count(), 1u);
  EXPECT_EQ(de.warning_count(), 1u);
  EXPECT_TRUE(de.HasErrors());
  EXPECT_EQ(de.MaxSeverity(), Severity::kError);
  EXPECT_TRUE(de.SeenCode("GRAPH001"));
  EXPECT_FALSE(de.SeenCode("GRAPH002"));
}

TEST(DiagnosticEngine, UnregisteredCodeIsRejected) {
  DiagnosticEngine de;
  EXPECT_THROW(de.Report("BOGUS001", analysis::GraphSource("g"), "x"),
               CheckError);
}

TEST(DiagnosticEngine, EmptyEngineRendersEmptyText) {
  DiagnosticEngine de;
  EXPECT_TRUE(de.empty());
  EXPECT_EQ(de.ToText(), "");
  EXPECT_EQ(de.MaxSeverity(), Severity::kNote);
}

TEST(DiagnosticEngine, TextRenderingNamesSourceAndCode) {
  DiagnosticEngine de;
  de.Report("SHAPE001", analysis::NodeSource("conv0", 2), "mismatch");
  const std::string text = de.ToText();
  EXPECT_NE(text.find("error SHAPE001 node 'conv0' (#2): mismatch"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("1 error(s), 0 warning(s), 0 note(s)"),
            std::string::npos);
}

// The JSON schema is frozen: downstream tooling parses it, so any change
// here is a breaking change and must be deliberate.
TEST(DiagnosticEngine, GoldenJsonSnapshot) {
  DiagnosticEngine de;
  de.Report("GRAPH001", analysis::TensorSource("t7", 7), "dead tensor");
  de.Report("QUANT005", analysis::ConfigSource("quant.use_qat_weights"),
            "QAT \"weights\"\nfor FP16");
  const std::string expected =
      R"({"diagnostics":[)"
      R"({"code":"GRAPH001","severity":"warning",)"
      R"("source":{"kind":"tensor","name":"t7","id":7},)"
      R"("message":"dead tensor"},)"
      R"({"code":"QUANT005","severity":"error",)"
      R"("source":{"kind":"config","name":"quant.use_qat_weights","id":-1},)"
      R"("message":"QAT \"weights\"\nfor FP16"}],)"
      R"("counts":{"error":1,"warning":1,"note":0}})";
  EXPECT_EQ(de.ToJson(), expected);
}

TEST(DiagnosticEngine, EmptyJsonSnapshot) {
  DiagnosticEngine de;
  EXPECT_EQ(de.ToJson(),
            R"({"diagnostics":[],"counts":{"error":0,"warning":0,"note":0}})");
}

// --- Graph structure lints (GRAPH001-GRAPH005) -----------------------------

TEST(GraphLints, DeadTensorIsGraph001) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 3 out\n"
      "tensor 2 a 4 1 8 8 3 dead\n"
      "node live add [] in 2 0 0 w 0 out 1\n"
      "node stray add [] in 2 0 0 w 0 out 2\n"
      "graph_input 0\ngraph_output 1\n");
  DiagnosticEngine de;
  analysis::CheckGraphStructure(g, de);
  EXPECT_TRUE(Has(de, "GRAPH001"));
  EXPECT_TRUE(Has(de, "GRAPH002"));  // the stray node is also unreachable
  EXPECT_FALSE(de.HasErrors());      // both are warnings
}

TEST(GraphLints, UnreachableNodeIsGraph002) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 3 mid\n"
      "tensor 2 a 4 1 8 8 3 out\n"
      "node island add [] in 2 0 0 w 0 out 1\n"
      "node sink add [] in 2 1 1 w 0 out 2\n"
      "graph_input 0\ngraph_output 0\n");
  DiagnosticEngine de;
  analysis::CheckGraphStructure(g, de);
  EXPECT_TRUE(Has(de, "GRAPH002"));
}

TEST(GraphLints, AliasingWritesAreGraph003) {
  // In-place write (output == input) and double production of tensor 1.
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 3 t1\n"
      "node inplace add [] in 2 1 1 w 0 out 1\n"
      "node again add [] in 2 0 0 w 0 out 1\n"
      "graph_input 0\ngraph_output 1\n");
  DiagnosticEngine de;
  analysis::CheckGraphStructure(g, de);
  const auto codes = CodesOf(de);
  EXPECT_GE(std::count(codes.begin(), codes.end(), "GRAPH003"), 2);
  EXPECT_TRUE(de.HasErrors());
}

TEST(GraphLints, OverwritingGraphInputIsGraph003) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 3 out\n"
      "node clobber add [] in 2 1 1 w 0 out 0\n"
      "node use add [] in 2 0 0 w 0 out 1\n"
      "graph_input 0\ngraph_output 1\n");
  DiagnosticEngine de;
  analysis::CheckGraphStructure(g, de);
  EXPECT_TRUE(Has(de, "GRAPH003"));
}

TEST(GraphLints, DataflowCycleIsGraph004) {
  // a consumes what b produces and vice versa: no topological order exists.
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 3 t1\n"
      "tensor 2 a 4 1 8 8 3 t2\n"
      "node a add [] in 2 0 1 w 0 out 2\n"
      "node b add [] in 2 0 2 w 0 out 1\n"
      "graph_input 0\ngraph_output 2\n");
  DiagnosticEngine de;
  analysis::CheckGraphStructure(g, de);
  EXPECT_TRUE(Has(de, "GRAPH004"));
  EXPECT_TRUE(de.HasErrors());
}

TEST(GraphLints, OutOfRangeIdIsGraph005AndGatesShapePass) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "node bad add [] in 2 0 9 w 0 out 0\n"
      "graph_input 0\ngraph_output 0\n");
  DiagnosticEngine de;
  analysis::RunModelPasses(g, de);
  EXPECT_TRUE(Has(de, "GRAPH005"));
  // The shape pass must not run over (and crash on) corrupt ids.
  for (const auto& d : de.diagnostics())
    EXPECT_EQ(d.code.substr(0, 5), "GRAPH") << d.code;
}

TEST(GraphLints, WeightUsedAsInputIsGraph005) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 w 1 16 k\n"
      "tensor 2 a 4 1 8 8 3 out\n"
      "node bad add [] in 2 0 1 w 0 out 2\n"
      "graph_input 0\ngraph_output 2\n");
  DiagnosticEngine de;
  analysis::CheckGraphStructure(g, de);
  EXPECT_TRUE(Has(de, "GRAPH005"));
}

// --- Shape dataflow (SHAPE001-SHAPE004) ------------------------------------

TEST(ShapeDataflow, RecordedShapeMismatchIsShape001) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 5 out\n"  // add must preserve [1,8,8,3]
      "node sum add [] in 2 0 0 w 0 out 1\n"
      "graph_input 0\ngraph_output 1\n");
  DiagnosticEngine de;
  analysis::CheckShapeDataflow(g, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"SHAPE001"});
}

TEST(ShapeDataflow, WrongArityIsShape002) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 3 out\n"
      "node lonely add [] in 1 0 w 0 out 1\n"
      "graph_input 0\ngraph_output 1\n");
  DiagnosticEngine de;
  analysis::CheckShapeDataflow(g, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"SHAPE002"});
}

TEST(ShapeDataflow, MissingConvWeightsAreShape002) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 8 out\n"
      "node c conv2d [oc=8 k=3 s=1 d=1 p=1 a=0] in 1 0 w 0 out 1\n"
      "graph_input 0\ngraph_output 1\n");
  DiagnosticEngine de;
  analysis::CheckShapeDataflow(g, de);
  EXPECT_TRUE(Has(de, "SHAPE002"));
}

TEST(ShapeDataflow, OperandConstraintViolationIsShape003) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 a0\n"
      "tensor 1 a 4 1 4 4 3 a1\n"  // mismatched elementwise operands
      "tensor 2 a 4 1 8 8 3 out\n"
      "node sum add [] in 2 0 1 w 0 out 2\n"
      "graph_input 0\ngraph_input 1\ngraph_output 2\n");
  DiagnosticEngine de;
  analysis::CheckShapeDataflow(g, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"SHAPE003"});
}

TEST(ShapeDataflow, BadConcatAxisIsShape003) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 a0\n"
      "tensor 1 a 4 1 8 8 3 a1\n"
      "tensor 2 a 4 1 8 8 6 out\n"
      "node cat concat [axis=7] in 2 0 1 w 0 out 2\n"
      "graph_input 0\ngraph_input 1\ngraph_output 2\n");
  DiagnosticEngine de;
  analysis::CheckShapeDataflow(g, de);
  EXPECT_TRUE(Has(de, "SHAPE003"));
}

TEST(ShapeDataflow, WrongWeightShapeIsShape004) {
  // Conv kernel should be [8,3,3,3]; fixture records [8,3,3,4].
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 w 4 8 3 3 4 kern\n"
      "tensor 2 w 1 8 bias\n"
      "tensor 3 a 4 1 8 8 8 out\n"
      "node c conv2d [oc=8 k=3 s=1 d=1 p=1 a=0] in 1 0 w 2 1 2 out 3\n"
      "graph_input 0\ngraph_output 3\n");
  DiagnosticEngine de;
  analysis::CheckShapeDataflow(g, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"SHAPE004"});
}

TEST(ShapeDataflow, ReshapeElementCountIsChecked) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 2 1 100 out\n"
      "node r reshape [rank=2 dim=1 dim=100] in 1 0 w 0 out 1\n"
      "graph_input 0\ngraph_output 1\n");
  DiagnosticEngine de;
  analysis::CheckShapeDataflow(g, de);
  EXPECT_TRUE(Has(de, "SHAPE003"));
}

TEST(ShapeDataflow, ShippedReferenceModelsAreClean) {
  for (const auto version :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0}) {
    for (const models::BenchmarkEntry& e : models::SuiteFor(version)) {
      const graph::Graph g =
          models::BuildReferenceGraph(e, version, models::ModelScale::kFull);
      DiagnosticEngine de;
      analysis::RunModelPasses(g, de);
      EXPECT_TRUE(de.empty())
          << e.id << " (" << ToString(version) << "):\n" << de.ToText();
    }
  }
}

// --- Quantization legality (QUANT001-QUANT008) -----------------------------

graph::Graph TinyQuantGraph() {
  return G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 3 out\n"
      "node sum add [] in 2 0 0 w 0 out 1\n"
      "graph_input 0\ngraph_output 1\n");
}

TEST(QuantLegality, NonEightBitGridIsQuant001) {
  analysis::QuantConfigView q;
  q.activation_bits = 4;
  q.weight_bits = 16;
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  const auto codes = CodesOf(de);
  EXPECT_EQ(std::count(codes.begin(), codes.end(), "QUANT001"), 2);
}

TEST(QuantLegality, IllegalRangeIsQuant002) {
  infer::QuantParams params;
  params.activation_ranges[0] = {2.0f, -2.0f};  // min > max
  analysis::QuantConfigView q;
  q.params = &params;
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_TRUE(Has(de, "QUANT002"));
}

TEST(QuantLegality, NonZeroChannelAxisIsQuant003) {
  analysis::QuantConfigView q;
  q.per_channel_axis = 3;
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_TRUE(Has(de, "QUANT003"));
}

TEST(QuantLegality, UnsignedWeightsWithSignedActivationsIsQuant004) {
  analysis::QuantConfigView q;
  q.activation_dtype = DataType::kInt8;
  q.weight_dtype = DataType::kUInt8;
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_TRUE(Has(de, "QUANT004"));
}

TEST(QuantLegality, QatWeightsForFloatSubmissionIsQuant005) {
  analysis::QuantConfigView q;
  q.activation_dtype = DataType::kFloat16;
  q.qat_weights = true;
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"QUANT005"});
}

TEST(QuantLegality, QatWeightsForInt8IsLegal) {
  analysis::QuantConfigView q;
  q.qat_weights = true;  // activation dtype defaults to UINT8
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_TRUE(de.empty()) << de.ToText();
}

TEST(QuantLegality, UnapprovedCalibrationSampleIsQuant006) {
  const std::vector<std::size_t> approved = {1, 2, 3};
  const std::vector<std::size_t> used = {2, 9};
  analysis::QuantConfigView q;
  q.approved_calibration = approved;
  q.used_calibration = used;
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_TRUE(Has(de, "QUANT006"));
}

TEST(QuantLegality, StaleRangeIsQuant007) {
  infer::QuantParams params;
  params.activation_ranges[42] = {0.0f, 1.0f};  // no tensor 42
  analysis::QuantConfigView q;
  q.params = &params;
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_TRUE(Has(de, "QUANT007"));
}

TEST(QuantLegality, ZeroExclusionIsQuant008) {
  infer::QuantParams params;
  params.activation_ranges[1] = {0.5f, 2.0f};  // cannot represent 0
  analysis::QuantConfigView q;
  q.params = &params;
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_TRUE(Has(de, "QUANT008"));
  EXPECT_FALSE(de.HasErrors());  // warning severity
}

TEST(QuantLegality, FloatSubmissionSkipsGridChecks) {
  analysis::QuantConfigView q;
  q.activation_dtype = DataType::kFloat32;
  q.activation_bits = 4;  // would be QUANT001 if the grid were checked
  DiagnosticEngine de;
  analysis::CheckQuantLegality(TinyQuantGraph(), q, de);
  EXPECT_TRUE(de.empty()) << de.ToText();
}

// --- SoC mapping feasibility (SOC001-SOC005) -------------------------------

soc::ChipsetDesc TestChipset() {
  soc::ChipsetDesc c;
  c.name = "TestSoC";
  soc::AcceleratorDesc npu;
  npu.name = "npu";
  npu.cls = soc::EngineClass::kNpu;
  npu.peak_gmacs_int8 = 1000.0;  // INT8 only: fp16/fp32 peaks stay 0
  npu.efficiency.attention = 0.0;          // NPU cannot run attention
  npu.efficiency.dilated_scale = 0.0;      // nor dilated convolutions
  soc::AcceleratorDesc cpu;
  cpu.name = "cpu";
  cpu.cls = soc::EngineClass::kCpuBig;
  cpu.peak_gmacs_int8 = 50.0;
  cpu.peak_gmacs_fp32 = 25.0;
  c.engines = {npu, cpu};
  return c;
}

graph::Graph AttentionGraph() {
  return G(
      "tensor 0 a 2 16 64 in\n"
      "tensor 1 w 2 64 64 wq\n"
      "tensor 2 w 2 64 64 wk\n"
      "tensor 3 w 2 64 64 wv\n"
      "tensor 4 w 2 64 64 wo\n"
      "tensor 5 a 2 16 64 out\n"
      "node att mha [heads=4 hd=16] in 1 0 w 4 1 2 3 4 out 5\n"
      "graph_input 0\ngraph_output 5\n");
}

TEST(SocMapping, UnknownEngineIsSoc001) {
  const soc::ChipsetDesc c = TestChipset();
  soc::ExecutionPolicy p;
  p.engines = {"tpu"};
  analysis::MappingConfigView m{&c, &p, DataType::kInt8, "t"};
  DiagnosticEngine de;
  analysis::CheckSocMapping(AttentionGraph(), m, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"SOC001"});
}

TEST(SocMapping, UnsupportedNumericsIsSoc002) {
  const soc::ChipsetDesc c = TestChipset();
  soc::ExecutionPolicy p;
  p.engines = {"npu"};
  analysis::MappingConfigView m{&c, &p, DataType::kFloat16, "t"};
  DiagnosticEngine de;
  analysis::CheckSocMapping(AttentionGraph(), m, de);
  EXPECT_TRUE(Has(de, "SOC002"));
}

TEST(SocMapping, DisabledOpClassIsSoc003) {
  const soc::ChipsetDesc c = TestChipset();
  soc::ExecutionPolicy p;
  p.engines = {"npu"};  // attention efficiency is 0 on the NPU
  analysis::MappingConfigView m{&c, &p, DataType::kInt8, "t"};
  DiagnosticEngine de;
  analysis::CheckSocMapping(AttentionGraph(), m, de);
  EXPECT_TRUE(Has(de, "SOC003"));
  EXPECT_TRUE(de.HasErrors());
}

TEST(SocMapping, DilatedConvOnIncapableEngineIsSoc003) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 16 16 3 in\n"
      "tensor 1 w 4 8 3 3 3 kern\n"
      "tensor 2 w 1 8 bias\n"
      "tensor 3 a 4 1 16 16 8 out\n"
      "node c conv2d [oc=8 k=3 s=1 d=2 p=1 a=0] in 1 0 w 2 1 2 out 3\n"
      "graph_input 0\ngraph_output 3\n");
  const soc::ChipsetDesc c = TestChipset();
  soc::ExecutionPolicy p;
  p.engines = {"npu"};
  analysis::MappingConfigView m{&c, &p, DataType::kInt8, "t"};
  DiagnosticEngine de;
  analysis::CheckSocMapping(g, m, de);
  EXPECT_TRUE(Has(de, "SOC003"));
}

TEST(SocMapping, SecondaryEngineIsOnlyCheckedWhenHosting) {
  // Same policy but everything stays on the primary CPU: the NPU's
  // disabled attention class must not fire.
  const soc::ChipsetDesc c = TestChipset();
  soc::ExecutionPolicy p;
  p.engines = {"cpu", "npu"};
  analysis::MappingConfigView m{&c, &p, DataType::kInt8, "t"};
  DiagnosticEngine de;
  analysis::CheckSocMapping(AttentionGraph(), m, de);
  EXPECT_TRUE(de.empty()) << de.ToText();

  // Alternating between the engines makes the NPU a host -> hazard.
  p.alternate_every = 2;
  DiagnosticEngine de2;
  analysis::CheckSocMapping(AttentionGraph(), m, de2);
  EXPECT_TRUE(Has(de2, "SOC003"));
}

TEST(SocMapping, DeclaredFallbackHolesAreSoc004) {
  const soc::ChipsetDesc c = TestChipset();
  soc::ExecutionPolicy p;
  p.engines = {"cpu"};
  p.cpu_fallback_fraction = 0.25;
  analysis::MappingConfigView m{&c, &p, DataType::kInt8, "t"};
  DiagnosticEngine de;
  analysis::CheckSocMapping(AttentionGraph(), m, de);
  EXPECT_TRUE(Has(de, "SOC004"));
  EXPECT_FALSE(de.HasErrors());  // warning severity
}

TEST(SocMapping, MalformedPolicyIsSoc005) {
  const soc::ChipsetDesc c = TestChipset();
  soc::ExecutionPolicy p;  // no engines at all
  analysis::MappingConfigView m{&c, &p, DataType::kInt8, "t"};
  DiagnosticEngine de;
  analysis::CheckSocMapping(AttentionGraph(), m, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"SOC005"});

  soc::ExecutionPolicy p2;
  p2.engines = {"cpu"};
  p2.toolchain_efficiency = 0.0;
  p2.tail_nodes_on_secondary = 3;  // needs >= 2 engines
  analysis::MappingConfigView m2{&c, &p2, DataType::kInt8, "t"};
  DiagnosticEngine de2;
  analysis::CheckSocMapping(AttentionGraph(), m2, de2);
  const auto codes = CodesOf(de2);
  EXPECT_GE(std::count(codes.begin(), codes.end(), "SOC005"), 2);
}

TEST(SocMapping, ShippedSubmissionsAreClean) {
  for (const auto version :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0}) {
    const auto catalog = version == models::SuiteVersion::kV0_7
                             ? soc::CatalogV07()
                             : soc::CatalogV10();
    for (const soc::ChipsetDesc& chipset : catalog) {
      for (const models::BenchmarkEntry& e : models::SuiteFor(version)) {
        const auto sub = backends::GetSubmission(chipset, e.task, version);
        const graph::Graph g =
            models::BuildReferenceGraph(e, version, models::ModelScale::kFull);
        analysis::MappingConfigView m{&chipset, &sub.single_stream,
                                      sub.numerics,
                                      chipset.name + "/" + e.id};
        DiagnosticEngine de;
        analysis::CheckSocMapping(g, m, de);
        for (const soc::ExecutionPolicy& r : sub.offline_replicas) {
          m.policy = &r;
          analysis::CheckSocMapping(g, m, de);
        }
        EXPECT_TRUE(de.empty())
            << chipset.name << "/" << e.id << ":\n" << de.ToText();
      }
    }
  }
}

// --- Run configuration (RUN001-RUN008) -------------------------------------

TEST(RunConfig, NegativeThreadsIsRun001) {
  analysis::RunConfigView rc;
  rc.threads = -2;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"RUN001"});
}

TEST(RunConfig, ImplausibleCooldownIsRun002) {
  analysis::RunConfigView rc;
  rc.cooldown_s = 900.0;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"RUN002"});
  EXPECT_FALSE(de.HasErrors());
}

TEST(RunConfig, FaultProbabilityOutsideUnitIntervalIsRun003) {
  analysis::RunConfigView rc;
  rc.fault_probabilities = {{"driver_crash", 1.5}, {"sample_drop", -0.1}};
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  const auto codes = CodesOf(de);
  EXPECT_EQ(std::count(codes.begin(), codes.end(), "RUN003"), 2);
}

TEST(RunConfig, NegativeRetryBudgetIsRun004) {
  analysis::RunConfigView rc;
  rc.max_test_retries = -1;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_TRUE(Has(de, "RUN004"));
}

TEST(RunConfig, SharedScratchAcrossThreadsIsRun005) {
  analysis::RunConfigView rc;
  rc.threads = 4;
  rc.shared_scratch_across_threads = true;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_TRUE(Has(de, "RUN005"));
  EXPECT_TRUE(de.HasErrors());
}

TEST(RunConfig, NonPoolThreadingIsRun006) {
  analysis::RunConfigView rc;
  rc.threads = 4;
  rc.uses_thread_pool = false;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"RUN006"});
  EXPECT_FALSE(de.HasErrors());
}

TEST(RunConfig, UnknownKernelIsaIsRun007) {
  analysis::RunConfigView rc;
  rc.kernel_isa = "sse9";
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"RUN007"});
  EXPECT_TRUE(de.HasErrors());
}

TEST(RunConfig, UnavailableKernelIsaIsRun007) {
  analysis::RunConfigView rc;
  rc.kernel_isa = "neon";
  rc.kernel_isa_available = false;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"RUN007"});
  EXPECT_TRUE(de.HasErrors());
  // The message must spell out the silent consequence (scalar fallback).
  EXPECT_NE(de.ToText().find("falls back"), std::string::npos)
      << de.ToText();
}

TEST(RunConfig, AvailableKernelIsaIsClean) {
  analysis::RunConfigView rc;
  rc.kernel_isa = "avx2";
  rc.kernel_isa_available = true;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_TRUE(de.empty()) << de.ToText();
}

TEST(RunConfig, InvalidTileRowsIsRun008Error) {
  analysis::RunConfigView rc;
  rc.tiling_requested = true;
  rc.tile_rows = 0;  // 0 and every negative except -1 are invalid
  rc.graph_has_fusable_segment = true;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"RUN008"});
  EXPECT_TRUE(de.HasErrors());

  rc.tile_rows = -7;
  DiagnosticEngine de2;
  analysis::CheckRunConfig(rc, de2);
  EXPECT_TRUE(Has(de2, "RUN008"));
  EXPECT_TRUE(de2.HasErrors());
}

TEST(RunConfig, TilingWithoutFusableSegmentIsRun008Warning) {
  analysis::RunConfigView rc;
  rc.tiling_requested = true;
  rc.tile_rows = -1;  // valid: auto
  rc.graph_has_fusable_segment = false;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_EQ(CodesOf(de), std::vector<std::string>{"RUN008"});
  EXPECT_FALSE(de.HasErrors());  // no effect, but the run is still legal
}

TEST(RunConfig, ValidTilingIsClean) {
  analysis::RunConfigView rc;
  rc.tiling_requested = true;
  rc.tile_rows = 8;
  rc.graph_has_fusable_segment = true;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_TRUE(de.empty()) << de.ToText();
}

TEST(RunConfig, TilingOffIgnoresTileFields) {
  analysis::RunConfigView rc;
  rc.tiling_requested = false;
  rc.tile_rows = 0;  // would be RUN008 if tiling were requested
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_TRUE(de.empty()) << de.ToText();
}

TEST(RunConfig, DefaultHarnessConfigurationIsClean) {
  analysis::RunConfigView rc;
  DiagnosticEngine de;
  analysis::CheckRunConfig(rc, de);
  EXPECT_TRUE(de.empty()) << de.ToText();
}

// --- Harness gate ----------------------------------------------------------

// QAT weights on a float submission is a rules violation the executor used
// to silently ignore (it only applies QAT under INT8).  Strict mode turns
// it into a refusal-to-run; report mode records it but still runs.
TEST(HarnessGate, StrictModeRefusesIllegalQuantConfig) {
  const soc::ChipsetDesc chipset = soc::Snapdragon888();
  harness::SuiteBundles bundles;
  harness::RunOptions options;
  options.run_accuracy = false;
  options.run_performance = false;  // lint gate only: keep the test fast
  options.use_qat_weights = true;
  options.lint = harness::LintMode::kStrict;
  const harness::SubmissionResult result = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, options);

  bool saw_float_task = false;
  for (const harness::TaskRunResult& t : result.tasks) {
    if (IsQuantized(t.numerics)) {
      EXPECT_EQ(t.status, harness::TaskStatus::kValid) << t.entry.id;
      EXPECT_EQ(t.lint_error_count, 0u) << t.entry.id << "\n" << t.lint_log;
    } else {
      saw_float_task = true;
      EXPECT_EQ(t.status, harness::TaskStatus::kInvalid) << t.entry.id;
      EXPECT_GT(t.lint_error_count, 0u);
      EXPECT_NE(t.lint_log.find("QUANT005"), std::string::npos) << t.lint_log;
      EXPECT_NE(t.status_detail.find("static verification"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_float_task);  // v1.0 NLP submissions run FP16
}

TEST(HarnessGate, ReportModeRecordsButRuns) {
  const soc::ChipsetDesc chipset = soc::Snapdragon888();
  harness::SuiteBundles bundles;
  harness::RunOptions options;
  options.run_accuracy = false;
  options.run_performance = false;
  options.use_qat_weights = true;
  options.lint = harness::LintMode::kReport;  // default
  const harness::SubmissionResult result = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, options);
  for (const harness::TaskRunResult& t : result.tasks) {
    EXPECT_NE(t.status, harness::TaskStatus::kInvalid) << t.entry.id;
    if (!IsQuantized(t.numerics)) {
      EXPECT_GT(t.lint_error_count, 0u);
    }
  }
}

TEST(HarnessGate, LintOffRecordsNothing) {
  const soc::ChipsetDesc chipset = soc::Snapdragon888();
  harness::SuiteBundles bundles;
  harness::RunOptions options;
  options.run_accuracy = false;
  options.run_performance = false;
  options.use_qat_weights = true;
  options.lint = harness::LintMode::kOff;
  const harness::SubmissionResult result = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, options);
  for (const harness::TaskRunResult& t : result.tasks) {
    EXPECT_EQ(t.lint_error_count, 0u);
    EXPECT_TRUE(t.lint_log.empty());
  }
}

// Full-pipeline golden snapshot: a defective model through RunModelPasses
// must yield byte-identical JSON across runs and platforms.
TEST(HarnessGate, ModelPassGoldenJson) {
  const graph::Graph g = G(
      "tensor 0 a 4 1 8 8 3 in\n"
      "tensor 1 a 4 1 8 8 5 out\n"
      "node sum add [] in 2 0 0 w 0 out 1\n"
      "graph_input 0\ngraph_output 1\n");
  DiagnosticEngine de;
  analysis::RunModelPasses(g, de);
  const std::string expected =
      R"({"diagnostics":[)"
      R"({"code":"SHAPE001","severity":"error",)"
      R"("source":{"kind":"node","name":"sum","id":0},)"
      R"("message":"recorded output shape [1x8x8x5] disagrees with )"
      R"(inferred [1x8x8x3]"}],)"
      R"("counts":{"error":1,"warning":0,"note":0}})";
  EXPECT_EQ(de.ToJson(), expected);
}

}  // namespace
}  // namespace mlpm
