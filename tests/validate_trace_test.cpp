// Tests for graph structure lints (analysis::CheckGraphStructure) and
// execution traces.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/passes.h"
#include "models/ssd.h"
#include "models/mobilenet_edgetpu.h"
#include "models/zoo.h"
#include "backends/vendor_policy.h"
#include "soc/trace.h"

namespace mlpm {
namespace {

// ---- graph structure ----

// The GRAPH001-GRAPH005 findings CheckGraphStructure reports for `g`.
analysis::DiagnosticEngine StructureOf(const graph::Graph& g) {
  analysis::DiagnosticEngine de;
  analysis::CheckGraphStructure(g, de);
  return de;
}

TEST(Validate, WellFormedGraphsPass) {
  for (const models::ModelScale scale :
       {models::ModelScale::kMini, models::ModelScale::kFull}) {
    for (const models::SuiteVersion version :
         {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0}) {
      for (const auto& e : models::SuiteFor(version)) {
        const analysis::DiagnosticEngine de = StructureOf(
            models::BuildReferenceGraph(e, version, scale));
        EXPECT_TRUE(de.empty()) << e.id << ": " << de.ToText();
      }
    }
  }
}

TEST(Validate, BuilderGraphHasNoDeadEnds) {
  graph::GraphBuilder b("t");
  graph::TensorId x = b.Input("in", {4});
  graph::TensorId used = b.Activate(x, graph::Activation::kRelu);
  b.MarkOutput(used);
  EXPECT_TRUE(StructureOf(std::move(b).Build()).empty());
}

TEST(Validate, DetectsDeadEndActivation) {
  graph::GraphBuilder b("t");
  graph::TensorId x = b.Input("in", {4});
  (void)b.Activate(x, graph::Activation::kRelu);  // dangling branch
  b.MarkOutput(b.Activate(x, graph::Activation::kTanh));
  const analysis::DiagnosticEngine de = StructureOf(std::move(b).Build());
  ASSERT_FALSE(de.empty());
  EXPECT_EQ(de.diagnostics()[0].code, "GRAPH001") << de.ToText();
}

TEST(Validate, MultiOutputGraphsPass) {
  // Detection models have two outputs; neither is a dead end.
  const models::DetectionModel m =
      models::BuildMobileDetSsd(models::ModelScale::kMini);
  EXPECT_TRUE(StructureOf(m.graph).empty());
}

// ---- execution traces ----

TEST(Trace, EndTimeMatchesCompiledLatency) {
  const soc::ChipsetDesc chip = soc::Exynos990();
  const graph::Graph model = models::BuildReferenceGraph(
      models::SuiteFor(models::SuiteVersion::kV0_7)[2],
      models::SuiteVersion::kV0_7, models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageSegmentation,
      models::SuiteVersion::kV0_7);
  const soc::CompiledModel cm =
      backends::CompileSubmission(chip, sub, model);
  const soc::ExecutionTrace trace = soc::TraceInference(cm, chip);
  EXPECT_NEAR(trace.TotalDuration(), cm.LatencySeconds(), 1e-9);
}

TEST(Trace, ExynosSegmentationShowsInterconnectTraffic) {
  // The 990 pathology must be visible in the trace: substantial time on
  // the interconnect lane.
  const soc::ChipsetDesc chip = soc::Exynos990();
  const graph::Graph model = models::BuildReferenceGraph(
      models::SuiteFor(models::SuiteVersion::kV0_7)[2],
      models::SuiteVersion::kV0_7, models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageSegmentation,
      models::SuiteVersion::kV0_7);
  const soc::ExecutionTrace trace =
      soc::TraceInference(backends::CompileSubmission(chip, sub, model),
                          chip);
  double interconnect_s = 0.0;
  for (const soc::TraceEvent& e : trace.events())
    if (e.lane == "interconnect") interconnect_s += e.duration_s;
  EXPECT_GT(interconnect_s, 0.5 * trace.TotalDuration());
}

TEST(Trace, EventsAreSequentialAndNonOverlapping) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageClassification,
      models::SuiteVersion::kV1_0);
  const soc::ExecutionTrace trace =
      soc::TraceInference(backends::CompileSubmission(chip, sub, model),
                          chip, 1.0, 0.5);
  double cursor = 0.5;
  for (const soc::TraceEvent& e : trace.events()) {
    EXPECT_GE(e.begin_s, cursor - 1e-12);
    cursor = e.begin_s + e.duration_s;
  }
}

TEST(Trace, ChromeJsonIsWellFormedish) {
  soc::ExecutionTrace t;
  t.Add(soc::TraceEvent{"work", "npu", 0.0, 1e-3});
  t.Add(soc::TraceEvent{"copy", "interconnect", 1e-3, 5e-4});
  const std::string json = t.ToChromeJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"npu\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, ThrottleStretchesComputeOnly) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageClassification,
      models::SuiteVersion::kV1_0);
  const soc::CompiledModel cm =
      backends::CompileSubmission(chip, sub, model);
  const double full = soc::TraceInference(cm, chip, 1.0).TotalDuration();
  const double throttled =
      soc::TraceInference(cm, chip, 0.5).TotalDuration();
  EXPECT_GT(throttled, full * 1.5);
  EXPECT_NEAR(throttled, cm.LatencySeconds(0.5), 1e-9);
}

}  // namespace
}  // namespace mlpm
