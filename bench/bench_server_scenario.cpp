// LoadGen server scenario — latency-bounded throughput (paper §4.1 lists
// it among what the LoadGen measures; phones running assistant-style
// services see exactly this Poisson-arrival pattern).
//
// For each v1.0 phone: the highest Poisson arrival rate at which the p90
// image-classification latency stays under a 15 ms bound, found by binary
// search, plus the p90 latency at 50% of that rate.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"

namespace {

using namespace mlpm;

loadgen::TestResult RunServer(const soc::ChipsetDesc& chip, double qps,
                              loadgen::Seconds bound,
                              std::size_t max_queue_depth = 0) {
  const models::SuiteVersion version = models::SuiteVersion::kV1_0;
  const auto suite = models::SuiteFor(version);
  const graph::Graph model = models::BuildReferenceGraph(
      suite[0], version, models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageClassification, version);

  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      chip.name, soc::SocSimulator(chip),
      backends::CompileSubmission(chip, sub, model), {}, clock);
  datasets::StubDataset stub;
  loadgen::DatasetQsl qsl(stub);
  loadgen::TestSettings s;
  s.scenario = loadgen::TestScenario::kServer;
  s.server_target_qps = qps;
  s.server_latency_bound = bound;
  s.server_query_count = 4096;
  s.server_max_queue_depth = max_queue_depth;
  s.server_max_shed_fraction = 1.0;  // report, don't gate, in this bench
  return loadgen::RunTest(sut, qsl, s, clock);
}

}  // namespace

int main() {
  const loadgen::Seconds bound{0.015};
  TextTable t("server scenario — image classification, p90 bound 15 ms");
  t.SetHeader({"Chipset", "max QPS under bound", "p90 at 50% load",
               "single-stream 1/latency"});
  for (const soc::ChipsetDesc& chip :
       {soc::Dimensity1100(), soc::Exynos2100(), soc::Snapdragon888()}) {
    const double max_qps = loadgen::FindMaxServerQps(
        [&](double qps) { return RunServer(chip, qps, bound); }, 20.0,
        2000.0, 9);
    const loadgen::TestResult half = RunServer(chip, max_qps / 2, bound);
    const benchutil::PerfOutcome ss = benchutil::RunSingleStream(
        chip, models::SuiteVersion::kV1_0,
        models::TaskType::kImageClassification);
    t.AddRow({chip.name, FormatDouble(max_qps, 0),
              FormatMs(half.percentile_latency_s),
              FormatDouble(1.0 / ss.p90_latency_s, 0) + " q/s"});
  }
  std::printf("%s", t.Render().c_str());
  std::printf(
      "\nqueueing pushes the sustainable service rate well below the\n"
      "single-stream inverse latency — the reason latency-bounded\n"
      "throughput is its own LoadGen scenario.\n");

  // Overload with admission control (DESIGN.md §12): offer 2x the rate
  // each chipset can sustain, once with an unbounded queue and once with a
  // bounded issue queue that sheds.  Shedding trades a fraction of the
  // offered load for an accepted-query p90 that stays near the bound.
  TextTable o("2x overload — unbounded queue vs admission control (depth 8)");
  o.SetHeader({"Chipset", "p90 unbounded", "p90 with shedding",
               "shed fraction", "accepted bound met"});
  for (const soc::ChipsetDesc& chip :
       {soc::Dimensity1100(), soc::Exynos2100(), soc::Snapdragon888()}) {
    const double max_qps = loadgen::FindMaxServerQps(
        [&](double qps) { return RunServer(chip, qps, bound); }, 20.0,
        2000.0, 9);
    const loadgen::TestResult unbounded =
        RunServer(chip, 2 * max_qps, bound);
    const loadgen::TestResult shed = RunServer(chip, 2 * max_qps, bound, 8);
    o.AddRow({chip.name, FormatMs(unbounded.percentile_latency_s),
              FormatMs(shed.percentile_latency_s),
              FormatPercent(static_cast<double>(shed.shed_count) / 4096.0, 1),
              shed.latency_bound_met ? "yes" : "no"});
  }
  std::printf("\n%s", o.Render().c_str());
  std::printf(
      "\nload shedding keeps the accepted-query tail flat under overload;\n"
      "the cost is explicit — the shed fraction — instead of an unbounded\n"
      "latency blow-up.\n");
  return 0;
}
