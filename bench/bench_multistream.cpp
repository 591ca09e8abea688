// Multi-stream scenario — the camera pattern: N concurrent 20 Hz streams
// each delivering a frame per 50 ms interval (think multi-camera object
// detection, one of the deployment scenarios §2.4 motivates).
//
// For each v1.0 phone: the largest stream count whose p90 per-query latency
// still fits inside the 50 ms frame interval.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"

namespace {

using namespace mlpm;

loadgen::TestResult RunMultiStream(const soc::ChipsetDesc& chip,
                                   std::size_t streams) {
  const models::SuiteVersion version = models::SuiteVersion::kV1_0;
  const auto suite = models::SuiteFor(version);
  const graph::Graph model = models::BuildReferenceGraph(
      suite[1], version, models::ModelScale::kFull);  // object detection
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kObjectDetection, version);

  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      chip.name, soc::SocSimulator(chip),
      backends::CompileSubmission(chip, sub, model),
      backends::CompileOfflineReplicas(chip, sub, model), clock);
  datasets::StubDataset stub;
  loadgen::DatasetQsl qsl(stub);
  loadgen::TestSettings s;
  s.scenario = loadgen::TestScenario::kMultiStream;
  s.multistream_samples_per_query = streams;
  s.multistream_interval = loadgen::Seconds{0.050};
  s.multistream_query_count = 256;
  s.latency_percentile = 90.0;
  return loadgen::RunTest(sut, qsl, s, clock);
}

std::size_t MaxStreams(const soc::ChipsetDesc& chip) {
  std::size_t best = 0;
  for (std::size_t n = 1; n <= 32; ++n) {
    if (RunMultiStream(chip, n).latency_bound_met)
      best = n;
    else
      break;
  }
  return best;
}

}  // namespace

int main() {
  TextTable t(
      "multi-stream scenario — object detection, 20 Hz frame interval");
  t.SetHeader({"Chipset", "max streams @50 ms", "p90 at max",
               "p90 one stream"});
  for (const soc::ChipsetDesc& chip :
       {soc::Dimensity1100(), soc::Exynos2100(), soc::Snapdragon888()}) {
    const std::size_t n = MaxStreams(chip);
    const loadgen::TestResult at_max = RunMultiStream(chip, n);
    const loadgen::TestResult one = RunMultiStream(chip, 1);
    t.AddRow({chip.name, std::to_string(n),
              FormatMs(at_max.percentile_latency_s),
              FormatMs(one.percentile_latency_s)});
  }
  std::printf("%s", t.Render().c_str());
  std::printf(
      "\nhow many concurrent camera streams a phone sustains is the\n"
      "multi-frame deployment question behind the offline scenario's\n"
      "album-processing story (paper §4.2).\n");
  return 0;
}
