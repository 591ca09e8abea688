// Fault-injection study (paper §8 / App. D): what happens to a submission
// when the accelerator driver misbehaves mid-run.
//
// Runs the image-classification performance test on a phone SoC three
// times: clean, under a moderately flaky driver, and under a driver that
// crashes almost every accelerated inference.  The fault-tolerant pipeline
// retries transient faults and, after repeated crashes, degrades to the
// CPU fallback — the run finishes valid-degraded instead of dead, and the
// seeded fault schedule makes every row reproducible.
#include <cstdio>

#include "backends/fault_tolerant_backend.h"
#include "backends/vendor_policy.h"
#include "common/table.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "datasets/stub_dataset.h"
#include "harness/run_session.h"
#include "harness/task_bundle.h"
#include "models/zoo.h"
#include "soc/faults.h"

namespace {

using namespace mlpm;

struct StudyRow {
  std::string label;
  loadgen::TestResult result;
  backends::FaultTolerantBackend::Stats stats;
  std::size_t fault_count = 0;
  std::string fault_log;
};

StudyRow RunStudy(const std::string& label, const soc::ChipsetDesc& chipset,
                  const soc::FaultPlan* plan,
                  const datasets::TaskDataset& dataset) {
  const models::BenchmarkEntry cls =
      models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph model = models::BuildReferenceGraph(
      cls, models::SuiteVersion::kV1_0, models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chipset, cls.task, models::SuiteVersion::kV1_0);

  soc::SocSimulator sim(chipset);
  if (plan != nullptr) sim.InjectFaults(*plan);

  loadgen::VirtualClock clock;
  backends::FaultTolerantBackend sut(
      chipset.name + "/" + label, std::move(sim),
      backends::CompileSubmission(chipset, sub, model),
      backends::CompileCpuFallback(chipset, model, sub.numerics),
      backends::CompileOfflineReplicas(chipset, sub, model), clock);

  loadgen::DatasetQsl qsl(dataset);
  loadgen::TestSettings s;
  s.min_query_count = 256;
  s.min_duration = loadgen::Seconds{2.0};
  s.query_timeout = loadgen::Seconds{5.0};  // virtual-clock watchdog

  StudyRow row;
  row.label = label;
  row.result = loadgen::RunTest(sut, qsl, s, clock);
  row.stats = sut.stats();
  row.fault_count = sut.simulator().fault_count();
  if (const soc::FaultInjector* inj = sut.simulator().fault_injector())
    row.fault_log = inj->EventLogText() + sut.EventLogText();
  return row;
}

}  // namespace

int main() {
  const soc::ChipsetDesc chipset = soc::Dimensity1100();
  const models::BenchmarkEntry cls =
      models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const auto bundle = harness::TaskBundle::Create(
      cls, models::SuiteVersion::kV1_0);
  // A performance study: the simulator never reads sample contents, so a
  // stub of the validation set's size stands in for the labelled set.
  const datasets::StubDataset samples(bundle->dataset_size());

  // The flaky plan: occasional stalls and crashes, the odd lost
  // completion.  The broken plan: the driver crash dominates, forcing the
  // CPU fallback almost immediately.
  const soc::FaultPlan flaky = soc::FaultPlan{}
                                   .TransientStalls(0.05)
                                   .DriverCrashes(0.02)
                                   .SampleDrops(0.01);
  const soc::FaultPlan broken = soc::FaultPlan{}.DriverCrashes(0.95);

  TextTable table("single-stream classification on " + chipset.name +
                  " under injected driver faults");
  table.SetHeader({"Driver", "p90 latency", "Samples", "Timed out",
                   "Retries", "Crashes", "CPU fallback", "Valid"});
  for (const auto& [label, plan] :
       std::initializer_list<std::pair<const char*, const soc::FaultPlan*>>{
           {"clean", nullptr}, {"flaky", &flaky}, {"broken", &broken}}) {
    const StudyRow row = RunStudy(label, chipset, plan, samples);
    table.AddRow({row.label,
                  FormatMs(row.result.percentile_latency_s),
                  std::to_string(row.result.sample_count),
                  std::to_string(row.result.timed_out_count),
                  std::to_string(row.stats.retries),
                  std::to_string(row.stats.driver_crashes),
                  row.stats.degraded_to_cpu ? "yes" : "no",
                  row.result.Errored() ? "NO" : "yes"});
  }
  std::printf("%s\n", table.Render().c_str());

  // The reproducibility artifact: same seed, same schedule, same log.
  const StudyRow again = RunStudy("broken", chipset, &broken, samples);
  std::printf("first injected faults under the broken driver:\n");
  const std::string& log = again.fault_log;
  std::size_t shown = 0, pos = 0;
  while (shown < 8 && pos < log.size()) {
    const std::size_t nl = log.find('\n', pos);
    if (nl == std::string::npos) break;
    std::printf("  %s\n", log.substr(pos, nl - pos).c_str());
    pos = nl + 1;
    ++shown;
  }
  std::printf(
      "\nthe broken driver never produces an accelerated result, yet the\n"
      "run finishes valid-degraded on the CPU fallback; with the same\n"
      "fault-plan seed the schedule above is byte-identical on every run.\n");
  return 0;
}
