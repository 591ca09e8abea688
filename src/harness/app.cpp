#include "harness/app.h"

#include "common/thread_pool.h"
#include "harness/checker.h"
#include "harness/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlpm::harness {

AppRunOutput RunMobileApp(const soc::ChipsetDesc& chipset,
                          models::SuiteVersion version, SuiteBundles& bundles,
                          const RunOptions& options) {
  // One pool serves the run and the check.
  const std::unique_ptr<ThreadPool> pool = MakeRunPool(options.threads);
  AppRunOutput out;
  out.result = RunSubmission(chipset, version, bundles, options, pool.get());
  out.report_text = FormatSubmission(out.result) + FormatProfileTables(options);

  const CheckReport check =
      CheckSubmission(out.result, options.performance_settings, pool.get());
  out.checker_text = FormatCheckReport(check);
  out.submission_valid = check.valid;
  return out;
}

OpProfile CollectOpProfile() {
  const std::vector<obs::TraceEvent> events =
      obs::TraceRecorder::Global().Snapshot();
  return {obs::AggregateSpans(events, obs::Domain::kHost, "node"),
          obs::AggregateSpans(events, obs::Domain::kSim, "soc")};
}

std::string FormatProfileTables(const RunOptions& options) {
  if (!options.profile && options.trace_path.empty()) return {};
  const OpProfile ops = CollectOpProfile();
  std::string text;
  if (!ops.host.empty()) {
    text += '\n';
    text += obs::RenderAggregateTable(ops.host, "executor ops (host)");
  }
  if (!ops.sim.empty()) {
    text += '\n';
    text += obs::RenderAggregateTable(ops.sim, "simulated IP steps");
  }
  text += '\n';
  text += obs::RenderMetricsTable(obs::MetricsRegistry::Global().Snap());
  return text;
}

}  // namespace mlpm::harness
