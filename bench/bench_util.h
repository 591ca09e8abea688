// Shared helpers for the table/figure report generators and the
// engineering microbenchmarks (bench_kernels, bench_fleet).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "datasets/stub_dataset.h"
#include "models/zoo.h"
#include "soc/chipset.h"

namespace mlpm::benchutil {

// ---- machine-readable records (BENCH_*.json) --------------------------------

struct BenchRecord {
  std::string name;
  double value = 0.0;
  std::string unit;
};

inline std::vector<BenchRecord>& Records() {
  static std::vector<BenchRecord> records;
  return records;
}

// Appends one record and prints it as a table row.
inline void Record(const std::string& name, double value,
                   const std::string& unit) {
  Records().push_back({name, value, unit});
  std::printf("  %-44s %12.3f %s\n", name.c_str(), value, unit.c_str());
}

// Hard failure: a number measured from a wrong answer is worthless.
inline void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: check failed: %s\n", what);
    std::exit(1);
  }
}

// Times `fn` adaptively: repeats until `budget_s` is spent and reports the
// best per-iteration seconds (the least-noise estimator for
// microbenchmarks).
template <typename Fn>
double TimeSeconds(double budget_s, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up (page faults, caches)
  double best = 1e300;
  double total = 0.0;
  int batch = 1;
  while (total < budget_s) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count() / batch;
    best = std::min(best, s);
    total += s * batch;
    if (s * batch < 0.01) batch *= 2;  // too fast to time; grow the batch
  }
  return best;
}

// Writes every record to `path` as {"host_threads": N, "benchmarks": [...]}.
inline void WriteJson(const std::string& path, std::size_t host_threads) {
  const std::vector<BenchRecord>& records = Records();
  std::ofstream out(path);
  out << "{\n  \"host_threads\": " << host_threads
      << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", r.value);
    out << "    {\"name\": \"" << r.name << "\", \"value\": " << value
        << ", \"unit\": \"" << r.unit << "\"}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu benchmarks)\n", path.c_str(), records.size());
}

// ---- simulated performance runs ---------------------------------------------

struct PerfOutcome {
  double p90_latency_s = 0.0;
  double mean_latency_s = 0.0;
  double throughput_sps = 0.0;  // single-stream: completed samples / time
  std::size_t samples = 0;
};

// Compliant single-stream run (>=1024 samples, >=60 virtual seconds).
inline PerfOutcome RunSingleStream(const soc::ChipsetDesc& chipset,
                                   models::SuiteVersion version,
                                   models::TaskType task) {
  const models::BenchmarkEntry* entry = nullptr;
  const auto suite = models::SuiteFor(version);
  for (const auto& e : suite)
    if (e.task == task) entry = &e;
  Expects(entry != nullptr, "task not in suite");

  const graph::Graph model = models::BuildReferenceGraph(
      *entry, version, models::ModelScale::kFull);
  const backends::SubmissionConfig sub =
      backends::GetSubmission(chipset, task, version);

  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      chipset.name, soc::SocSimulator(chipset),
      backends::CompileSubmission(chipset, sub, model),
      backends::CompileOfflineReplicas(chipset, sub, model), clock);
  datasets::StubDataset stub;
  loadgen::DatasetQsl qsl(stub);
  loadgen::TestSettings settings;
  const loadgen::TestResult r = loadgen::RunTest(sut, qsl, settings, clock);

  PerfOutcome out;
  out.p90_latency_s = r.percentile_latency_s;
  out.mean_latency_s = r.mean_latency_s;
  out.throughput_sps = r.throughput_sps;
  out.samples = r.sample_count;
  return out;
}

// Compliant offline run (24,576 samples in one burst, ALP per policy).
inline PerfOutcome RunOffline(const soc::ChipsetDesc& chipset,
                              models::SuiteVersion version,
                              models::TaskType task) {
  const auto suite = models::SuiteFor(version);
  const models::BenchmarkEntry* entry = nullptr;
  for (const auto& e : suite)
    if (e.task == task) entry = &e;
  Expects(entry != nullptr, "task not in suite");

  const graph::Graph model = models::BuildReferenceGraph(
      *entry, version, models::ModelScale::kFull);
  const backends::SubmissionConfig sub =
      backends::GetSubmission(chipset, task, version);
  Expects(!sub.offline_replicas.empty(), [&] {
    return chipset.name + " has no offline submission for this task";
  });

  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      chipset.name, soc::SocSimulator(chipset),
      backends::CompileSubmission(chipset, sub, model),
      backends::CompileOfflineReplicas(chipset, sub, model), clock);
  datasets::StubDataset stub;
  loadgen::DatasetQsl qsl(stub);
  loadgen::TestSettings settings;
  settings.scenario = loadgen::TestScenario::kOffline;
  const loadgen::TestResult r = loadgen::RunTest(sut, qsl, settings, clock);

  PerfOutcome out;
  out.throughput_sps = r.throughput_sps;
  out.samples = r.sample_count;
  return out;
}

}  // namespace mlpm::benchutil
