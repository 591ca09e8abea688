// One benchmark op per process: the repo benchmark's worker (see README.md
// in this directory and run.py, which drives it).
//
// A process sets up, runs exactly one op of a workload, and prints one JSON
// object on stdout.  A fresh process per op gives every op the state a fresh
// `headless_cli` process would have (new SuiteBundles, new fleet cache, no
// process-wide memo left behind by an earlier op), and makes the set-up time
// and the peak RSS per-op measurements.
//
// Untraced ops call the public entry points (harness::RunMobileApp,
// fleet::RunFleet) exactly as headless_cli does.  A traced op (--trace)
// instead makes the same sequence of public layer calls itself, with the
// benchmark's own span around each call, and must reproduce the untraced
// op's outputs byte for byte; after the op it runs the per-layer probes.
//
// Usage:
//   perfbench_op --workload submission_acc|submission_perf|fleet_serve
//                [--seed N] [--t0-ns NS] [--trace] [--isa auto|scalar]
//
// --seed defaults to the LoadGen's official seed.  --t0-ns is the
// CLOCK_MONOTONIC time at which the caller launched this process; set-up
// time is measured from it (from main() when absent).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/passes.h"
#include "backends/reference_backend.h"
#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/dataset_qsl.h"
#include "fleet/fleet.h"
#include "fleet/report.h"
#include "graph/cost.h"
#include "harness/app.h"
#include "harness/checker.h"
#include "harness/report.h"
#include "infer/memory_plan.h"
#include "infer/tile_planner.h"
#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "soc/simulator.h"

namespace {

using namespace mlpm;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kFleetShards = 64;
constexpr std::size_t kFleetQueriesPerShard = 8192;
constexpr std::size_t kFleetQueueDepth = 64;
// Simulated single-stream inferences per compiled plan in the soc probe.
constexpr int kSocProbeInferences = 2000;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// FNV-1a, 64 bit: digests of the deterministic outputs.
std::uint64_t Fnv(std::string_view s,
                  std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// Exact rendering of a double, so a digest changes with any bit.
std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double maxrss_mib = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

std::uint64_t SocInferences() {
  return obs::MetricsRegistry::Global().counter("soc.inferences");
}

// The benchmark's own spans: seconds per layer-call name, summed over the
// op.  Every span it records is top-level (none nests inside another), so
// the op wall minus their sum is the unattributed remainder.
class Spans {
 public:
  template <typename F>
  decltype(auto) Time(const std::string& name, F&& f) {
    struct Guard {
      Spans& s;
      const std::string& n;
      Clock::time_point t0 = Clock::now();
      ~Guard() { s.totals_[n] += Since(t0); }
    } guard{*this, name};
    return f();
  }
  [[nodiscard]] double Get(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& totals() const {
    return totals_;
  }

 private:
  std::map<std::string, double> totals_;
};

// One op's outputs and accounting, serialized for run.py.
struct OpOutput {
  std::string digest;                    // whole-op outputs
  std::vector<std::string> unit_digests; // per suite task / fleet shard
  std::size_t units = 0;
  std::size_t failed_units = 0;          // errored or invalid
  double wall_s = 0.0;
  Usage usage_delta;                     // CPU spent by the op
  std::uint64_t soc_inferences = 0;      // soc.inferences counter delta
  Spans spans;                           // traced ops only
  std::map<std::string, double> values;  // traced ops and probes
};

// ---- workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  infer::kernels::KernelIsa isa = infer::kernels::KernelIsa::kAuto;
  std::vector<soc::ChipsetDesc> chipsets;  // submissions, in order
  harness::RunOptions run;                 // submissions
  fleet::FleetOptions fleet;               // fleet_serve
};

int HostThreads() {
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed,
                                     infer::kernels::KernelIsa isa) {
  Workload w;
  w.name = name;
  w.isa = isa;
  if (name == "submission_acc" || name == "submission_perf") {
    const std::vector<soc::ChipsetDesc> catalog = soc::CatalogV10();
    if (name == "submission_acc") {
      for (const soc::ChipsetDesc& c : catalog)
        if (c.name == "Dimensity 1100") w.chipsets.push_back(c);
      Expects(w.chipsets.size() == 1, "Dimensity 1100 missing from catalog");
    } else {
      w.chipsets = catalog;
    }
    // headless_cli defaults, with --threads nproc.
    w.run.run_accuracy = name == "submission_acc";
    w.run.threads = HostThreads();
    w.run.kernel_isa = isa;
    w.run.performance_settings.seed = seed;
    return w;
  }
  if (name == "fleet_serve") {
    fleet::FleetOptions& fo = w.fleet;
    fo.shard_count = kFleetShards;
    fo.version = models::SuiteVersion::kV1_0;
    fo.mix = fleet::DefaultFleetMix(fo.version);
    fo.settings.seed = seed;
    fo.settings.server_query_count = kFleetQueriesPerShard;
    fo.settings.server_max_queue_depth = kFleetQueueDepth;
    fo.settings.server_max_shed_fraction = 1.0;
    fo.workers = static_cast<std::size_t>(HostThreads());
    return w;
  }
  return std::nullopt;
}

// Deterministic per-task outputs.  The kernel ISA column is left out on
// purpose: scores are bit-identical across ISAs, so the scalar probe's
// units must digest the same as the auto op's.
std::string TaskDigest(const harness::TaskRunResult& t) {
  std::string s = t.entry.id + "|" + std::string(harness::ToString(t.status)) +
                  "|" + Exact(t.accuracy) + "|" + Exact(t.fp32_reference) +
                  "|" + Exact(t.ratio_to_fp32) + "|" +
                  (t.quality_passed ? "pass" : "fail") + "|" +
                  std::to_string(t.accuracy_sample_count) + "|" +
                  Exact(t.energy_per_inference_j) + "|" +
                  Exact(t.peak_temperature_c) + "|" +
                  std::to_string(t.shed_count);
  for (const std::optional<loadgen::TestResult>* r :
       {&t.single_stream, &t.offline}) {
    if (!r->has_value()) {
      s += "|-";
      continue;
    }
    const loadgen::TestResult& x = **r;
    s += "|" + std::to_string(x.sample_count) + "," +
         Exact(x.percentile_latency_s) + "," + Exact(x.mean_latency_s) + "," +
         Exact(x.throughput_sps) + "," + Exact(x.duration_s);
  }
  return Hex(Fnv(s));
}

std::string ShardDigest(const fleet::ShardResult& s) {
  const loadgen::TestResult& r = s.result;
  const std::string text =
      std::to_string(s.shard_id) + "|" + s.config_key + "|" +
      std::string(harness::ToString(s.state)) + "|" +
      (s.slo_met ? "slo" : "miss") + "|" + std::to_string(r.issued_count) +
      "|" + std::to_string(r.sample_count) + "|" +
      std::to_string(r.shed_count) + "|" + Exact(r.percentile_latency_s) +
      "|" + Exact(r.throughput_sps) + "|" + Exact(s.energy_j);
  return Hex(Fnv(text));
}

bool UnitFailed(harness::TaskStatus s) {
  return s == harness::TaskStatus::kErrored ||
         s == harness::TaskStatus::kInvalid;
}

// Records one submission's outputs into `out`; returns the text digested.
std::string AccountSubmission(const harness::SubmissionResult& result,
                              const std::string& report_text,
                              const std::string& checker_text, bool valid,
                              OpOutput& out) {
  for (const harness::TaskRunResult& t : result.tasks) {
    ++out.units;
    // An invalid submission fails every task it holds.
    if (!valid || UnitFailed(t.status)) ++out.failed_units;
    out.unit_digests.push_back(TaskDigest(t));
  }
  return report_text + "\n" + checker_text + "\n" +
         (valid ? "valid" : "INVALID") + "\n";
}

// ---- untraced ops ---------------------------------------------------------

void RunSubmissionsUntraced(const Workload& w, OpOutput& out) {
  harness::SuiteBundles bundles;
  std::string all;
  for (const soc::ChipsetDesc& chipset : w.chipsets) {
    const harness::AppRunOutput app = harness::RunMobileApp(
        chipset, models::SuiteVersion::kV1_0, bundles, w.run);
    all += AccountSubmission(app.result, app.report_text, app.checker_text,
                             app.submission_valid, out);
  }
  out.digest = Hex(Fnv(all));
}

void AccountFleet(const fleet::FleetReport& report, const std::string& text,
                  OpOutput& out) {
  for (const fleet::ShardResult& s : report.shards) {
    ++out.units;
    if (UnitFailed(s.state)) ++out.failed_units;
    out.unit_digests.push_back(ShardDigest(s));
  }
  // Shards missing from an interrupted report count as failed.
  if (report.shards.size() < report.shard_count) {
    out.failed_units += report.shard_count - report.shards.size();
    out.units = report.shard_count;
  }
  out.digest = Hex(Fnv(text));
}

void RunFleetUntraced(const Workload& w, OpOutput& out) {
  const fleet::FleetReport report = fleet::RunFleet(w.fleet);
  AccountFleet(report, fleet::FormatFleetReport(report), out);
}

// ---- traced submission op -------------------------------------------------

infer::NumericsMode ModeFor(DataType numerics) {
  switch (numerics) {
    case DataType::kInt8:
    case DataType::kUInt8:
      return infer::NumericsMode::kInt8;
    case DataType::kFloat16:
      return infer::NumericsMode::kFp16;
    case DataType::kFloat32:
    case DataType::kInt32:
      return infer::NumericsMode::kFp32;
  }
  return infer::NumericsMode::kFp32;
}

// Static verification, through the analysis layer's public passes in the
// order the harness runs them.
analysis::DiagnosticEngine LintTask(const soc::ChipsetDesc& chipset,
                                    const backends::SubmissionConfig& sub,
                                    const graph::Graph& full,
                                    const harness::RunOptions& options) {
  analysis::DiagnosticEngine de;
  analysis::RunModelPasses(full, de);
  analysis::QuantConfigView q;
  q.activation_dtype = sub.numerics;
  q.qat_weights = options.use_qat_weights;
  analysis::CheckQuantLegality(full, q, de);
  const std::string prefix = chipset.name + "/" + sub.framework.name;
  analysis::MappingConfigView m;
  m.chipset = &chipset;
  m.numerics = sub.numerics;
  m.policy = &sub.single_stream;
  m.label = prefix + "/single_stream";
  analysis::CheckSocMapping(full, m, de);
  for (std::size_t i = 0; i < sub.offline_replicas.size(); ++i) {
    m.policy = &sub.offline_replicas[i];
    m.label = prefix + "/offline[" + std::to_string(i) + "]";
    analysis::CheckSocMapping(full, m, de);
  }
  analysis::RunConfigView rc;
  rc.threads = options.threads;
  rc.cooldown_s = options.cooldown_s;
  rc.max_test_retries = options.max_test_retries;
  rc.kernel_isa = std::string(ToString(options.kernel_isa));
  rc.kernel_isa_available =
      infer::kernels::KernelRegistry::Global().Available(options.kernel_isa);
  rc.tiling_requested = options.tiling.enabled;
  rc.tile_rows = options.tiling.rows;
  rc.graph_has_fusable_segment = infer::HasFusableSegment(full);
  analysis::CheckRunConfig(rc, de);
  return de;
}

// Host self time of the executor's node spans, folded into the four
// op classes the per-layer table reports.
void FoldNodeSpans(OpOutput& out) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Disable();
  const std::vector<obs::TraceEvent> events = rec.Snapshot();
  for (const obs::OpAggregate& a :
       obs::AggregateSpans(events, obs::Domain::kHost, "node")) {
    std::string cls = "other";
    if (a.name == graph::ToString(graph::OpType::kConv2d)) cls = "conv2d";
    else if (a.name == graph::ToString(graph::OpType::kDepthwiseConv2d))
      cls = "depthwise_conv2d";
    else if (a.name == graph::ToString(graph::OpType::kFullyConnected))
      cls = "fully_connected";
    out.values["infer.op_self_s." + cls] += a.total_self_us * 1e-6;
  }
}

// The harness's per-task sequence (run rules §6.1: accuracy, then
// single-stream, cooldown, offline), one public layer call per span.
harness::TaskRunResult RunTaskTraced(const soc::ChipsetDesc& chipset,
                                     harness::SuiteBundles& bundles,
                                     std::set<std::string>& built,
                                     const harness::RunOptions& options,
                                     const ThreadPool* pool,
                                     const models::BenchmarkEntry& entry,
                                     OpOutput& out) {
  constexpr models::SuiteVersion kVersion = models::SuiteVersion::kV1_0;
  Spans& sp = out.spans;
  harness::TaskRunResult tr;
  tr.entry = entry;

  const harness::TaskBundle& bundle =
      sp.Time("datasets.bundle_s", [&]() -> const harness::TaskBundle& {
        return bundles.Get(entry, kVersion);
      });
  if (built.insert(entry.id).second)
    out.values["datasets.samples_built"] +=
        static_cast<double>(bundle.dataset().size());

  backends::SubmissionConfig sub;
  graph::Graph full;
  infer::TileOptions tile_opt = options.tiling;
  sp.Time("harness.pretask_s", [&] {
    sub = backends::GetSubmission(chipset, entry.task, kVersion);
    tr.numerics = sub.numerics;
    tr.framework_name = sub.framework.name;
    tr.accelerator_label = sub.accelerator_label;
    tr.kernel_isa = std::string(infer::kernels::ToString(
        infer::kernels::KernelRegistry::Global().Resolve(options.kernel_isa)));
    full = models::BuildReferenceGraph(entry, kVersion,
                                       models::ModelScale::kFull);
    tr.tiling_requested = options.tiling.enabled;
    tr.tile_rows = options.tiling.enabled ? options.tiling.rows : 0;
    if (tile_opt.enabled && tile_opt.rows != -1 && tile_opt.rows < 1)
      tile_opt.enabled = false;
    const infer::TilePlan full_tiles = infer::BuildTilePlan(full, tile_opt);
    const infer::MemoryPlan plan = infer::MemoryPlan::Build(
        full, full_tiles.empty() ? nullptr : &full_tiles);
    tr.peak_arena_bytes = plan.peak_arena_bytes();
    tr.naive_activation_bytes = plan.naive_bytes();
    tr.tile_segments = full_tiles.segments.size();
    tr.tile_slab_bytes = plan.tile_slab_bytes();
    if (options.lint != harness::LintMode::kOff) {
      const analysis::DiagnosticEngine de =
          LintTask(chipset, sub, full, options);
      tr.lint_error_count = de.error_count();
      tr.lint_warning_count = de.warning_count();
      tr.lint_log = de.ToText();
    }
  });

  if (options.run_accuracy) {
    const infer::NumericsMode mode = ModeFor(sub.numerics);
    const harness::TaskBundle::PreparedModel prepared =
        sp.Time("quant.prepare_s", [&] {
          return bundle.Prepare(mode, false, options.kernel_isa, false,
                                tile_opt);
        });
    const infer::Executor& exec =
        *NotNull(prepared.executor, "TaskBundle::Prepare returned no executor");
    tr.calibration_indices = prepared.calibration_indices;
    tr.tiling_applied = exec.tiled();
    out.values["infer.arena_bytes"] +=
        static_cast<double>(exec.memory_plan().peak_arena_bytes());

    // The executor's own node spans feed infer.op_self_s.*.
    obs::TraceRecorder::Global().Enable();
    sp.Time("infer.accuracy_s", [&] {
      loadgen::DatasetQsl qsl(bundle.dataset());
      loadgen::RealClock clock;
      backends::ReferenceBackend ref_sut("reference/" + entry.id, exec, qsl,
                                         pool);
      loadgen::TestSettings acc;
      acc.mode = loadgen::TestMode::kAccuracyOnly;
      const loadgen::TestResult r = loadgen::RunTest(ref_sut, qsl, acc, clock);
      tr.accuracy = bundle.dataset().ScoreOutputs(r.accuracy_outputs);
      tr.accuracy_sample_count = r.sample_count;
    });
    tr.dataset_size = bundle.dataset().size();
    tr.fp32_reference = sp.Time("infer.fp32_ref_s", [&] {
      return bundle.Fp32Score(pool, options.kernel_isa);
    });
    sp.Time("obs.aggregate_s", [&] { FoldNodeSpans(out); });
    tr.ratio_to_fp32 =
        tr.fp32_reference > 0 ? tr.accuracy / tr.fp32_reference : 0.0;
    tr.quality_passed = tr.ratio_to_fp32 >= entry.quality_target;

    const double macs =
        static_cast<double>(graph::AnalyzeGraph(bundle.mini_graph()).total_macs);
    out.values["infer.samples"] += static_cast<double>(tr.accuracy_sample_count);
    out.values["infer.flops"] +=
        2.0 * macs * static_cast<double>(tr.accuracy_sample_count);
  }

  if (options.run_performance) {
    const std::string sut_name = chipset.name + "/" + sub.framework.name;
    const bool has_offline =
        options.run_offline && !sub.offline_replicas.empty();
    loadgen::DatasetQsl qsl(bundle.dataset());
    loadgen::VirtualClock clock;
    soc::CompiledModel ss_plan;
    std::vector<soc::CompiledModel> replicas;
    sp.Time("backends.compile_s", [&] {
      ss_plan = backends::CompileSubmission(chipset, sub, full);
      replicas = backends::CompileOfflineReplicas(chipset, sub, full);
    });
    backends::SimulatedBackend sut(sut_name, soc::SocSimulator(chipset),
                                   std::move(ss_plan), std::move(replicas),
                                   clock);
    loadgen::TestSettings ss = options.performance_settings;
    ss.scenario = loadgen::TestScenario::kSingleStream;
    ss.mode = loadgen::TestMode::kPerformanceOnly;
    tr.single_stream = sp.Time("core.loadgen_s.single_stream", [&] {
      return loadgen::RunTest(sut, qsl, ss, clock);
    });
    out.values["core.queries.single_stream"] +=
        static_cast<double>(tr.single_stream->issued_count);
    tr.peak_temperature_c = sut.simulator().thermal().temperature_c();
    if (has_offline) {
      sut.Cooldown(options.cooldown_s);
      loadgen::TestSettings off = options.performance_settings;
      off.scenario = loadgen::TestScenario::kOffline;
      off.mode = loadgen::TestMode::kPerformanceOnly;
      tr.offline = sp.Time("core.loadgen_s.offline", [&] {
        return loadgen::RunTest(sut, qsl, off, clock);
      });
      out.values["core.queries.offline"] +=
          static_cast<double>(tr.offline->sample_count);
      tr.peak_temperature_c = std::max(
          tr.peak_temperature_c, sut.simulator().thermal().temperature_c());
    }
    tr.performance_attempts = 1;
    tr.fault_count = sut.simulator().fault_count();
    tr.shed_count = tr.single_stream->shed_count +
                    (tr.offline ? tr.offline->shed_count : 0);
    tr.rejected_count = tr.single_stream->rejected_count +
                        (tr.offline ? tr.offline->rejected_count : 0);
    if (tr.single_stream->sample_count > 0)
      tr.energy_per_inference_j =
          sut.total_energy_j() /
          static_cast<double>(tr.single_stream->sample_count);
    // No fault plan, so an errored test would be errored again on retry.
    if (tr.single_stream->Errored() || (tr.offline && tr.offline->Errored())) {
      tr.status = harness::TaskStatus::kInvalid;
      tr.status_detail = tr.single_stream->Errored()
                             ? tr.single_stream->invalid_reason
                             : tr.offline->invalid_reason;
      return tr;
    }
  }

  const std::size_t anomalies =
      (tr.single_stream ? tr.single_stream->AnomalyCount() : 0) +
      (tr.offline ? tr.offline->AnomalyCount() : 0);
  if (tr.fault_count > 0 || anomalies > 0)
    tr.status = harness::TaskStatus::kValidDegraded;
  return tr;
}

void RunSubmissionsTraced(const Workload& w, harness::SuiteBundles& bundles,
                          OpOutput& out) {
  Spans& sp = out.spans;
  std::set<std::string> built;
  std::optional<ThreadPool> pool_storage;
  const ThreadPool* pool = nullptr;
  if (w.run.run_accuracy && w.run.threads != 1) {
    pool_storage.emplace(static_cast<std::size_t>(std::max(0, w.run.threads)));
    if (pool_storage->thread_count() > 1) pool = &*pool_storage;
  }
  std::string all;
  for (const soc::ChipsetDesc& chipset : w.chipsets) {
    harness::SubmissionResult result;
    result.chipset_name = chipset.name;
    result.version = models::SuiteVersion::kV1_0;
    for (const models::BenchmarkEntry& entry : models::SuiteFor(result.version))
      result.tasks.push_back(
          RunTaskTraced(chipset, bundles, built, w.run, pool, entry, out));
    const std::string report = sp.Time("harness.report_s", [&] {
      return harness::FormatSubmission(result);
    });
    const harness::CheckReport check = sp.Time("harness.checker_s", [&] {
      return harness::CheckSubmission(result, w.run.performance_settings);
    });
    all += AccountSubmission(result, report, harness::FormatCheckReport(check),
                             check.valid, out);
  }
  out.digest = Hex(Fnv(all));
}

void RunFleetTraced(const Workload& w, OpOutput& out) {
  const fleet::FleetReport report =
      out.spans.Time("fleet.run_s", [&] { return fleet::RunFleet(w.fleet); });
  const std::string text = out.spans.Time(
      "fleet.report_s", [&] { return fleet::FormatFleetReport(report); });
  AccountFleet(report, text, out);
  out.values["fleet.offered"] = static_cast<double>(report.offered);
  out.values["fleet.shed"] = static_cast<double>(report.shed);
  out.values["fleet.models_built"] =
      static_cast<double>(report.prepared_models_built);
}

// ---- per-layer probes (after the op; not part of its wall time) -----------

// Performance-only query source for the server-scenario probe: the
// simulated plane never reads sample contents.
class StubDataset final : public datasets::TaskDataset {
 public:
  [[nodiscard]] std::size_t size() const override { return 8; }
  [[nodiscard]] std::vector<infer::Tensor> InputsFor(
      std::size_t) const override {
    std::vector<infer::Tensor> v;
    v.emplace_back(graph::TensorShape({1}));
    return v;
  }
  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>>) const override {
    return 0.0;
  }
  [[nodiscard]] std::string_view metric_name() const override {
    return "none";
  }
  [[nodiscard]] std::vector<infer::Tensor> CalibrationInputsFor(
      std::size_t index) const override {
    return InputsFor(index);
  }
};

struct Config {
  soc::ChipsetDesc chipset;
  models::BenchmarkEntry entry;
};

std::vector<Config> ConfigsOf(const Workload& w) {
  std::vector<Config> out;
  if (!w.chipsets.empty()) {
    for (const soc::ChipsetDesc& c : w.chipsets)
      for (const models::BenchmarkEntry& e :
           models::SuiteFor(models::SuiteVersion::kV1_0))
        out.push_back({c, e});
    return out;
  }
  for (const fleet::ResolvedMixEntry& r :
       fleet::ResolveMix(w.fleet.mix, models::SuiteVersion::kV1_0))
    out.push_back({r.chipset, r.entry});
  return out;
}

// soc: simulated single-stream inferences on each compiled plan, without
// the LoadGen.  fleet_serve also runs each distinct config's server test
// serially (what one shard does) for the core server-scenario figures.
void ProbeSimulator(const Workload& w, OpOutput& out) {
  const bool fleet_workload = w.chipsets.empty();
  double soc_s = 0.0;
  double soc_n = 0.0;
  for (const Config& c : ConfigsOf(w)) {
    const backends::SubmissionConfig sub = backends::GetSubmission(
        c.chipset, c.entry.task, models::SuiteVersion::kV1_0);
    const graph::Graph full = models::BuildReferenceGraph(
        c.entry, models::SuiteVersion::kV1_0, models::ModelScale::kFull);
    const Clock::time_point tc = Clock::now();
    const soc::CompiledModel plan =
        backends::CompileSubmission(c.chipset, sub, full);
    if (fleet_workload) out.values["backends.compile_s"] += Since(tc);

    soc::SocSimulator sim(c.chipset);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSocProbeInferences; ++i)
      static_cast<void>(sim.RunInference(plan));
    soc_s += Since(t0);
    soc_n += kSocProbeInferences;

    if (!fleet_workload) continue;
    loadgen::VirtualClock clock;
    backends::SimulatedBackend sut("probe", soc::SocSimulator(c.chipset), plan,
                                   {}, clock);
    StubDataset stub;
    loadgen::DatasetQsl qsl(stub);
    loadgen::TestSettings s = w.fleet.settings;
    s.mode = loadgen::TestMode::kPerformanceOnly;
    const Clock::time_point tl = Clock::now();
    const loadgen::TestResult r = loadgen::RunTest(sut, qsl, s, clock);
    out.values["core.loadgen_s.server"] += Since(tl);
    out.values["core.queries.server"] +=
        static_cast<double>(r.issued_count + r.shed_count);
  }
  out.values["soc.ns_per_inference"] = soc_s * 1e9 / soc_n;
}

// core: staging every sample of the suite's data sets into RAM once.
void ProbeQslLoad(harness::SuiteBundles& bundles, OpOutput& out) {
  double total = 0.0;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const datasets::TaskDataset& ds =
        bundles.Get(e, models::SuiteVersion::kV1_0).dataset();
    std::vector<std::size_t> all(ds.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    loadgen::DatasetQsl qsl(ds);
    const Clock::time_point t0 = Clock::now();
    qsl.LoadSamplesToRam(all);
    total += Since(t0);
  }
  out.values["core.qsl_load_s"] = total;
}

// common: accuracy scoring at one thread vs the pool; the scores must be
// bit-identical (a mismatch fails the op).
void ProbePool(const Workload& w, harness::SuiteBundles& bundles,
               OpOutput& out) {
  const ThreadPool pool(static_cast<std::size_t>(HostThreads()));
  double serial_s = 0.0;
  double pooled_s = 0.0;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const harness::TaskBundle& b = bundles.Get(e, models::SuiteVersion::kV1_0);
    const backends::SubmissionConfig sub = backends::GetSubmission(
        w.chipsets.front(), e.task, models::SuiteVersion::kV1_0);
    const harness::TaskBundle::PreparedModel p =
        b.Prepare(ModeFor(sub.numerics), false, w.isa);
    Clock::time_point t0 = Clock::now();
    const double serial = b.ScoreAccuracy(*p.executor, nullptr);
    serial_s += Since(t0);
    t0 = Clock::now();
    const double pooled = b.ScoreAccuracy(*p.executor, &pool);
    pooled_s += Since(t0);
    if (serial != pooled) ++out.failed_units;
  }
  out.values["common.pool_speedup"] = serial_s / pooled_s;
}

// fleet: the same fleet on one worker; its report must be byte-identical.
void ProbeFleetScaling(const Workload& w, OpOutput& out) {
  fleet::FleetOptions one = w.fleet;
  one.workers = 1;
  const Clock::time_point t0 = Clock::now();
  const fleet::FleetReport report = fleet::RunFleet(one);
  const double wall1 = Since(t0);
  if (Hex(Fnv(fleet::FormatFleetReport(report))) != out.digest)
    out.failed_units += report.shard_count;
  out.values["fleet.wall_1_worker_s"] = wall1;
  out.values["fleet.scaling"] = wall1 / out.spans.Get("fleet.run_s");
}

// ---- output ---------------------------------------------------------------

void PrintJson(const Workload& w, double setup_s, const OpOutput& o) {
  std::string s = "{";
  const auto num = [&](const std::string& k, double v) {
    s += "\"" + k + "\": " + Exact(v) + ", ";
  };
  s += "\"workload\": \"" + w.name + "\", ";
  s += "\"isa\": \"" +
       std::string(infer::kernels::ToString(
           infer::kernels::KernelRegistry::Global().Resolve(w.isa))) +
       "\", ";
  s += "\"digest\": \"" + o.digest + "\", ";
  num("setup_s", setup_s);
  num("wall_s", o.wall_s);
  num("cpu_s", o.usage_delta.user_s + o.usage_delta.sys_s);
  num("sys_s", o.usage_delta.sys_s);
  num("peak_rss_mib", ReadUsage().maxrss_mib);
  num("units", static_cast<double>(o.units));
  num("failed_units", static_cast<double>(o.failed_units));
  num("soc_inferences", static_cast<double>(o.soc_inferences));
  s += "\"unit_digests\": [";
  for (std::size_t i = 0; i < o.unit_digests.size(); ++i)
    s += (i ? ", \"" : "\"") + o.unit_digests[i] + "\"";
  s += "], \"spans\": {";
  bool first = true;
  for (const auto& [k, v] : o.spans.totals()) {
    s += (first ? "\"" : ", \"") + k + "\": " + Exact(v);
    first = false;
  }
  s += "}, \"values\": {";
  first = true;
  for (const auto& [k, v] : o.values) {
    s += (first ? "\"" : ", \"") + k + "\": " + Exact(v);
    first = false;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int PrintUsage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_op: %s\nusage: perfbench_op --workload "
               "submission_acc|submission_perf|fleet_serve [--seed N] "
               "[--t0-ns NS] [--trace] [--isa auto|scalar]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point main_start = Clock::now();
  std::string workload;
  std::uint64_t seed = loadgen::kOfficialSeed;
  std::optional<std::int64_t> t0_ns;
  bool traced = false;
  infer::kernels::KernelIsa isa = infer::kernels::KernelIsa::kAuto;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      traced = true;
      continue;
    }
    if (i + 1 >= argc) return PrintUsage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--t0-ns") {
      t0_ns = std::strtoll(value, nullptr, 10);
    } else if (arg == "--isa") {
      const std::optional<infer::kernels::KernelIsa> parsed =
          infer::kernels::ParseKernelIsa(value);
      if (!parsed) return PrintUsage("unknown --isa");
      isa = *parsed;
    } else {
      return PrintUsage(("unknown flag " + arg).c_str());
    }
  }

  // Set-up: the kernel-registry probe, the catalog lookup and the option
  // structs, as a fresh headless_cli process does them.
  static_cast<void>(infer::kernels::KernelRegistry::Global());
  const std::optional<Workload> w = MakeWorkload(workload, seed, isa);
  if (!w) return PrintUsage("unknown workload");
  const bool fleet_workload = w->chipsets.empty();

  const Clock::time_point op_start = Clock::now();
  const double setup_s =
      t0_ns ? static_cast<double>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      op_start.time_since_epoch())
                      .count() -
                  *t0_ns) *
                  1e-9
            : std::chrono::duration<double>(op_start - main_start).count();

  OpOutput out;
  // A fresh cache for the traced op, reused afterwards by its probes.
  harness::SuiteBundles bundles;
  try {
    const Usage u0 = ReadUsage();
    const std::uint64_t inferences0 = SocInferences();
    if (fleet_workload)
      traced ? RunFleetTraced(*w, out) : RunFleetUntraced(*w, out);
    else
      traced ? RunSubmissionsTraced(*w, bundles, out)
             : RunSubmissionsUntraced(*w, out);
    out.wall_s = Since(op_start);
    const Usage u1 = ReadUsage();
    out.usage_delta.user_s = u1.user_s - u0.user_s;
    out.usage_delta.sys_s = u1.sys_s - u0.sys_s;
    out.soc_inferences = SocInferences() - inferences0;

    if (traced) {
      ProbeSimulator(*w, out);
      if (fleet_workload) {
        ProbeFleetScaling(*w, out);
      } else {
        ProbeQslLoad(bundles, out);
        if (w->run.run_accuracy) ProbePool(*w, bundles, out);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_op: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  PrintJson(*w, setup_s, out);
  return 0;
}
