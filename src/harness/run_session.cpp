#include "harness/run_session.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "analysis/passes.h"
#include "backends/reference_backend.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/dataset_qsl.h"
#include "datasets/stub_dataset.h"
#include "harness/journal.h"
#include "infer/memory_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlpm::harness {
namespace {

// Analytical pre/post-processing cost on the CPU (the "AI tax" the
// end-to-end extension includes; paper App. E).
backends::EndToEndCosts EstimateEndToEndCosts(
    const models::BenchmarkEntry& e) {
  backends::EndToEndCosts c;
  const double cpu_elem_rate = 2.0e9;  // elementwise ops per second
  const double pixels = static_cast<double>(e.input_size * e.input_size);
  switch (e.task) {
    case models::TaskType::kImageClassification:
      c.preprocess_s = pixels * 3 * 12 / cpu_elem_rate;  // resize+crop+norm
      c.postprocess_s = 1e-5;                            // top-k
      break;
    case models::TaskType::kObjectDetection:
      c.preprocess_s = pixels * 3 * 8 / cpu_elem_rate;
      c.postprocess_s = 4e-4;  // decode + NMS
      break;
    case models::TaskType::kImageSegmentation:
      c.preprocess_s = pixels * 3 * 8 / cpu_elem_rate;
      c.postprocess_s = pixels * 32 / cpu_elem_rate;  // per-pixel argmax
      break;
    case models::TaskType::kQuestionAnswering:
      c.preprocess_s = 5e-5;   // tokenization of one question
      c.postprocess_s = 1e-4;  // span search
      break;
  }
  return c;
}

}  // namespace

const TaskBundle& SuiteBundles::Get(const models::BenchmarkEntry& e,
                                    models::SuiteVersion version) {
  const std::string key =
      std::string(ToString(version)) + "/" + e.id;
  auto it = cache_.find(key);
  if (it == cache_.end())
    it = cache_.emplace(key, TaskBundle::Create(e, version)).first;
  return *it->second;
}

namespace {

// One full performance attempt (single-stream + optional offline) on a
// fresh simulator and clock.  Returns everything the harness accounts for.
struct PerformanceAttempt {
  loadgen::TestResult single_stream;
  std::optional<loadgen::TestResult> offline;
  double energy_j = 0.0;
  double peak_temperature_c = 0.0;
  std::size_t fault_count = 0;
  std::size_t degradation_count = 0;
  std::size_t breaker_trips = 0;
  bool degraded_to_cpu = false;
  std::string fault_log;

  [[nodiscard]] bool Errored() const {
    return single_stream.Errored() || (offline && offline->Errored());
  }
};

// `backend` owns the simulator/energy accounting; `front` is the SUT the
// LoadGen actually issues to.  They are the same object except when an
// admission layer (circuit breaker) is interposed between them.
template <typename Backend>
PerformanceAttempt RunPerformanceWith(Backend& backend,
                                      loadgen::SystemUnderTest& front,
                                      loadgen::DatasetQsl& qsl,
                                      loadgen::VirtualClock& clock,
                                      const RunOptions& options,
                                      bool has_offline) {
  PerformanceAttempt a;
  loadgen::TestSettings ss = options.performance_settings;
  ss.scenario = loadgen::TestScenario::kSingleStream;
  ss.mode = loadgen::TestMode::kPerformanceOnly;
  a.single_stream = loadgen::RunTest(front, qsl, ss, clock);
  a.peak_temperature_c = backend.simulator().thermal().temperature_c();

  if (has_offline) {
    // Cooldown interval between the two performance tests (§6.1).
    backend.Cooldown(options.cooldown_s);
    loadgen::TestSettings off = options.performance_settings;
    off.scenario = loadgen::TestScenario::kOffline;
    off.mode = loadgen::TestMode::kPerformanceOnly;
    a.offline = loadgen::RunTest(front, qsl, off, clock);
    a.peak_temperature_c =
        std::max(a.peak_temperature_c,
                 backend.simulator().thermal().temperature_c());
  }
  a.energy_j = backend.total_energy_j();
  a.fault_count = backend.simulator().fault_count();
  if (const soc::FaultInjector* inj = backend.simulator().fault_injector())
    a.fault_log = inj->EventLogText();
  return a;
}

void RunTask(const soc::ChipsetDesc& chipset, models::SuiteVersion version,
             const TaskBundle& bundle, const RunOptions& options,
             const ThreadPool* pool, TaskRunResult& tr);

// One task blowing up must not take the submission down with it: a throw
// from `step` marks the task errored while the rest of the suite proceeds.
template <typename Step>
void Isolated(TaskRunResult& tr, const Step& step) {
  try {
    step();
  } catch (const std::exception& e) {
    tr.status = TaskStatus::kErrored;
    tr.status_detail = e.what();
  }
}

}  // namespace

std::unique_ptr<ThreadPool> MakeRunPool(int threads) {
  if (threads == 1) return nullptr;
  auto pool = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(std::max(0, threads)));
  if (pool->thread_count() <= 1) return nullptr;
  return pool;
}

SubmissionResult RunSubmission(const soc::ChipsetDesc& chipset,
                               models::SuiteVersion version,
                               SuiteBundles& bundles,
                               const RunOptions& options) {
  const std::unique_ptr<ThreadPool> pool = MakeRunPool(options.threads);
  return RunSubmission(chipset, version, bundles, options, pool.get());
}

SubmissionResult RunSubmission(const soc::ChipsetDesc& chipset,
                               models::SuiteVersion version,
                               SuiteBundles& bundles,
                               const RunOptions& options,
                               const ThreadPool* pool) {
  SubmissionResult result;
  result.chipset_name = chipset.name;
  result.version = version;

  // Observability (DESIGN.md §11): either flag turns the process-wide
  // recorder on for the whole submission.  Enabling resets the epoch and
  // clears prior events, so each submission traces from t=0.
  if (options.profile || !options.trace_path.empty())
    obs::TraceRecorder::Global().Enable();

  // The pool serves one of two fan-outs.  An accuracy run keeps it busy
  // inside each task (sample-level inference, labelling, calibration), so
  // its tasks run one at a time.  A performance-only run runs its tasks on
  // it instead.  Under tracing they run inline, in suite order: the trace,
  // the LoadGen's test sequence numbers and the simulators' trace epochs
  // are drawn in start order.  Cached executors in `bundles` outlive the
  // pool, so nothing below may retain it past RunTask.
  const ThreadPool* const task_pool =
      options.run_accuracy || obs::TraceRecorder::Global().enabled()
          ? nullptr
          : pool;

  // Crash-safe journaling + resume (DESIGN.md §12).  With a journal path
  // set, every finished task is fsync'd to the write-ahead log as soon as
  // every task before it is; with `resume`, intact records from a prior
  // run of the identical configuration are replayed instead of re-run.  An
  // errored record is never replayed — a resumed run retries it.
  std::map<std::string, TaskRunResult> replayable;
  std::unique_ptr<JournalWriter<TaskRunResult>> journal;
  if (!options.journal_path.empty()) {
    JournalMeta meta;
    meta.chipset = chipset.name;
    meta.version = std::string(ToString(version));
    meta.seed = options.performance_settings.seed;
    meta.config_hash = HashRunConfig(chipset, version, options);
    OpenedJournal<TaskRunResult> opened = OpenJournal<TaskRunResult>(
        options.journal_path, meta, kTaskRecordKind, options.resume);
    for (TaskRunResult& t : opened.replay)
      if (t.status != TaskStatus::kErrored)
        replayable.insert_or_assign(t.entry.id, std::move(t));
    journal = std::move(opened.writer);
  }

  // The prescribed task order is the suite order (§6.1), and tasks are
  // claimed in it.  A claim polls `cancel`, then replays the task's record
  // or looks up its bundle, under `claim_mu`; the claiming lane runs the
  // task into its slot outside the lock.  Without a task pool the calling
  // thread claims and runs every task in turn.  A finished task is
  // journaled once every task before it is, so the journal holds the
  // finished prefix in task order, durable while the run goes on, and its
  // bytes do not depend on the pool.
  const std::vector<models::BenchmarkEntry> suite = models::SuiteFor(version);
  result.tasks.resize(suite.size());
  enum class Slot : unsigned char { kOpen, kRan, kReplayed };
  std::vector<Slot> finished(suite.size(), Slot::kOpen);  // journal_mu
  std::size_t claimed = 0;                                 // claim_mu
  std::size_t journaled = 0;                               // journal_mu
  std::mutex claim_mu;
  std::mutex journal_mu;
  const auto finish = [&](std::size_t i, Slot how) {
    std::scoped_lock lock(journal_mu);
    finished[i] = how;
    for (; journaled < suite.size() && finished[journaled] != Slot::kOpen;
         ++journaled)
      if (journal && finished[journaled] == Slot::kRan)
        journal->Append(result.tasks[journaled]);
  };
  ParallelForEachItem(task_pool, suite.size(), [&](ItemClaims& next) {
    for (;;) {
      std::size_t i = 0;
      bool replayed = false;
      const TaskBundle* bundle = nullptr;  // null: replayed or lookup threw
      {
        std::scoped_lock lock(claim_mu);
        if (next.exhausted() || result.interrupted) return;
        if (options.cancel && options.cancel()) {
          // Cooperative interruption: stop cleanly between tasks.  Tasks
          // already running finish and are journaled.
          result.interrupted = true;
          return;
        }
        i = *next();
        claimed = i + 1;
        const models::BenchmarkEntry& entry = suite[i];
        TaskRunResult& tr = result.tasks[i];
        if (const auto it = replayable.find(entry.id);
            it != replayable.end()) {
          tr = std::move(it->second);
          replayable.erase(it);
          // Journal records carry only the task id; rebind the live entry.
          tr.entry = entry;
          ++result.resumed_tasks;
          replayed = true;
        } else {
          tr.entry = entry;
          Isolated(tr, [&] { bundle = &bundles.Get(entry, version); });
        }
      }
      if (bundle != nullptr)
        Isolated(result.tasks[i], [&] {
          RunTask(chipset, version, *bundle, options, pool, result.tasks[i]);
        });
      finish(i, replayed ? Slot::kReplayed : Slot::kRan);
    }
  });
  result.tasks.resize(claimed);

  // Snapshot the worker pool's counters into the metrics registry (pool
  // queue depth analog for the report).  Gauges so repeated submissions
  // keep the high-water mark.
  if (const ThreadPool* used = options.run_accuracy ? pool : task_pool;
      used != nullptr) {
    obs::MetricsRegistry& mr = obs::MetricsRegistry::Global();
    mr.MaxGauge("threadpool.lanes", static_cast<double>(used->thread_count()));
    mr.MaxGauge("threadpool.jobs_dispatched",
                static_cast<double>(used->jobs_dispatched()));
    mr.MaxGauge("threadpool.peak_lanes",
                static_cast<double>(used->peak_lanes()));
  }
  return result;
}

namespace {

// Static verification of one task's model, quantization recipe, SoC
// mapping and run configuration (DESIGN.md §9).  Runs entirely before
// anything is compiled or timed.
analysis::DiagnosticEngine LintTask(const soc::ChipsetDesc& chipset,
                                    const backends::SubmissionConfig& sub,
                                    const graph::Graph& full,
                                    const RunOptions& options) {
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
  if (options.fault_plan)
    for (const soc::FaultSpec& spec : options.fault_plan->specs)
      rc.fault_probabilities.emplace_back(std::string(ToString(spec.kind)),
                                          spec.probability);
  analysis::CheckRunConfig(rc, de);
  return de;
}

void RunTask(const soc::ChipsetDesc& chipset, models::SuiteVersion version,
             const TaskBundle& bundle, const RunOptions& options,
             const ThreadPool* pool, TaskRunResult& tr) {
  const models::BenchmarkEntry& entry = tr.entry;
  const backends::SubmissionConfig sub =
      backends::GetSubmission(chipset, entry.task, version);

  tr.numerics = sub.numerics;
  tr.framework_name = sub.framework.name;
  tr.accelerator_label = sub.accelerator_label;
  // Resolved unconditionally (also in performance-only runs) so exported
  // rows are byte-identical whether or not the accuracy phase ran.
  tr.kernel_isa = std::string(infer::kernels::ToString(
      infer::kernels::KernelRegistry::Global().Resolve(options.kernel_isa)));

  // Built once: the lint gate, the memory plan, and the performance phase
  // all read the same full-scale graph.
  const graph::Graph full =
      models::BuildReferenceGraph(entry, version, models::ModelScale::kFull);

  // Activation footprint of the full-scale model under the static planner
  // (reported per task; the arena itself is only exercised by the accuracy
  // phase's mini models).  With tiling requested the plan is tile-aware:
  // segment interiors leave the arena for per-worker slabs, and the
  // reported arena/slab split reflects that.
  tr.tiling_requested = options.tiling.enabled;
  tr.tile_rows = options.tiling.enabled ? options.tiling.rows : 0;
  // An invalid tile height (rows == 0 or negative explicit) is RUN008 — an
  // error under the lint gate.  Under kReport the run must still proceed,
  // so the invalid request degrades to untiled execution here.
  infer::TileOptions tile_opt = options.tiling;
  if (tile_opt.enabled && tile_opt.rows != -1 && tile_opt.rows < 1)
    tile_opt.enabled = false;
  const infer::TilePlan full_tiles = infer::BuildTilePlan(full, tile_opt);
  const infer::MemoryPlan plan = infer::MemoryPlan::Build(
      full, full_tiles.empty() ? nullptr : &full_tiles);
  tr.peak_arena_bytes = plan.peak_arena_bytes();
  tr.naive_activation_bytes = plan.naive_bytes();
  tr.tile_segments = full_tiles.segments.size();
  tr.tile_slab_bytes = plan.tile_slab_bytes();

  if (options.lint != LintMode::kOff) {
    const analysis::DiagnosticEngine de = LintTask(chipset, sub, full, options);
    tr.lint_error_count = de.error_count();
    tr.lint_warning_count = de.warning_count();
    tr.lint_log = de.ToText();
    if (options.lint == LintMode::kStrict && de.HasErrors()) {
      tr.status = TaskStatus::kInvalid;
      tr.status_detail =
          "static verification failed with " +
          std::to_string(de.error_count()) + " error(s); see lint log";
      return;
    }
  }

  if (options.run_accuracy) {
    // Accuracy mode: the whole validation set through the LoadGen and
    // the functional reference backend at the submission numerics.
    const infer::NumericsMode mode = NumericsModeFor(sub.numerics);
    // First, so the teacher outputs labelling keeps for the FP32 score are
    // scored and freed before calibration and the accuracy run allocate.
    tr.fp32_reference = bundle.Fp32Score(pool, options.kernel_isa);
    const TaskBundle::PreparedModel prepared =
        bundle.Prepare(mode,
                       options.use_qat_weights &&
                           mode == infer::NumericsMode::kInt8,
                       options.kernel_isa, false, tile_opt, pool);
    tr.calibration_indices = prepared.calibration_indices;
    tr.tiling_applied = prepared.executor != nullptr &&
                        prepared.executor->tiled();

    // The whole validation set is staged before the run, on the pool.
    loadgen::DatasetQsl qsl(bundle.dataset(pool), 0, pool);
    loadgen::RealClock clock;
    const infer::Executor& exec = *NotNull(
        prepared.executor, "TaskBundle::Prepare returned no executor");
    const infer::KernelDispatchCounts before = exec.dispatch_counts();
    backends::ReferenceBackend ref_sut("reference/" + entry.id, exec, qsl,
                                       pool);
    loadgen::TestSettings acc;
    acc.mode = loadgen::TestMode::kAccuracyOnly;
    const loadgen::TestResult acc_result =
        loadgen::RunTest(ref_sut, qsl, acc, clock);
    tr.accuracy = bundle.dataset().ScoreOutputs(acc_result.accuracy_outputs);
    tr.accuracy_sample_count = acc_result.sample_count;
    tr.dataset_size = bundle.dataset().size();
    tr.ratio_to_fp32 =
        tr.fp32_reference > 0 ? tr.accuracy / tr.fp32_reference : 0.0;
    tr.quality_passed = tr.ratio_to_fp32 >= entry.quality_target;

    // Per-kernel dispatch counters for the profile report: this task's
    // share of the cached executor's counts, which accumulate across tasks
    // and submissions, so the counter sums over the run.
    const infer::KernelDispatchCounts after = exec.dispatch_counts();
    const std::string isa_prefix =
        "kernels.dispatch." +
        std::string(infer::kernels::ToString(exec.kernel_isa())) + ".";
    obs::MetricsRegistry& mr = obs::MetricsRegistry::Global();
    mr.Increment(isa_prefix + "conv2d", after.conv2d - before.conv2d);
    mr.Increment(isa_prefix + "depthwise_conv2d",
                 after.depthwise_conv2d - before.depthwise_conv2d);
    mr.Increment(isa_prefix + "fully_connected",
                 after.fully_connected - before.fully_connected);
  }

  if (options.run_performance) {
    const backends::EndToEndCosts e2e =
        options.end_to_end ? EstimateEndToEndCosts(entry)
                           : backends::EndToEndCosts{};
    const std::string sut_name = chipset.name + "/" + sub.framework.name;
    const bool has_offline =
        options.run_offline && !sub.offline_replicas.empty();
    // The simulated plane never reads sample contents, so the tests stage
    // a stub of the validation set's size and nothing is labelled.
    const datasets::StubDataset samples(bundle.dataset_size());
    loadgen::DatasetQsl qsl(samples);

    // The run rules allow re-running a test; an errored run (stalled SUT,
    // nothing completed) is retried on a fresh simulator before the task
    // is declared invalid.
    const int attempts = 1 + std::max(0, options.max_test_retries);
    PerformanceAttempt attempt;
    for (int i = 0; i < attempts; ++i) {
      loadgen::VirtualClock clock;
      if (options.fault_plan) {
        soc::SocSimulator sim(chipset);
        sim.InjectFaults(*options.fault_plan);
        backends::FaultTolerantBackend sut(
            sut_name, std::move(sim),
            backends::CompileSubmission(chipset, sub, full),
            backends::CompileCpuFallback(chipset, full, sub.numerics),
            backends::CompileOfflineReplicas(chipset, sub, full), clock,
            options.fault_tolerance, e2e);
        if (options.circuit_breaker) {
          // Admission layer between the LoadGen and the recovery layer:
          // consecutive never-completed queries trip it open and later
          // queries fast-fail instead of burning the retry budget.
          backends::CircuitBreakerBackend breaker(sut, clock,
                                                  *options.circuit_breaker);
          attempt =
              RunPerformanceWith(sut, breaker, qsl, clock, options,
                                 has_offline);
          attempt.breaker_trips = breaker.stats().trips;
          attempt.fault_log += sut.EventLogText();
          attempt.fault_log += breaker.EventLogText();
        } else {
          attempt =
              RunPerformanceWith(sut, sut, qsl, clock, options, has_offline);
          attempt.fault_log += sut.EventLogText();
        }
        attempt.degradation_count = sut.stats().DegradationCount();
        attempt.degraded_to_cpu = sut.degraded_to_cpu();
      } else {
        backends::SimulatedBackend sut(
            sut_name, soc::SocSimulator(chipset),
            backends::CompileSubmission(chipset, sub, full),
            backends::CompileOfflineReplicas(chipset, sub, full), clock,
            e2e);
        attempt =
            RunPerformanceWith(sut, sut, qsl, clock, options, has_offline);
      }
      tr.performance_attempts = i + 1;
      if (!attempt.Errored()) break;
    }

    tr.single_stream = std::move(attempt.single_stream);
    tr.offline = std::move(attempt.offline);
    tr.peak_temperature_c = attempt.peak_temperature_c;
    tr.fault_count = attempt.fault_count;
    tr.degradation_count = attempt.degradation_count;
    tr.shed_count = SumOverTests(tr, &loadgen::TestResult::shed_count);
    tr.rejected_count = SumOverTests(tr, &loadgen::TestResult::rejected_count);
    tr.breaker_trips = attempt.breaker_trips;
    tr.degraded_to_cpu = attempt.degraded_to_cpu;
    tr.fault_log = std::move(attempt.fault_log);
    if (tr.single_stream->sample_count > 0)
      tr.energy_per_inference_j =
          attempt.energy_j /
          static_cast<double>(tr.single_stream->sample_count);

    if (tr.single_stream->Errored() || (tr.offline && tr.offline->Errored())) {
      tr.status = TaskStatus::kInvalid;
      tr.status_detail = tr.single_stream->Errored()
                             ? tr.single_stream->invalid_reason
                             : tr.offline->invalid_reason;
      return;
    }
  }

  const std::size_t anomalies =
      (tr.single_stream ? tr.single_stream->AnomalyCount() : 0) +
      (tr.offline ? tr.offline->AnomalyCount() : 0);
  if (tr.fault_count > 0 || tr.degradation_count > 0 || anomalies > 0) {
    tr.status = TaskStatus::kValidDegraded;
    if (tr.degraded_to_cpu)
      tr.status_detail = "degraded to CPU fallback after repeated driver "
                         "crashes";
  }
}

}  // namespace

}  // namespace mlpm::harness
