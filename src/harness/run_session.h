// Submission runner: executes the full benchmark flow for one chipset and
// one suite version, exactly as the mobile app does (paper §6.1): for each
// task in the prescribed order, accuracy mode over the whole validation set
// first, then performance mode; cooldown intervals between tests.
//
// Accuracy runs on the functional plane (mini models through the reference
// executor at the submission's numerics); performance runs on the simulated
// plane (full-scale graphs on the chipset model through the LoadGen with a
// virtual clock).  See DESIGN.md §1.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "backends/circuit_breaker.h"
#include "backends/fault_tolerant_backend.h"
#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "core/loadgen.h"
#include "harness/task_bundle.h"
#include "models/zoo.h"
#include "soc/chipset.h"
#include "soc/faults.h"

namespace mlpm::harness {

// Cache of task bundles so repeated submissions (multiple chipsets, audit
// re-runs) reuse the expensive teacher-labelled data sets.
class SuiteBundles {
 public:
  [[nodiscard]] const TaskBundle& Get(const models::BenchmarkEntry& e,
                                      models::SuiteVersion version);

 private:
  std::map<std::string, std::unique_ptr<TaskBundle>> cache_;
};

// Pre-run static verification (DESIGN.md §9).
//   kOff     — skip the analysis passes entirely;
//   kReport  — run them, record diagnostics in the task result (default);
//   kStrict  — additionally refuse to run a task whose model or
//              configuration has error-severity diagnostics (the task is
//              marked invalid without executing anything).
enum class LintMode : std::uint8_t { kOff, kReport, kStrict };

struct RunOptions {
  bool run_accuracy = true;
  bool run_performance = true;
  bool run_offline = true;
  // Cooldown between tests, seconds (run rules: 0-5 minutes).
  double cooldown_s = 60.0;
  // Include pre/post-processing in the measured latency (App. E extension).
  bool end_to_end = false;
  loadgen::TestSettings performance_settings;  // scenario set internally
  // Use the mutually-agreed QAT weights for INT8 accuracy (paper §5.1).
  bool use_qat_weights = false;

  // Fault tolerance.  A fault plan injects seeded runtime pathologies into
  // the performance simulators (App. D); when set, performance tests run
  // through the FaultTolerantBackend with the recovery policy below.  The
  // run rules allow re-running a test: an errored performance test is
  // retried up to `max_test_retries` times before the task is marked
  // invalid.  No plan (the default) leaves behavior byte-identical.
  std::optional<soc::FaultPlan> fault_plan;
  backends::FaultToleranceOptions fault_tolerance;
  int max_test_retries = 1;

  // Overload admission control (DESIGN.md §12).  When set, fault-tolerant
  // performance runs go through a CircuitBreakerBackend that fast-fails
  // queries while the backend keeps failing to complete them.  Requires a
  // fault_plan (a fault-free backend never trips the breaker).
  std::optional<backends::CircuitBreakerOptions> circuit_breaker;

  // Worker threads.  An accuracy run uses them inside each task
  // (sample-level fan-out through the reference executor, plus teacher
  // labelling and PTQ calibration with an ordered fold); a
  // performance-only run runs its tasks on them, and RunMobileApp checks
  // the tasks on them.  0 = hardware concurrency, 1 = serial.  Results,
  // reports and journal bytes are identical for any value.
  int threads = 1;

  // Kernel ISA for the accuracy-plane executors (kernels/registry.h).
  // kAuto dispatches to the best table the host supports; kScalar forces
  // the bit-exact portable kernels; a forced ISA unavailable on this host
  // falls back to scalar (lint reports it as RUN007 before the run).  The
  // FP32 reference is scored with the same ISA, so ratio_to_fp32 compares
  // numerics, not kernels.
  infer::kernels::KernelIsa kernel_isa = infer::kernels::KernelIsa::kAuto;

  // Opt-in verified graph-transform stage (DESIGN.md §14).  The accuracy
  // executors run the rewrite pipeline's output instead of the raw reference
  // graph; every rewrite is invariant-checked before commit and the prepared
  // model is probe-checked for equivalence against the untransformed one
  // (TaskBundle::Prepare), falling back transparently on any disagreement.
  // The FP32 reference score stays untransformed, so ratio_to_fp32 keeps
  // its meaning.  Off by default: scores are byte-identical to prior runs.
  bool transform = false;

  // Opt-in tiled, fused pipeline execution (DESIGN.md §15).  When
  // `tiling.enabled`, the accuracy-plane executors run fusable conv/dw
  // chains crop-by-crop through a tile slab instead of materializing full
  // intermediates; results are bit-identical to untiled execution for
  // every numerics mode and kernel table, so accuracy scores are
  // unchanged.  `tiling.rows` forces the tile height (-1 = auto
  // against tiling.cache_bytes); rows == 0 is invalid and lint-gated
  // (RUN008).  The memory-plan figures reported for the full-scale graph
  // become tile-aware.  Off by default: byte-identical to prior runs.
  infer::TileOptions tiling;

  // Static verification gate run before each task (model IR, quantization
  // recipe, SoC mapping, run configuration).  Never touches the timed path:
  // all passes complete before the LoadGen starts.
  LintMode lint = LintMode::kReport;

  // Observability (DESIGN.md §11).  Either field enables the process-wide
  // obs::TraceRecorder for the submission: every executor node, simulated
  // IP step and LoadGen query lands on the shared timeline, and the report
  // gains per-op aggregate + metrics tables.  `trace_path` additionally
  // tells the caller (headless_cli) where to write the Chrome trace JSON.
  // Off by default: a disabled recorder costs one atomic load per
  // instrumentation point and records nothing.
  bool profile = false;
  std::string trace_path;

  // Crash-safe journaling (DESIGN.md §12).  When `journal_path` is set,
  // RunSubmission appends one fsync'd, checksummed record per finished
  // task.  With `resume` additionally set, intact records from a previous
  // run of the *same* configuration (chipset, version, seed, config hash)
  // are replayed instead of re-run; torn or errored records re-run.  The
  // resumed submission is field-identical to an uninterrupted one.
  std::string journal_path;
  bool resume = false;

  // Cooperative cancellation: checked before each task starts.  When it
  // returns true no further task starts, tasks already under way finish,
  // and the submission returns early with SubmissionResult::interrupted
  // set (already-journaled tasks survive for a later --resume).  A run on
  // a pool calls it from the pool's lanes, one call at a time.
  std::function<bool()> cancel;
};

// How a task run ended, from the harness's point of view.
//   kValid          — clean run, no faults observed;
//   kValidDegraded  — usable result produced *through* faults (retries,
//                     CPU fallback, expired samples);
//   kInvalid        — the performance test stayed structurally invalid
//                     after all allowed retries;
//   kErrored        — the task threw; other tasks keep running.
enum class TaskStatus : std::uint8_t {
  kValid,
  kValidDegraded,
  kInvalid,
  kErrored,
};

[[nodiscard]] constexpr std::string_view ToString(TaskStatus s) {
  switch (s) {
    case TaskStatus::kValid: return "valid";
    case TaskStatus::kValidDegraded: return "valid-degraded";
    case TaskStatus::kInvalid: return "invalid";
    case TaskStatus::kErrored: return "errored";
  }
  return "?";
}

struct TaskRunResult {
  models::BenchmarkEntry entry;
  DataType numerics = DataType::kInt8;
  std::string framework_name;
  std::string accelerator_label;
  // The resolved kernel ISA the accuracy executors dispatched to ("scalar",
  // "avx2", "neon") — the concrete table, never "auto".
  std::string kernel_isa;

  // Accuracy phase.
  double accuracy = 0.0;
  double fp32_reference = 0.0;
  double ratio_to_fp32 = 0.0;
  bool quality_passed = false;
  std::vector<std::size_t> calibration_indices;
  // Accuracy-mode coverage: samples scored vs the data set size (the rules
  // require the *entire* validation set in accuracy mode, §4.1).
  std::size_t accuracy_sample_count = 0;
  std::size_t dataset_size = 0;

  // Performance phase.
  std::optional<loadgen::TestResult> single_stream;
  std::optional<loadgen::TestResult> offline;
  double energy_per_inference_j = 0.0;
  double peak_temperature_c = 0.0;

  // Static activation memory plan over the full-scale graph (DESIGN.md §10):
  // the packed arena footprint vs the naive sum of all activation tensors.
  // Planner-only figures (no execution); 0 when the plan was not computed.
  // With tiling applied the arena figure is tile-aware (segment interiors
  // move out of the arena into tile_slab_bytes).
  std::size_t peak_arena_bytes = 0;
  std::size_t naive_activation_bytes = 0;

  // Tiled, fused pipeline execution (DESIGN.md §15).  `tiling_applied`
  // means the accuracy executors actually ran tiled segments (requested
  // and at least one fusable chain existed); figures are from the
  // full-scale graph's tile plan.  All zero/false when tiling is off.
  bool tiling_requested = false;
  bool tiling_applied = false;
  std::size_t tile_segments = 0;   // fused chains in the full-scale plan
  std::int64_t tile_rows = 0;      // requested rows (-1 = auto)
  std::size_t tile_slab_bytes = 0; // one worker's peak slab block

  // Fault / degradation accounting.
  TaskStatus status = TaskStatus::kValid;
  std::string status_detail;          // invalid_reason / exception text
  std::size_t fault_count = 0;        // injected faults observed
  std::size_t degradation_count = 0;  // recovery actions taken
  // Admission-control accounting across the task's performance tests.
  std::size_t shed_count = 0;      // refused by LoadGen admission control
  std::size_t rejected_count = 0;  // fast-failed by the circuit breaker
  std::size_t breaker_trips = 0;   // closed/half-open -> open transitions
  bool degraded_to_cpu = false;
  int performance_attempts = 0;       // test runs incl. retries (0 if skipped)
  // Concatenated injector + recovery event logs; byte-identical across
  // same-seed runs (the reproducibility artifact for fault studies).
  std::string fault_log;

  // Static-verification gate (DESIGN.md §9).  Populated unless
  // RunOptions::lint == LintMode::kOff; under kStrict, a task with
  // lint_error_count > 0 is marked invalid and never executed.
  std::size_t lint_error_count = 0;
  std::size_t lint_warning_count = 0;
  // ToText() rendering of the diagnostics, empty when the task lints clean.
  std::string lint_log;

  // Verified graph-transform stage (DESIGN.md §14).  `transform_applied`
  // means the accuracy executor actually ran the rewritten graph;
  // requested-but-fallen-back runs keep it false and explain why in
  // `transform_detail`.  All zero/empty when RunOptions::transform is off.
  bool transform_requested = false;
  bool transform_applied = false;
  std::string transform_passes;  // resolved pass list, comma-joined
  std::size_t transform_rewrites = 0;
  std::size_t transform_nodes_before = 0;  // canonical-form node count
  std::size_t transform_nodes_after = 0;   // executed node count
  std::string transform_detail;            // fallback reason, if any
};

// One LoadGen counter summed over a task's performance tests (either may be
// absent), e.g. SumOverTests(t, &loadgen::TestResult::dropped_count).
[[nodiscard]] inline std::size_t SumOverTests(
    const TaskRunResult& t, std::size_t loadgen::TestResult::*counter) {
  return (t.single_stream ? (*t.single_stream).*counter : 0) +
         (t.offline ? (*t.offline).*counter : 0);
}

struct SubmissionResult {
  std::string chipset_name;
  models::SuiteVersion version = models::SuiteVersion::kV1_0;
  std::vector<TaskRunResult> tasks;
  // True when RunOptions::cancel stopped the run before the suite finished;
  // `tasks` then holds only the completed prefix.
  bool interrupted = false;
  // Tasks replayed from the journal instead of executed (--resume).
  std::size_t resumed_tasks = 0;
};

// Runs the full suite for one chipset.  `bundles` may be shared across
// calls; it is populated on demand.
[[nodiscard]] SubmissionResult RunSubmission(const soc::ChipsetDesc& chipset,
                                             models::SuiteVersion version,
                                             SuiteBundles& bundles,
                                             const RunOptions& options = {});

// The same run on a caller-owned pool (null = serial) in place of one made
// from `options.threads`.
[[nodiscard]] SubmissionResult RunSubmission(const soc::ChipsetDesc& chipset,
                                             models::SuiteVersion version,
                                             SuiteBundles& bundles,
                                             const RunOptions& options,
                                             const ThreadPool* pool);

// The pool for RunOptions::threads: null when it would have one lane.
[[nodiscard]] std::unique_ptr<ThreadPool> MakeRunPool(int threads);

// Performance-only single-task run (used by the delegate-comparison and
// ablation benches).  Returns the LoadGen result for the compiled plan.
[[nodiscard]] loadgen::TestResult RunSingleStreamPerformance(
    const soc::ChipsetDesc& chipset, const backends::SubmissionConfig& config,
    const graph::Graph& full_graph, const datasets::TaskDataset& dataset,
    const loadgen::TestSettings& settings = {});

}  // namespace mlpm::harness
