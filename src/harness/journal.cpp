#include "harness/journal.h"

#include <utility>

#include "common/check.h"
#include "harness/record_schema.h"

namespace mlpm::harness {

namespace schema {

using loadgen::TestResult;
using loadgen::TestScenario;
using loadgen::TestSettings;
using T = TaskRunResult;

template <> Table<TestResult> FieldsOf<TestResult>() {
  // accuracy_outputs are not journaled: they are only needed transiently
  // for scoring, and the derived score is recorded in the task record.
  static constexpr FieldDesc<TestResult> kFields[] = {
      Member<&TestResult::scenario, TestScenario::kMultiStream>("scenario"),
      Member<&TestResult::mode, loadgen::TestMode::kAccuracyOnly>("mode"),
      Member<&TestResult::latencies_s>("latencies_s"),
      Member<&TestResult::duration_s>("duration_s"),
      Member<&TestResult::sample_count>("sample_count"),
      Member<&TestResult::percentile_latency_s>("percentile_latency_s"),
      Member<&TestResult::mean_latency_s>("mean_latency_s"),
      Member<&TestResult::throughput_sps>("throughput_sps"),
      Member<&TestResult::min_duration_met>("min_duration_met"),
      Member<&TestResult::min_query_count_met>("min_query_count_met"),
      Member<&TestResult::latency_bound_met>("latency_bound_met"),
      Member<&TestResult::shed_bound_met>("shed_bound_met"),
      Member<&TestResult::dropped_count>("dropped_count"),
      Member<&TestResult::timed_out_count>("timed_out_count"),
      Member<&TestResult::duplicate_count>("duplicate_count"),
      Member<&TestResult::unknown_count>("unknown_count"),
      Member<&TestResult::shed_count>("shed_count"),
      Member<&TestResult::rejected_count>("rejected_count"),
      Member<&TestResult::issued_count>("issued_count"),
      Member<&TestResult::error_log>("error_log"),
      Member<&TestResult::invalid_reason>("invalid_reason"),
      Member<&TestResult::log>("log"),
  };
  return kFields;
}

template <> Table<T> FieldsOf<T>() {
  static constexpr FieldDesc<T> kFields[] = {
      Via<T, [](auto& t) -> auto& { return t.entry.id; }>(
          "task", /*required=*/true),
      Member<&T::numerics, DataType::kInt32>("numerics"),
      Member<&T::framework_name>("framework"),
      Member<&T::accelerator_label>("accelerator"),
      Member<&T::accuracy>("accuracy"),
      Member<&T::fp32_reference>("fp32_reference"),
      Member<&T::ratio_to_fp32>("ratio_to_fp32"),
      Member<&T::quality_passed>("quality_passed"),
      Member<&T::calibration_indices>("calibration_indices"),
      Member<&T::accuracy_sample_count>("accuracy_sample_count"),
      Member<&T::dataset_size>("dataset_size"),
      Member<&T::single_stream>("single_stream"),
      Member<&T::offline>("offline"),
      Member<&T::energy_per_inference_j>("energy_per_inference_j"),
      Member<&T::peak_temperature_c>("peak_temperature_c"),
      Member<&T::peak_arena_bytes>("peak_arena_bytes"),
      Member<&T::naive_activation_bytes>("naive_activation_bytes"),
      Member<&T::status, TaskStatus::kErrored>("status"),
      Member<&T::status_detail>("status_detail"),
      Member<&T::fault_count>("fault_count"),
      Member<&T::degradation_count>("degradation_count"),
      Member<&T::shed_count>("shed_count"),
      Member<&T::rejected_count>("rejected_count"),
      Member<&T::breaker_trips>("breaker_trips"),
      Member<&T::degraded_to_cpu>("degraded_to_cpu"),
      Member<&T::performance_attempts>("performance_attempts"),
      Member<&T::fault_log>("fault_log"),
      Member<&T::lint_error_count>("lint_error_count"),
      Member<&T::lint_warning_count>("lint_warning_count"),
      Member<&T::lint_log>("lint_log"),
      Member<&T::kernel_isa>("kernel_isa"),
      Member<&T::tiling_requested>("tiling_requested"),
      Member<&T::tiling_applied>("tiling_applied"),
      Member<&T::tile_segments>("tile_segments"),
      Member<&T::tile_rows>("tile_rows"),
      Member<&T::tile_slab_bytes>("tile_slab_bytes"),
  };
  return kFields;
}

template <> Table<JournalMeta> FieldsOf<JournalMeta>() {
  static constexpr FieldDesc<JournalMeta> kFields[] = {
      Member<&JournalMeta::chipset>("chipset", /*required=*/true),
      Member<&JournalMeta::version>("version", /*required=*/true),
      Member<&JournalMeta::seed>("seed"),
      Member<&JournalMeta::config_hash>("config_hash"),
  };
  return kFields;
}

// The LoadGen settings: hashed by CanonicalSettings, never journaled.

template <> Table<TestSettings> FieldsOf<TestSettings>() {
  using S = TestSettings;
  static constexpr FieldDesc<S> kFields[] = {
      Member<&S::scenario, TestScenario::kMultiStream>("scenario"),
      Member<&S::mode, loadgen::TestMode::kAccuracyOnly>("mode"),
      Member<&S::seed>("seed"),
      Member<&S::min_query_count>("min_query_count"),
      Member<&S::min_duration>("min_duration_s"),
      Member<&S::offline_sample_count>("offline_sample_count"),
      Member<&S::latency_percentile>("latency_percentile"),
      Member<&S::server_target_qps>("server_target_qps"),
      Member<&S::server_latency_bound>("server_latency_bound_s"),
      Member<&S::server_query_count>("server_query_count"),
      Member<&S::server_max_queue_depth>("server_max_queue_depth"),
      Member<&S::server_max_shed_fraction>("server_max_shed_fraction"),
      Member<&S::multistream_samples_per_query>(
          "multistream_samples_per_query"),
      Member<&S::multistream_interval>("multistream_interval_s"),
      Member<&S::multistream_query_count>("multistream_query_count"),
      Member<&S::performance_sample_count>("performance_sample_count"),
      Member<&S::query_timeout>("query_timeout_s"),
  };
  return kFields;
}

}  // namespace schema

// ---- run-config digest ------------------------------------------------

std::string CanonicalSettings(
    const loadgen::TestSettings& settings,
    const std::optional<soc::FaultPlan>& fault_plan,
    const std::optional<backends::CircuitBreakerOptions>& breaker) {
  using schema::Put;
  std::string canon;
  Put(canon, "settings", settings);
  if (fault_plan) {
    Put(canon, "fault_seed", fault_plan->seed);
    for (const soc::FaultSpec& spec : fault_plan->specs) {
      Put(canon, "fault_kind", spec.kind);
      Put(canon, "fault_probability", spec.probability);
      Put(canon, "fault_stall_scale", spec.stall_scale);
      Put(canon, "fault_crash_latency_fraction", spec.crash_latency_fraction);
    }
  }
  if (breaker) {
    Put(canon, "cb_trip_threshold", breaker->trip_threshold);
    Put(canon, "cb_open_duration_s", breaker->open_duration_s);
    Put(canon, "cb_backoff_factor", breaker->backoff_factor);
    Put(canon, "cb_max_open_duration_s", breaker->max_open_duration_s);
    Put(canon, "cb_probe_jitter_frac", breaker->probe_jitter_frac);
    Put(canon, "cb_seed", breaker->seed);
    Put(canon, "cb_rejection_latency_s", breaker->rejection_latency_s);
  }
  return canon;
}

std::uint64_t HashRunConfig(const soc::ChipsetDesc& chipset,
                            models::SuiteVersion version,
                            const RunOptions& o) {
  using schema::Put;
  std::string canon = CanonicalSettings(o.performance_settings, o.fault_plan,
                                        o.circuit_breaker);
  Put(canon, "chipset", chipset.name);
  Put(canon, "version", ToString(version));
  Put(canon, "run_accuracy", o.run_accuracy);
  Put(canon, "run_performance", o.run_performance);
  Put(canon, "run_offline", o.run_offline);
  Put(canon, "cooldown_s", o.cooldown_s);
  Put(canon, "end_to_end", o.end_to_end);
  Put(canon, "use_qat_weights", o.use_qat_weights);
  Put(canon, "max_test_retries", o.max_test_retries);
  Put(canon, "lint", o.lint);
  // The *requested* ISA, not the resolved one: the hash guards against
  // mixing journals from differently-configured runs, and f32 accuracy
  // results differ across kernel tables.
  Put(canon, "kernel_isa", ToString(o.kernel_isa));
  // The removed transform stage's key, kept so earlier journals resume.
  Put(canon, "transform", false);
  // Tiling is bit-identical to whole-op execution, but the memory-plan
  // figures and applied/segment fields in each record depend on it, so
  // journals are only interchangeable within one tiling configuration.
  Put(canon, "tiling", o.tiling.enabled);
  Put(canon, "tile_rows", o.tiling.rows);
  Put(canon, "tile_cache_bytes", o.tiling.cache_bytes);
  // Recovery options only act when faults are injected.
  if (o.fault_plan) {
    const backends::FaultToleranceOptions& ft = o.fault_tolerance;
    Put(canon, "ft_max_attempts", ft.max_attempts);
    Put(canon, "ft_backoff_base_s", ft.backoff_base_s);
    Put(canon, "ft_crash_fallback_threshold", ft.crash_fallback_threshold);
    Put(canon, "ft_emergency_cooldown_s", ft.emergency_cooldown_s);
    Put(canon, "ft_backoff_jitter_frac", ft.backoff_jitter_frac);
    Put(canon, "ft_backoff_seed", ft.backoff_seed);
  }
  // threads / profile / trace_path / journal_path are excluded: they do
  // not change any result field.
  return Fnv1a64(canon);
}

}  // namespace mlpm::harness
