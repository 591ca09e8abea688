// Fleet-scale serving mode (DESIGN.md §16): N device-simulator shards, each
// driven by its own LoadGen Server-scenario instance with seeded Poisson
// arrivals and a per-shard latency SLO, executed concurrently on a bounded
// worker pool.  Shards that reference the same (chipset, task, version)
// configuration share one immutable prepared model, built once in that
// config's slot, so fleet memory scales with distinct configs, not devices.
//
// Determinism contract: for a fixed seed, mix and shard count the aggregated
// FleetReport is byte-identical across runs and worker counts.  Each shard
// derives its own seed from the fleet seed and its shard id, runs on a fresh
// virtual clock and simulator, and writes only its own result slot; nothing
// a shard computes depends on scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "backends/circuit_breaker.h"
#include "common/types.h"
#include "core/loadgen.h"
#include "fleet/mix.h"
#include "harness/run_session.h"
#include "infer/kernels/registry.h"
#include "models/zoo.h"
#include "soc/faults.h"

namespace mlpm::fleet {

struct FleetOptions {
  std::size_t shard_count = 1;
  models::SuiteVersion version = models::SuiteVersion::kV1_0;
  // Device populations; empty means DefaultFleetMix(version).
  std::vector<FleetMixEntry> mix;

  // Per-shard LoadGen settings template.  mode is forced to
  // kPerformanceOnly; the scenario defaults to kServer (a fleet is a
  // serving system) but single-stream is allowed for oracle comparisons.
  // With `split_seed_per_shard` (default) shard i runs at seed
  // Rng(settings.seed).Split(i).NextU64() so shards draw independent
  // Poisson processes; without it every shard uses settings.seed verbatim
  // (the fleet-vs-RunSubmission equivalence tests rely on this).
  loadgen::TestSettings settings = [] {
    loadgen::TestSettings s;
    s.scenario = loadgen::TestScenario::kServer;
    return s;
  }();
  bool split_seed_per_shard = true;

  // Worker threads driving shards (0 = hardware concurrency).  Results are
  // identical for any value; only wall-clock time changes.
  std::size_t workers = 0;

  // Optional accuracy plane: score each distinct (task, numerics) config
  // once through the reference executor and stamp the scores onto every
  // shard of that config.  Runs serially on the coordinator (TaskBundle
  // preparation is not thread-safe).  Off by default — a serving fleet
  // measures latency, not accuracy.
  bool accuracy = false;
  infer::kernels::KernelIsa kernel_isa = infer::kernels::KernelIsa::kAuto;

  // Optional seeded runtime pathologies per shard (soc/faults.h); each
  // shard reseeds the plan from its shard seed so fleets don't fail in
  // lockstep.  Failed attempts surface as dropped/timed-out queries in
  // that shard's accounting.
  std::optional<soc::FaultPlan> fault_plan;
  // Optional per-shard circuit breaker wrapping the shard SUT; reseeded
  // per shard like the fault plan.
  std::optional<backends::CircuitBreakerOptions> circuit_breaker;

  // Crash-safe fleet journal (fleet/journal.h): one fsync'd record per
  // finished shard.  With `resume`, intact records from a previous run of
  // the same fleet configuration are replayed instead of re-run.
  std::string journal_path;
  bool resume = false;

  // Cooperative cancellation, checked before each shard starts.  May be
  // invoked from worker threads; calls are serialized by the coordinator.
  std::function<bool()> cancel;
};

// Outcome of one shard.
struct ShardResult {
  std::size_t shard_id = 0;
  std::string chipset;
  std::string task_id;
  DataType numerics = DataType::kInt8;
  // Prepared-model cache key this shard shares ("v1.0|task|chipset").
  std::string config_key;

  // The shard's LoadGen result, run with loadgen::QueryRecord::kNone: its
  // log holds no events and its error_log is empty (a shard replayed from
  // an older journal may still carry both; nothing reads them).
  loadgen::TestResult result;
  harness::TaskStatus state = harness::TaskStatus::kValid;
  // Latency bound + shed bound met on a structurally valid run.
  bool slo_met = false;

  std::size_t breaker_trips = 0;
  std::size_t fault_count = 0;
  double energy_j = 0.0;
  double peak_temperature_c = 0.0;

  // Accuracy plane (FleetOptions::accuracy); zero/false otherwise.
  double accuracy = 0.0;
  double fp32_reference = 0.0;
  double ratio_to_fp32 = 0.0;
  bool quality_passed = false;

  // Replayed from the journal instead of executed this run.
  bool resumed = false;
  // Percentile(result.latencies_s, 99), 0 without latencies; taken on the
  // lane that ran or replayed the shard.  Derived, so like `resumed` it is
  // not journaled.
  double p99_latency_s = 0.0;
};

// Aggregated outcome of a fleet run.  All derived figures are recomputed
// from the sorted shard vector, so a resumed run aggregates identically to
// an uninterrupted one.
struct FleetReport {
  models::SuiteVersion version = models::SuiteVersion::kV1_0;
  std::uint64_t seed = 0;
  std::size_t shard_count = 0;
  std::string mix_spec;  // canonical FormatFleetMix rendering
  std::vector<ShardResult> shards;  // sorted by shard_id; may be a prefix
                                    // subset when interrupted

  // Sum of per-shard sustained throughput (each shard serves on its own
  // virtual timeline, so fleet capacity is the sum of shard rates).
  double fleet_qps = 0.0;
  double slo_met_fraction = 0.0;
  std::size_t valid_count = 0;
  std::size_t degraded_count = 0;
  std::size_t invalid_count = 0;

  // Query accounting across all shards.  offered = issued + shed;
  // issued = completed + timed_out + dropped + rejected.
  std::size_t offered = 0;
  std::size_t issued = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t rejected = 0;
  std::size_t timed_out = 0;
  std::size_t dropped = 0;
  std::size_t breaker_trips = 0;

  // Percentiles over all shards' per-sample latencies as one distribution.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;

  // Prepared-model sharing: distinct configs across all shards vs models
  // actually built this run (resumed shards build nothing).
  std::size_t distinct_configs = 0;
  std::uint64_t prepared_models_built = 0;

  std::size_t resumed_shards = 0;
  bool interrupted = false;
};

// Runs the fleet.  Throws CheckError on invalid options (unknown chipset or
// task names, zero shards).
[[nodiscard]] FleetReport RunFleet(const FleetOptions& options);

}  // namespace mlpm::fleet
