// The SoC simulator: executes compiled models against a chipset's thermal
// state, in single-stream (one inference at a time) or offline batch mode
// with accelerator-level parallelism (paper §7.3: vendors run multiple
// accelerators concurrently to maximize offline throughput).
//
// An optional seeded FaultPlan (soc/faults.h) makes individual inferences
// fail the way real mobile runtimes do — stalls, driver crashes, thermal
// emergencies, lost completions.  Without a plan the simulator behaves
// exactly as before: the fault machinery is a no-op.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "soc/chipset.h"
#include "soc/compile.h"
#include "soc/faults.h"
#include "soc/thermal.h"

namespace mlpm::soc {

// How one simulated inference attempt ended.
enum class InferenceOutcome : std::uint8_t {
  kOk,                // completed normally
  kStalledRetryable,  // watchdog killed a hung attempt; retry may succeed
  kDriverCrash,       // the driver failed the partition; no result
  kThermalEmergency,  // completed, but the die hit the hard thermal limit
  kDropped,           // ran to completion but the completion signal was lost
};

[[nodiscard]] constexpr std::string_view ToString(InferenceOutcome o) {
  switch (o) {
    case InferenceOutcome::kOk: return "ok";
    case InferenceOutcome::kStalledRetryable: return "stalled";
    case InferenceOutcome::kDriverCrash: return "driver_crash";
    case InferenceOutcome::kThermalEmergency: return "thermal_emergency";
    case InferenceOutcome::kDropped: return "dropped";
  }
  return "?";
}

struct InferenceResult {
  double latency_s = 0.0;
  double energy_j = 0.0;
  double throttle_factor = 1.0;  // at the start of the inference
  double temperature_c = 0.0;    // at the end of the inference
  InferenceOutcome outcome = InferenceOutcome::kOk;
  // Whether a completion signal reaches the caller.  False for stalls,
  // crashes, and drops — the time and energy above were still consumed.
  bool completed = true;
};

struct BatchOptions {
  // Offline batches amortize kernel dispatch (larger effective batch per
  // accelerator command) and runtime dispatch.
  double dispatch_scale = 0.25;
  double per_inference_overhead_scale = 0.1;
  // Utilization gain from large effective batches (weights stay staged,
  // pipelines stay full); multiplies each replica's throughput.
  double batched_efficiency_gain = 1.28;
  // Thermal integration step for long batch runs.
  double step_s = 0.25;
};

struct BatchResult {
  double makespan_s = 0.0;
  double energy_j = 0.0;
  // Completion time of each sample (monotonic), length == sample_count.
  std::vector<double> completion_times_s;
  double final_temperature_c = 0.0;
  // Per-sample completion-signal flags under fault injection; empty means
  // every sample completed (the no-fault fast path allocates nothing).
  std::vector<std::uint8_t> completed;

  [[nodiscard]] bool SampleCompleted(std::size_t i) const {
    return completed.empty() || completed[i] != 0;
  }
};

class SocSimulator {
 public:
  explicit SocSimulator(ChipsetDesc chipset);

  // Runs one single-stream inference; advances the thermal state.  With a
  // fault plan installed, the attempt may stall, crash, overheat, or lose
  // its completion — see InferenceResult::outcome.  The plan's energy and
  // TDP-capped power are derived once per CompiledModel::plan_id, and its
  // latency once per run of calls at one throttle factor; the result is
  // bit for bit the direct computation's.
  InferenceResult RunInference(const CompiledModel& model);

  // Runs `sample_count` samples split across the given replicas with
  // data-parallel ALP: each replica consumes samples at its own throughput
  // and all run concurrently.  Replicas are typically one per engine
  // (e.g. Exynos: NPU replica + CPU replica; Snapdragon: HTA + HVX).
  BatchResult RunBatch(std::span<const CompiledModel> replicas,
                       std::size_t sample_count,
                       const BatchOptions& options = {});

  // Cooldown interval between tests (run rules §6.1: 0-5 minutes).
  void Cooldown(double seconds) { thermal_.Cool(seconds); }

  // Installs a seeded fault plan; replaces any previous one and resets the
  // fault schedule to the plan's seed.
  void InjectFaults(FaultPlan plan) { injector_.emplace(std::move(plan)); }
  [[nodiscard]] const FaultInjector* fault_injector() const {
    return injector_ ? &*injector_ : nullptr;
  }
  // Faults observed so far (0 without a plan).
  [[nodiscard]] std::size_t fault_count() const {
    return injector_ ? injector_->events().size() : 0;
  }

  // True if every segment of `model` runs on a CPU-class engine — such a
  // plan has no accelerator driver, so injected faults do not apply to it.
  [[nodiscard]] bool IsCpuOnly(const CompiledModel& model) const;

  // Cumulative simulated busy time across all inferences/batches (the
  // timeline fault events are stamped on).
  [[nodiscard]] double busy_time_s() const { return busy_time_s_; }

  [[nodiscard]] const ThermalModel& thermal() const { return thermal_; }
  [[nodiscard]] const ChipsetDesc& chipset() const { return chipset_; }
  void ResetThermal() { thermal_.Reset(); }

  // Prefix for every trace lane this simulator emits ("shard-3/").  Fleet
  // shards run concurrent simulators; without per-shard lanes their spans
  // would interleave on the shared engine rows and the exported trace
  // would fail structural validation (DESIGN.md §16).
  void SetTraceLanePrefix(std::string prefix) {
    trace_lane_prefix_ = std::move(prefix);
  }
  [[nodiscard]] const std::string& trace_lane_prefix() const {
    return trace_lane_prefix_;
  }

 private:
  // Maps this simulator's local busy time onto the process-wide simulated
  // timeline (obs::Domain::kSim).  Every test builds a fresh simulator whose
  // busy time restarts at zero; without an epoch the traces of consecutive
  // tests would overlap on the shared engine lanes.  The epoch is claimed
  // lazily at the first traced event and published back after each run, so
  // sequential simulators occupy disjoint windows.
  [[nodiscard]] double TraceBaseSeconds();
  static void PublishTraceEnd(double end_s);
  // The given lane with this simulator's prefix applied.
  [[nodiscard]] std::string Lane(std::string_view lane) const;

  // The constants RunInference reads of the last plan it ran.  A single
  // stream runs one plan tens of thousands of times, and the throttle
  // factor holds still below the throttle band, between the stepped
  // governor's trip points and at the floor, so each is derived again only
  // when its plan or its throttle factor changes.
  struct PlanMemo {
    std::uint64_t plan_id = 0;     // 0: nothing memoised
    double energy_j = 0.0;         // CompiledModel::EnergyJoules()
    double power_w = 0.0;          // AveragePowerWatts(), capped at the TDP
    double throttle_factor = 0.0;  // of latency_s; 0: not derived yet
    double latency_s = 0.0;        // LatencySeconds(throttle_factor)
  };
  // The memo of `model` at `throttle_factor`, derived where it is stale.
  // A plan with id 0 is derived on every call.
  const PlanMemo& Memo(const CompiledModel& model, double throttle_factor);

  // Plain per-simulator counts of the six soc.* metrics.  RunInference
  // runs once per simulated query, on every fleet worker at once, so the
  // counts reach the shared registry once, when the simulator is destroyed
  // — only the non-zero ones, so the registry's key set is what per-event
  // updates would have made.  A moved-from simulator holds none.
  class Counters {
   public:
    enum Name : std::size_t {
      kInferences,
      kThrottledInferences,
      kFaultsInjected,
      kThermalEmergencies,
      kBatches,
      kBatchSamples,
      kNameCount
    };

    Counters() = default;
    Counters(Counters&& other) noexcept
        : counts_(std::exchange(other.counts_, {})) {}
    Counters& operator=(Counters&& other) noexcept;
    ~Counters() { Flush(); }

    void Add(Name name, std::uint64_t delta = 1) { counts_[name] += delta; }

   private:
    void Flush() noexcept;
    std::array<std::uint64_t, kNameCount> counts_{};
  };

  ChipsetDesc chipset_;
  ThermalModel thermal_;
  Counters counters_;
  std::optional<FaultInjector> injector_;
  PlanMemo memo_;
  double busy_time_s_ = 0.0;
  double trace_epoch_s_ = -1.0;  // <0: not claimed yet
  std::string trace_lane_prefix_;
};

}  // namespace mlpm::soc
