// Deterministic fault injection for the SoC simulator (paper §6.1, §8,
// App. D: NNAPI driver holes, buggy delegates, thermal throttling mid-run).
//
// Real mobile benchmarking survives imperfect runtimes: drivers crash,
// inferences hang until a watchdog kills them, completions get lost, and
// thermal emergencies force cooldowns.  A FaultPlan declares those
// pathologies as seeded per-inference probabilities; the injector draws one
// decision per inference attempt from its own Rng stream, so the same seed
// always produces the same fault schedule — runs are reproducible and
// auditable, exactly like the LoadGen's sample selection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mlpm::soc {

enum class FaultKind : std::uint8_t {
  // The accelerator hangs; the runtime watchdog kills the attempt after
  // `stall_scale` x the nominal latency.  Transient: a retry may succeed.
  kTransientStall,
  // The driver crashes and fails the whole partition a fraction of the way
  // into the inference.  Repeated crashes indicate a broken delegate.
  kDriverCrash,
  // Die temperature spikes to the hard limit; the run must cool down
  // immediately (run rules §6.1 model the benign version of this).
  kThermalEmergency,
  // The inference runs to completion but its completion signal is lost
  // (dropped interrupt / dead callback); the result never arrives.
  kSampleDrop,
};

[[nodiscard]] constexpr std::string_view ToString(FaultKind k) {
  switch (k) {
    case FaultKind::kTransientStall: return "transient_stall";
    case FaultKind::kDriverCrash: return "driver_crash";
    case FaultKind::kThermalEmergency: return "thermal_emergency";
    case FaultKind::kSampleDrop: return "sample_drop";
  }
  return "?";
}

struct FaultSpec {
  FaultKind kind = FaultKind::kTransientStall;
  // Per-inference-attempt probability in [0, 1].
  double probability = 0.0;
  // kTransientStall: time burned before the watchdog kills the attempt,
  // as a multiple of the nominal latency.
  double stall_scale = 4.0;
  // kDriverCrash: fraction of the nominal latency (and energy) consumed
  // before the driver reports the failure.
  double crash_latency_fraction = 0.1;
};

// A declarative, seeded schedule of faults.  Faults apply to inferences on
// accelerator engines only — a pure-CPU plan has no driver to crash, which
// is what makes CPU fallback a viable degradation target.
struct FaultPlan {
  std::uint64_t seed = 0x464C54;  // "FLT"
  std::vector<FaultSpec> specs;

  FaultPlan& Add(FaultSpec spec) {
    specs.push_back(spec);
    return *this;
  }

  // Convenience builders for the common pathologies.
  FaultPlan& TransientStalls(double probability, double stall_scale = 4.0) {
    return Add({FaultKind::kTransientStall, probability, stall_scale, 0.1});
  }
  FaultPlan& DriverCrashes(double probability,
                           double crash_latency_fraction = 0.1) {
    return Add({FaultKind::kDriverCrash, probability, 4.0,
                crash_latency_fraction});
  }
  FaultPlan& ThermalEmergencies(double probability) {
    return Add({FaultKind::kThermalEmergency, probability, 4.0, 0.1});
  }
  FaultPlan& SampleDrops(double probability) {
    return Add({FaultKind::kSampleDrop, probability, 4.0, 0.1});
  }
};

// One injected fault, recorded when the injector fires.
struct FaultEvent {
  FaultKind kind = FaultKind::kTransientStall;
  std::uint64_t attempt_index = 0;  // ordinal of the inference attempt
  double time_s = 0.0;              // simulator-local busy time at injection
  double penalty_s = 0.0;           // extra/burned latency charged
};

// Draws the fault decision for each inference attempt.  Determinism
// contract: exactly one uniform draw per spec per attempt, regardless of
// outcome, so the schedule depends only on the plan seed and the attempt
// ordinal — never on what the faults did to the run.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Decides the fault (if any) for the next inference attempt; returns the
  // matching spec or nullptr.  The caller reports the observed cost via
  // RecordFault once it has computed the penalty.
  [[nodiscard]] const FaultSpec* NextAttempt();

  // Records a fired fault at `time_s` into the event log.
  void RecordFault(const FaultSpec& spec, double time_s, double penalty_s);

  [[nodiscard]] std::uint64_t attempt_count() const { return attempts_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }

  // One line per fault event; byte-identical across same-seed runs.
  [[nodiscard]] std::string EventLogText() const;

 private:
  FaultPlan plan_;
  Rng rng_;
  std::uint64_t attempts_ = 0;
  std::vector<FaultEvent> events_;
};

}  // namespace mlpm::soc
