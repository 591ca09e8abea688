#include "soc/simulator.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "soc/trace.h"

namespace mlpm::soc {
namespace {

// Process-wide high-water mark of the simulated timeline (seconds); guards
// the epoch hand-off between sequentially constructed simulators.
std::mutex& TraceEpochMutex() {
  static std::mutex mu;
  return mu;
}
double& TraceTimelineEnd() {
  static double end_s = 0.0;
  return end_s;
}

}  // namespace

SocSimulator::Counters& SocSimulator::Counters::operator=(
    Counters&& other) noexcept {
  if (this != &other) {
    Flush();
    counts_ = std::exchange(other.counts_, {});
  }
  return *this;
}

void SocSimulator::Counters::Flush() noexcept {
  static constexpr std::array<std::string_view, kNameCount> kMetric = {
      "soc.inferences",      "soc.throttled_inferences",
      "soc.faults_injected", "soc.thermal_emergencies",
      "soc.batches",         "soc.batch_samples"};
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  for (std::size_t i = 0; i < kNameCount; ++i)
    if (counts_[i] != 0) metrics.Increment(kMetric[i], counts_[i]);
  counts_ = {};
}

SocSimulator::SocSimulator(ChipsetDesc chipset)
    : chipset_(std::move(chipset)), thermal_(chipset_.thermal) {}

double SocSimulator::TraceBaseSeconds() {
  if (trace_epoch_s_ < 0.0) {
    std::scoped_lock lock(TraceEpochMutex());
    trace_epoch_s_ = TraceTimelineEnd();
  }
  return trace_epoch_s_ + busy_time_s_;
}

void SocSimulator::PublishTraceEnd(double end_s) {
  std::scoped_lock lock(TraceEpochMutex());
  double& end = TraceTimelineEnd();
  end = std::max(end, end_s);
}

std::string SocSimulator::Lane(std::string_view lane) const {
  return trace_lane_prefix_ + std::string(lane);
}

bool SocSimulator::IsCpuOnly(const CompiledModel& model) const {
  for (const CompiledSegment& seg : model.segments) {
    const EngineClass cls = chipset_.engines[seg.engine_index].cls;
    if (cls != EngineClass::kCpuBig && cls != EngineClass::kCpuLittle)
      return false;
  }
  return true;
}

const SocSimulator::PlanMemo& SocSimulator::Memo(const CompiledModel& model,
                                                 double throttle_factor) {
  if (model.plan_id == 0 || model.plan_id != memo_.plan_id) {
    // Power is capped by the chipset TDP (Appendix E: ~3 W ceiling); the
    // cap manifests as extra heat-limited time already captured by
    // throttling, so it only bounds the dissipation fed to the thermal
    // mass.
    memo_.plan_id = model.plan_id;
    memo_.energy_j = model.EnergyJoules();
    memo_.power_w = std::min(model.AveragePowerWatts(), chipset_.tdp_w);
    memo_.throttle_factor = 0.0;  // a factor is in (0, 1]
  }
  if (memo_.throttle_factor != throttle_factor) {
    memo_.latency_s = model.LatencySeconds(throttle_factor);
    memo_.throttle_factor = throttle_factor;
  }
  return memo_;
}

InferenceResult SocSimulator::RunInference(const CompiledModel& model) {
  InferenceResult r;
  r.throttle_factor = thermal_.ThrottleFactor();
  const PlanMemo& plan = Memo(model, r.throttle_factor);
  r.latency_s = plan.latency_s;
  r.energy_j = plan.energy_j;

  // Fault decision: one draw per attempt, accelerator plans only (a pure
  // CPU plan has no driver to crash — that is what fallback relies on).
  const FaultSpec* fault =
      injector_ && !IsCpuOnly(model) ? injector_->NextAttempt() : nullptr;
  if (fault != nullptr) {
    switch (fault->kind) {
      case FaultKind::kTransientStall: {
        // The attempt hangs; the runtime watchdog kills it after
        // stall_scale x the nominal latency.  No result.
        const double nominal = r.latency_s;
        r.latency_s = nominal * fault->stall_scale;
        injector_->RecordFault(*fault, busy_time_s_, r.latency_s - nominal);
        r.outcome = InferenceOutcome::kStalledRetryable;
        r.completed = false;
        break;
      }
      case FaultKind::kDriverCrash:
        // The driver fails the partition part-way in.
        r.latency_s *= fault->crash_latency_fraction;
        r.energy_j *= fault->crash_latency_fraction;
        injector_->RecordFault(*fault, busy_time_s_, r.latency_s);
        r.outcome = InferenceOutcome::kDriverCrash;
        r.completed = false;
        break;
      case FaultKind::kThermalEmergency:
        // The inference completes but the die jumps to the hard limit;
        // the caller must cool down before continuing.
        injector_->RecordFault(*fault, busy_time_s_, 0.0);
        r.outcome = InferenceOutcome::kThermalEmergency;
        break;
      case FaultKind::kSampleDrop:
        // Full work done, completion signal lost.
        injector_->RecordFault(*fault, busy_time_s_, 0.0);
        r.outcome = InferenceOutcome::kDropped;
        r.completed = false;
        break;
    }
  }

  thermal_.Step(plan.power_w, r.latency_s);
  if (r.outcome == InferenceOutcome::kThermalEmergency)
    thermal_.ForceTemperature(thermal_.throttle_limit_c());
  r.temperature_c = thermal_.temperature_c();

  counters_.Add(Counters::kInferences);
  if (r.throttle_factor < 1.0) counters_.Add(Counters::kThrottledInferences);
  if (r.outcome != InferenceOutcome::kOk)
    counters_.Add(Counters::kFaultsInjected);
  if (r.outcome == InferenceOutcome::kThermalEmergency)
    counters_.Add(Counters::kThermalEmergencies);

  if (obs::TraceRecorder& rec = obs::TraceRecorder::Global();
      rec.enabled()) {
    const double t0_s = TraceBaseSeconds();
    const double t0_us = t0_s * 1e6;
    const bool full_run = r.outcome == InferenceOutcome::kOk ||
                          r.outcome == InferenceOutcome::kThermalEmergency ||
                          r.outcome == InferenceOutcome::kDropped;
    if (full_run) {
      // The attempt executed end to end at nominal latency: expand the
      // per-IP dispatch/segment/transfer detail onto the engine lanes.
      TraceInference(model, chipset_, r.throttle_factor, t0_s)
          .AppendTo(rec, trace_lane_prefix_);
    } else {
      // Stalls and crashes have no meaningful per-segment breakdown; one
      // span covers the time the attempt consumed.
      rec.AddComplete(obs::Domain::kSim, Lane("runtime"),
                      "attempt:" + std::string(ToString(r.outcome)), t0_us,
                      r.latency_s * 1e6, {}, "soc");
    }
    if (r.outcome != InferenceOutcome::kOk)
      rec.AddInstant(obs::Domain::kSim, Lane("faults"),
                     "fault:" + std::string(ToString(r.outcome)),
                     t0_us + r.latency_s * 1e6, {}, "fault");
    rec.AddCounter(obs::Domain::kSim, Lane("dvfs"), "throttle_factor", t0_us,
                   r.throttle_factor);
    rec.AddCounter(obs::Domain::kSim, Lane("thermal"), "temperature_c",
                   t0_us + r.latency_s * 1e6, r.temperature_c);
    PublishTraceEnd(t0_s + r.latency_s);
  }

  busy_time_s_ += r.latency_s;
  return r;
}

BatchResult SocSimulator::RunBatch(std::span<const CompiledModel> replicas,
                                   std::size_t sample_count,
                                   const BatchOptions& options) {
  Expects(!replicas.empty(), "batch needs at least one replica");
  Expects(sample_count > 0, "batch needs at least one sample");

  BatchResult r;
  r.completion_times_s.reserve(sample_count);

  // Batch-mode faults only make sense when at least one replica runs on an
  // accelerator; completion-signal loss and partition crashes surface as
  // lost samples (the batch keeps going — ALP replicas are independent).
  bool any_accelerated = false;
  for (const auto& m : replicas)
    if (!IsCpuOnly(m)) any_accelerated = true;
  const bool inject = injector_.has_value() && any_accelerated;
  if (inject) r.completed.assign(sample_count, 1);

  // Concurrent power of all replicas, TDP-capped.
  double raw_power = 0.0;
  for (const auto& m : replicas) raw_power += m.AveragePowerWatts();
  const double power = std::min(raw_power, chipset_.tdp_w);

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const bool traced = rec.enabled();
  const double batch_base_s = traced ? TraceBaseSeconds() : 0.0;

  double now = 0.0;
  double produced = 0.0;  // fractional samples completed so far
  std::size_t emitted = 0;
  while (emitted < sample_count) {
    const double throttle = thermal_.ThrottleFactor();
    double rate = 0.0;  // samples per second across all replicas
    for (const auto& m : replicas) {
      const double t = m.LatencySeconds(throttle, options.dispatch_scale) -
                       m.overheads.per_inference_s *
                           (1.0 - options.per_inference_overhead_scale);
      Ensures(t > 0.0, "non-positive batched latency");
      rate += options.batched_efficiency_gain / t;
    }
    const double remaining = static_cast<double>(sample_count) - produced;
    const double dt = std::min(options.step_s, remaining / rate);
    const double before = produced;
    produced += rate * dt;
    // Emit completion timestamps for the integer completions in this step.
    while (emitted < sample_count &&
           static_cast<double>(emitted + 1) <= produced + 1e-9) {
      const double frac =
          (static_cast<double>(emitted + 1) - before) / (produced - before);
      r.completion_times_s.push_back(now + frac * dt);
      if (inject) {
        if (const FaultSpec* fault = injector_->NextAttempt();
            fault != nullptr && (fault->kind == FaultKind::kSampleDrop ||
                                 fault->kind == FaultKind::kDriverCrash)) {
          r.completed[emitted] = 0;
          injector_->RecordFault(*fault, busy_time_s_ + now + frac * dt, 0.0);
          if (traced)
            rec.AddInstant(obs::Domain::kSim, Lane("faults"),
                           "fault:" + std::string(ToString(fault->kind)),
                           (batch_base_s + now + frac * dt) * 1e6, {},
                           "fault");
        }
      }
      ++emitted;
    }
    now += dt;
    thermal_.Step(power, dt);
    r.energy_j += power * dt;
    if (traced) {
      // One span per ALP integration step: the DVFS/thermal staircase of a
      // long offline burst, visible on the simulator timeline.
      rec.AddComplete(obs::Domain::kSim, Lane("batch"), "alp step",
                      (batch_base_s + now - dt) * 1e6, dt * 1e6,
                      {obs::Arg("rate_sps", rate),
                       obs::Arg("throttle", throttle)},
                      "soc");
      rec.AddCounter(obs::Domain::kSim, Lane("dvfs"), "throttle_factor",
                     (batch_base_s + now - dt) * 1e6, throttle);
      rec.AddCounter(obs::Domain::kSim, Lane("thermal"), "temperature_c",
                     (batch_base_s + now) * 1e6, thermal_.temperature_c());
    }
  }
  r.makespan_s = r.completion_times_s.back();
  r.final_temperature_c = thermal_.temperature_c();

  counters_.Add(Counters::kBatches);
  counters_.Add(Counters::kBatchSamples, sample_count);
  if (traced) {
    rec.AddComplete(obs::Domain::kSim, Lane("batch"), "offline batch",
                    batch_base_s * 1e6, now * 1e6,
                    {obs::Arg("samples", static_cast<std::uint64_t>(
                                             sample_count)),
                     obs::Arg("replicas", static_cast<std::uint64_t>(
                                              replicas.size()))},
                    "soc");
    PublishTraceEnd(batch_base_s + now);
  }
  busy_time_s_ += now;
  return r;
}

}  // namespace mlpm::soc
