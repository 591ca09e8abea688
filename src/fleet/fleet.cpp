#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "core/dataset_qsl.h"
#include "datasets/stub_dataset.h"
#include "fleet/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "soc/compile.h"
#include "soc/simulator.h"

namespace mlpm::fleet {
namespace {

// One shard's static identity, fixed before any worker runs.
struct ShardSpec {
  std::size_t id = 0;
  std::size_t config = 0;  // index of its config_key, in first-shard order
  soc::ChipsetDesc chipset;
  models::BenchmarkEntry entry;
  std::string config_key;
  std::uint64_t seed = 0;  // per-shard LoadGen seed
};

// The immutable artifact every shard of one (version, task, chipset) config
// shares: the vendor submission and its compiled single-stream plan
// (prepacked weights live inside the compiled segments).
struct PreparedShardModel {
  backends::SubmissionConfig sub;
  soc::CompiledModel single_stream;
};

// One distinct config's model, built lazily by the first of its shards to
// start.  That shard builds under `mu`; the config's other shards wait on
// `mu`, then read the model, which nothing writes again.  A build that
// throws leaves the slot empty, and the next shard of the config retries.
// Fleet memory thus scales with distinct configs, not devices.
struct ConfigSlot {
  std::mutex mu;
  std::optional<PreparedShardModel> model;
};

[[nodiscard]] std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t tag,
                                       std::size_t shard_id) {
  Rng r = Rng(base).Split(tag).Split(shard_id);
  return r.NextU64();
}

// The model of `spec`'s config, built into `slot` if no shard has yet.
[[nodiscard]] const PreparedShardModel& PreparedModelFor(
    const ShardSpec& spec, const FleetOptions& options, ConfigSlot& slot,
    std::atomic<std::uint64_t>& builds) {
  std::scoped_lock lock(slot.mu);
  if (!slot.model.has_value()) {
    PreparedShardModel m;
    m.sub = backends::GetSubmission(spec.chipset, spec.entry.task,
                                    options.version);
    const graph::Graph full = models::BuildReferenceGraph(
        spec.entry, options.version, models::ModelScale::kFull);
    m.single_stream = backends::CompileSubmission(spec.chipset, m.sub, full);
    slot.model = std::move(m);
    builds.fetch_add(1, std::memory_order_relaxed);
  }
  return *slot.model;
}

[[nodiscard]] ShardResult RunOneShard(const ShardSpec& spec,
                                      const FleetOptions& options,
                                      const PreparedShardModel& model) {
  ShardResult out;
  out.shard_id = spec.id;
  out.chipset = spec.chipset.name;
  out.task_id = spec.entry.id;
  out.config_key = spec.config_key;
  out.numerics = model.sub.numerics;

  loadgen::TestSettings settings = options.settings;
  settings.mode = loadgen::TestMode::kPerformanceOnly;
  if (options.split_seed_per_shard)
    settings.seed = spec.seed;

  loadgen::VirtualClock clock;
  soc::SocSimulator sim(spec.chipset);
  sim.SetTraceLanePrefix("shard-" + std::to_string(spec.id) + "/");
  if (options.fault_plan.has_value()) {
    soc::FaultPlan plan = *options.fault_plan;
    if (options.split_seed_per_shard)
      plan.seed = DeriveSeed(plan.seed, 0xFA17, spec.id);
    sim.InjectFaults(std::move(plan));
  }

  // Each shard runs its own copy of the shared plan (a few KB of segment
  // records) on its own simulator: shards share the compile, not the
  // thermal/DVFS state.
  backends::SimulatedBackend sut(
      spec.chipset.name + "/" + model.sub.framework.name, std::move(sim),
      model.single_stream, {}, clock);
  // Sample contents never reach the simulated plane, so a stub source keeps
  // the shard latency-identical to RunSubmission for the same seed.
  const datasets::StubDataset stub;
  loadgen::DatasetQsl qsl(stub);

  // Nothing validates a shard's log, so the LoadGen builds no per-query
  // record: the report reads only the counters and latencies.
  constexpr loadgen::QueryRecord kRecord = loadgen::QueryRecord::kNone;
  if (options.circuit_breaker.has_value()) {
    backends::CircuitBreakerOptions cb = *options.circuit_breaker;
    if (options.split_seed_per_shard)
      cb.seed = DeriveSeed(cb.seed, 0xCB, spec.id);
    backends::CircuitBreakerBackend breaker(sut, clock, cb);
    out.result = loadgen::RunTest(breaker, qsl, settings, clock, kRecord);
    out.breaker_trips = breaker.stats().trips;
  } else {
    out.result = loadgen::RunTest(sut, qsl, settings, clock, kRecord);
  }

  out.fault_count = sut.simulator().fault_count();
  out.energy_j = sut.total_energy_j();
  out.peak_temperature_c = sut.simulator().thermal().temperature_c();
  out.slo_met = !out.result.Errored() && out.result.latency_bound_met &&
                out.result.shed_bound_met;
  if (out.result.Errored()) {
    out.state = harness::TaskStatus::kInvalid;
  } else if (out.result.AnomalyCount() > 0 || out.fault_count > 0 ||
             out.breaker_trips > 0) {
    out.state = harness::TaskStatus::kValidDegraded;
  } else {
    out.state = harness::TaskStatus::kValid;
  }
  return out;
}

// Scores each distinct (task, numerics) config once on the functional
// plane and stamps the result onto every shard of that config — including
// replayed shards, so a journal cut before the accuracy plane ran still
// resumes to a field-identical report (scores are deterministic per
// config).  Serial by design: TaskBundle preparation caches through an
// unguarded map, so the accuracy plane stays on the coordinator thread.
void RunAccuracyPlane(const FleetOptions& options,
                      const std::vector<ShardSpec>& specs,
                      std::vector<std::optional<ShardResult>>& slots) {
  harness::SuiteBundles bundles;
  struct Scores {
    double accuracy = 0.0;
    double fp32 = 0.0;
    double ratio = 0.0;
    bool passed = false;
  };
  std::map<std::string, Scores> scored;
  for (const ShardSpec& spec : specs) {
    std::optional<ShardResult>& slot = slots[spec.id];
    if (!slot.has_value()) continue;
    const std::string key =
        spec.entry.id + "|" + std::string(ToString(slot->numerics));
    auto it = scored.find(key);
    if (it == scored.end()) {
      const harness::TaskBundle& bundle =
          bundles.Get(spec.entry, options.version);
      const infer::NumericsMode mode =
          harness::NumericsModeFor(slot->numerics);
      Scores s;
      // First, as in RunSubmission: labelling's kept teacher outputs are
      // freed before Prepare calibrates.
      s.fp32 = bundle.Fp32Score(nullptr, options.kernel_isa);
      const harness::TaskBundle::PreparedModel prepared =
          bundle.Prepare(mode, false, options.kernel_isa);
      s.accuracy = bundle.ScoreAccuracy(
          *NotNull(prepared.executor,
                   "TaskBundle::Prepare returned no executor"),
          nullptr);
      s.ratio = s.fp32 > 0 ? s.accuracy / s.fp32 : 0.0;
      s.passed = s.ratio >= spec.entry.quality_target;
      it = scored.emplace(key, s).first;
    }
    slot->accuracy = it->second.accuracy;
    slot->fp32_reference = it->second.fp32;
    slot->ratio_to_fp32 = it->second.ratio;
    slot->quality_passed = it->second.passed;
  }
}

}  // namespace

FleetReport RunFleet(const FleetOptions& options) {
  Expects(options.shard_count > 0, "fleet needs at least one shard");
  Expects(options.settings.scenario == loadgen::TestScenario::kServer ||
              options.settings.scenario ==
                  loadgen::TestScenario::kSingleStream,
          "fleet shards run the server or single-stream scenario");
  Expects(!options.resume || !options.journal_path.empty(),
          "--resume needs a journal path");

  const std::vector<FleetMixEntry> mix =
      options.mix.empty() ? DefaultFleetMix(options.version) : options.mix;
  const std::vector<ResolvedMixEntry> resolved =
      ResolveMix(mix, options.version);
  const std::vector<std::size_t> counts =
      AssignShardCounts(mix, options.shard_count);

  // Shards 0..N-1 in mix order; each knows its config and derived seed
  // before any worker runs, so nothing depends on scheduling.  Configs are
  // numbered in the order their first shard appears.
  std::vector<ShardSpec> specs;
  specs.reserve(options.shard_count);
  std::map<std::string, std::size_t> config_ids;
  for (std::size_t m = 0; m < resolved.size(); ++m) {
    for (std::size_t k = 0; k < counts[m]; ++k) {
      ShardSpec spec;
      spec.id = specs.size();
      spec.chipset = resolved[m].chipset;
      spec.entry = resolved[m].entry;
      spec.config_key = std::string(ToString(options.version)) + "|" +
                        spec.entry.id + "|" + spec.chipset.name;
      spec.config =
          config_ids.try_emplace(spec.config_key, config_ids.size())
              .first->second;
      spec.seed = DeriveSeed(options.settings.seed, 0xF1EE7, spec.id);
      specs.push_back(std::move(spec));
    }
  }
  Ensures(specs.size() == options.shard_count, "shard apportioning bug");

  FleetReport report;
  report.version = options.version;
  report.seed = options.settings.seed;
  report.shard_count = options.shard_count;
  report.mix_spec = FormatFleetMix(mix);

  // Journal: replay intact shard records of a matching previous run, then
  // append freshly-run shards.
  FleetJournalMeta meta;
  meta.version = std::string(ToString(options.version));
  meta.seed = options.settings.seed;
  meta.shard_count = options.shard_count;
  meta.config_hash = HashFleetConfig(options, mix);

  std::vector<std::optional<ShardResult>> slots(options.shard_count);
  std::unique_ptr<harness::JournalWriter<ShardResult>> journal;
  if (!options.journal_path.empty()) {
    harness::OpenedJournal<ShardResult> opened =
        harness::OpenJournal<ShardResult>(options.journal_path, meta,
                                          kShardRecordKind, options.resume);
    for (ShardResult& shard : opened.replay) {
      if (shard.shard_id >= options.shard_count) continue;
      std::optional<ShardResult>& slot = slots[shard.shard_id];
      if (!slot.has_value()) ++report.resumed_shards;
      slot = std::move(shard);  // a later frame wins
      slot->resumed = true;
    }
    journal = std::move(opened.writer);
  }

  std::vector<ConfigSlot> configs(config_ids.size());
  std::atomic<std::uint64_t> builds{0};
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::atomic<std::size_t> active{0};
  std::atomic<std::size_t> started{0};
  std::atomic<bool> interrupted{false};
  std::mutex cancel_mu;
  const auto cancelled = [&] {
    if (!options.cancel) return false;
    std::scoped_lock lock(cancel_mu);
    return options.cancel();
  };
  metrics.SetGauge("fleet.queue_depth",
                   static_cast<double>(options.shard_count));

  // Lanes claim shards one at a time in shard order, so a slow config
  // holds up only the lane running it.
  const ThreadPool pool(options.workers);
  ParallelForEachItem(&pool, options.shard_count, [&](ItemClaims& next) {
    while (const std::optional<std::size_t> i = next()) {
      const ShardSpec& spec = specs[*i];
      std::optional<ShardResult>& slot = slots[spec.id];
      if (!slot.has_value()) {  // not replayed
        if (interrupted.load(std::memory_order_relaxed) || cancelled()) {
          interrupted.store(true, std::memory_order_relaxed);
          continue;
        }
        const std::size_t now_started =
            started.fetch_add(1, std::memory_order_relaxed) + 1;
        metrics.SetGauge(
            "fleet.queue_depth",
            static_cast<double>(options.shard_count - now_started));
        const std::size_t now_active =
            active.fetch_add(1, std::memory_order_relaxed) + 1;
        metrics.SetGauge("fleet.shards.active",
                         static_cast<double>(now_active));
        metrics.MaxGauge("fleet.shards.active.peak",
                         static_cast<double>(now_active));

        const std::uint64_t span_id = recorder.NextAsyncId();
        const std::string span_name = "shard-" + std::to_string(spec.id);
        recorder.AddAsyncBegin(obs::Domain::kHost, "fleet", span_name, "fleet",
                               span_id, recorder.NowUs());
        ShardResult shard = RunOneShard(
            spec, options,
            PreparedModelFor(spec, options, configs[spec.config], builds));
        recorder.AddAsyncEnd(obs::Domain::kHost, "fleet", span_name, "fleet",
                             span_id, recorder.NowUs());

        // Shards journal as they finish unless the accuracy plane still has
        // fields to stamp (then the coordinator journals after it).
        if (journal != nullptr && !options.accuracy) journal->Append(shard);
        slot = std::move(shard);
        metrics.SetGauge(
            "fleet.shards.active",
            static_cast<double>(
                active.fetch_sub(1, std::memory_order_relaxed) - 1));
      }
      // Fresh or replayed, a shard's p99 is taken once, on its lane.
      const std::vector<double>& latencies = slot->result.latencies_s;
      if (!latencies.empty())
        slot->p99_latency_s = Percentile(latencies, 99.0);
    }
  });

  // Everything after the shards is one span, so a trace shows the tail.
  const obs::TraceRecorder::Span aggregate_span(recorder, "fleet.aggregate",
                                                {}, "fleet");
  report.interrupted = interrupted.load();
  if (options.accuracy && !report.interrupted)
    RunAccuracyPlane(options, specs, slots);
  if (journal != nullptr && options.accuracy) {
    for (const std::optional<ShardResult>& slot : slots)
      if (slot.has_value() && !slot->resumed) journal->Append(*slot);
  }

  // Aggregate from the sorted shard vector; a resumed run aggregates
  // identically to an uninterrupted one.  Each finished slot moves into the
  // report (the journal above was its last reader), so the report owns the
  // only copy of every shard's summary and latencies.
  report.distinct_configs = configs.size();
  report.prepared_models_built = builds.load();

  std::size_t slo_met = 0;
  std::size_t latency_count = 0;
  // Each shard's latencies, read in place: nothing merges them.
  std::vector<std::span<const double>> latencies;
  latencies.reserve(slots.size());
  report.shards.reserve(slots.size());
  for (std::optional<ShardResult>& slot : slots) {
    if (!slot.has_value()) continue;
    const ShardResult& s = report.shards.emplace_back(std::move(*slot));
    const loadgen::TestResult& r = s.result;
    report.offered += r.issued_count + r.shed_count;
    report.issued += r.issued_count;
    report.completed += r.sample_count;
    report.shed += r.shed_count;
    report.rejected += r.rejected_count;
    report.timed_out += r.timed_out_count;
    report.dropped += r.dropped_count;
    report.breaker_trips += s.breaker_trips;
    report.fleet_qps += r.throughput_sps;
    latencies.emplace_back(r.latencies_s);
    latency_count += r.latencies_s.size();
    if (s.slo_met) ++slo_met;
    switch (s.state) {
      case harness::TaskStatus::kValid: ++report.valid_count; break;
      case harness::TaskStatus::kValidDegraded:
        ++report.degraded_count;
        break;
      default: ++report.invalid_count; break;
    }
  }
  if (!report.shards.empty())
    report.slo_met_fraction = static_cast<double>(slo_met) /
                              static_cast<double>(report.shards.size());
  // Counted from the latencies themselves, not from `sample_count`, which
  // a replayed journal record carries as a separate field.
  if (latency_count > 0) {
    // Selected on the fleet's pool, which the shards have finished with.
    const double ps[] = {50.0, 90.0, 99.0};
    const std::vector<double> v = PercentilesOfRuns(latencies, ps, &pool);
    report.p50_ms = v[0] * 1e3;
    report.p90_ms = v[1] * 1e3;
    report.p99_ms = v[2] * 1e3;
  }

  metrics.SetGauge("fleet.shards.active", 0.0);
  metrics.SetGauge("fleet.queue_depth", 0.0);
  metrics.SetGauge("fleet.qps", report.fleet_qps);
  return report;
}

}  // namespace mlpm::fleet
