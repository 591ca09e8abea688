// Observability layer tests (DESIGN.md §11): recorder thread safety and
// span nesting, Chrome trace-event schema validation (positive and
// negative), metrics registry semantics, aggregate determinism on the
// simulated timeline, the zero-cost-when-disabled guarantee (no events AND
// bit-identical executor outputs), and the cross-layer property that traced
// per-IP self times reconstruct the simulator's reported latency.
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "infer/executor.h"
#include "infer/weights.h"
#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "soc/chipset.h"
#include "soc/compile.h"
#include "soc/simulator.h"

namespace mlpm {
namespace {

using obs::Domain;
using obs::EventPhase;
using obs::TraceEvent;
using obs::TraceRecorder;

// ---- recorder basics ----

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder rec;
  ASSERT_FALSE(rec.enabled());
  rec.AddComplete(Domain::kHost, {}, "op", 0.0, 1.0);
  rec.AddInstant(Domain::kSim, "faults", "fault", 2.0);
  rec.AddCounter(Domain::kSim, "dvfs", "throttle", 0.0, 1.0);
  { TraceRecorder::Span span(rec, "scoped"); }
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(TraceRecorder, EnableClearsPreviousEvents) {
  TraceRecorder rec;
  rec.Enable();
  rec.AddComplete(Domain::kHost, {}, "first", 0.0, 1.0);
  EXPECT_EQ(rec.event_count(), 1u);
  rec.Enable();  // restart
  EXPECT_EQ(rec.event_count(), 0u);
  rec.AddComplete(Domain::kHost, {}, "second", 0.0, 1.0);
  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "second");
}

TEST(TraceRecorder, DisableKeepsEventsForExport) {
  TraceRecorder rec;
  rec.Enable();
  rec.AddComplete(Domain::kHost, {}, "kept", 0.0, 1.0);
  rec.Disable();
  EXPECT_EQ(rec.event_count(), 1u);
  rec.AddComplete(Domain::kHost, {}, "ignored", 2.0, 1.0);
  EXPECT_EQ(rec.event_count(), 1u);
}

TEST(TraceRecorder, LanesGetStableTidsPerDomain) {
  TraceRecorder rec;
  rec.Enable();
  rec.AddComplete(Domain::kSim, "npu", "a", 0.0, 1.0);
  rec.AddComplete(Domain::kSim, "cpu", "b", 1.0, 1.0);
  rec.AddComplete(Domain::kSim, "npu", "c", 2.0, 1.0);
  rec.AddComplete(Domain::kHost, "npu", "d", 0.0, 1.0);  // distinct domain
  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  int npu_tid = 0;
  for (const TraceEvent& e : events)
    if (e.domain == Domain::kSim && e.name == "a") npu_tid = e.tid;
  ASSERT_NE(npu_tid, 0);
  for (const TraceEvent& e : events) {
    if (e.domain == Domain::kSim && (e.name == "a" || e.name == "c")) {
      EXPECT_EQ(e.tid, npu_tid);
    }
    if (e.domain == Domain::kHost) {
      EXPECT_NE(e.tid, npu_tid) << "lanes must be namespaced by domain";
    }
  }
  EXPECT_EQ(rec.LaneName(Domain::kSim, npu_tid), "npu");
}

TEST(TraceRecorder, SnapshotSortsParentsBeforeChildren) {
  TraceRecorder rec;
  rec.Enable();
  // Appended child-first: the sort must put the enclosing span first so
  // downstream nesting sweeps (validator, aggregator) see parents first.
  rec.AddComplete(Domain::kSim, "npu", "child", 0.0, 1.0);
  rec.AddComplete(Domain::kSim, "npu", "parent", 0.0, 4.0);
  const std::vector<TraceEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "parent");
  EXPECT_EQ(events[1].name, "child");
}

// ---- span nesting + thread safety (property) ----

TEST(TraceRecorderProperty, ConcurrentNestedSpansProduceAValidTrace) {
  TraceRecorder rec;
  rec.Enable();
  ThreadPool pool(4);
  constexpr std::size_t kIterations = 200;
  ParallelForEachItem(&pool, kIterations, [&](ItemClaims& next) {
    while (const std::optional<std::size_t> i = next()) {
      TraceRecorder::Span outer(rec, "outer",
                                {obs::Arg("i", static_cast<int>(*i))}, "work");
      {
        TraceRecorder::Span mid(rec, "mid", {}, "work");
        TraceRecorder::Span inner(rec, "inner", {}, "work");
      }
      rec.AddCounter(Domain::kHost, "depth", "nesting", rec.NowUs(), 3.0);
    }
  });
  rec.Disable();
  EXPECT_EQ(rec.event_count(), kIterations * 4);

  // Structural validity: every thread's spans nest on its own lane.
  obs::TraceCheckStats stats;
  const std::vector<std::string> problems =
      obs::ValidateChromeTrace(rec.ToChromeJson(), &stats);
  for (const std::string& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(stats.per_phase["X"], kIterations * 3);
  EXPECT_EQ(stats.per_phase["C"], kIterations);

  // Nesting invariant, checked directly on the snapshot as well: within a
  // lane, spans either nest or are disjoint, and "inner" sits inside "mid"
  // sits inside "outer".
  const std::vector<TraceEvent> events = rec.Snapshot();
  std::vector<const TraceEvent*> stack;
  int current_tid = -1;
  for (const TraceEvent& e : events) {
    if (e.phase != EventPhase::kComplete) continue;
    if (e.tid != current_tid) {
      stack.clear();
      current_tid = e.tid;
    }
    while (!stack.empty() &&
           e.ts_us >= stack.back()->ts_us + stack.back()->dur_us - 1e-6)
      stack.pop_back();
    if (!stack.empty()) {
      EXPECT_GE(e.ts_us, stack.back()->ts_us - 1e-6);
      EXPECT_LE(e.ts_us + e.dur_us,
                stack.back()->ts_us + stack.back()->dur_us + 1e-6);
      const std::string& parent = stack.back()->name;
      if (e.name == "inner") {
        EXPECT_EQ(parent, "mid");
      }
      if (e.name == "mid") {
        EXPECT_EQ(parent, "outer");
      }
    } else {
      EXPECT_EQ(e.name, "outer");
    }
    stack.push_back(&e);
  }
}

TEST(TraceRecorderProperty, ConcurrentWritersLoseNoEvents) {
  TraceRecorder rec;
  rec.Enable();
  ThreadPool pool(8);
  constexpr std::size_t kEvents = 5000;
  ParallelForEachItem(&pool, kEvents, [&](ItemClaims& next) {
    while (const std::optional<std::size_t> i = next()) {
      std::string name = "e";
      name += std::to_string(*i);
      rec.AddComplete(Domain::kHost, {}, std::move(name),
                      static_cast<double>(*i), 0.5);
    }
  });
  rec.Disable();
  EXPECT_EQ(rec.event_count(), kEvents);
  EXPECT_EQ(rec.Snapshot().size(), kEvents);
}

// ---- Chrome JSON schema ----

TEST(ChromeJson, RecorderOutputPassesValidator) {
  TraceRecorder rec;
  rec.Enable();
  rec.AddComplete(Domain::kHost, {}, "op", 0.0, 5.0,
                  {obs::Arg("bytes", std::uint64_t{128})}, "node");
  rec.AddInstant(Domain::kLoadGen, "phases", "phase:issue", 1.0, {}, "phase");
  rec.AddCounter(Domain::kSim, "thermal", "temperature_c", 2.0, 41.5);
  const std::uint64_t id = rec.NextAsyncId();
  rec.AddAsyncBegin(Domain::kLoadGen, "queries", "query", "query", id, 0.0);
  rec.AddAsyncEnd(Domain::kLoadGen, "queries", "query", "query", id, 3.0);
  obs::TraceCheckStats stats;
  const std::vector<std::string> problems =
      obs::ValidateChromeTrace(rec.ToChromeJson(), &stats);
  for (const std::string& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(stats.event_count, 5u);
  EXPECT_EQ(stats.per_phase["X"], 1u);
  EXPECT_EQ(stats.per_phase["i"], 1u);
  EXPECT_EQ(stats.per_phase["C"], 1u);
  EXPECT_EQ(stats.per_phase["b"], 1u);
  EXPECT_EQ(stats.per_phase["e"], 1u);
  EXPECT_EQ(stats.per_category["node"], 1u);
  EXPECT_EQ(stats.unmatched_async_begins, 0u);
}

TEST(ChromeJson, EscapesControlAndQuoteCharacters) {
  TraceRecorder rec;
  rec.Enable();
  rec.AddComplete(Domain::kHost, "lane \"x\"\n", "op\t\"quoted\"", 0.0, 1.0,
                  {obs::Arg("note", "line1\nline2")});
  const std::string json = rec.ToChromeJson();
  EXPECT_TRUE(obs::ValidateChromeTrace(json).empty()) << json;
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\\""), std::string::npos);
}

TEST(ChromeJson, ValidatorRejectsMalformedTraces) {
  // Not JSON at all.
  EXPECT_FALSE(obs::ValidateChromeTrace("{\"traceEvents\":[").empty());
  // Complete span without dur.
  EXPECT_FALSE(
      obs::ValidateChromeTrace(
          R"({"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"name":"a"}]})")
          .empty());
  // Unknown phase letter.
  EXPECT_FALSE(
      obs::ValidateChromeTrace(
          R"({"traceEvents":[{"ph":"Q","pid":1,"tid":1,"ts":0,"name":"a"}]})")
          .empty());
  // Counter without args.
  EXPECT_FALSE(
      obs::ValidateChromeTrace(
          R"({"traceEvents":[{"ph":"C","pid":1,"tid":1,"ts":0,"name":"a"}]})")
          .empty());
  // Async end without a matching begin.
  EXPECT_FALSE(obs::ValidateChromeTrace(
                   R"({"traceEvents":[{"ph":"e","pid":3,"tid":1,"ts":1,)"
                   R"("name":"q","cat":"query","id":"0x1"}]})")
                   .empty());
  // Overlapping non-nesting spans on one lane.
  EXPECT_FALSE(obs::ValidateChromeTrace(
                   R"({"traceEvents":[)"
                   R"({"ph":"X","pid":1,"tid":1,"ts":0,"dur":10,"name":"a"},)"
                   R"({"ph":"X","pid":1,"tid":1,"ts":5,"dur":10,"name":"b"}]})")
                   .empty());
}

TEST(ChromeJson, ValidatorAllowsUnmatchedAsyncBegins) {
  // A faulted run legitimately leaves queries that never completed; the
  // validator counts them instead of failing.
  obs::TraceCheckStats stats;
  const std::vector<std::string> problems = obs::ValidateChromeTrace(
      R"({"traceEvents":[{"ph":"b","pid":3,"tid":1,"ts":0,)"
      R"("name":"q","cat":"query","id":"0x7"}]})",
      &stats);
  for (const std::string& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(stats.unmatched_async_begins, 1u);
}

// ---- metrics registry ----

TEST(MetricsRegistry, CountersAndGaugesBehave) {
  obs::MetricsRegistry reg;
  reg.Increment("queries", 3);
  reg.Increment("queries");
  EXPECT_EQ(reg.counter("queries"), 4u);
  EXPECT_EQ(reg.counter("never_touched"), 0u);
  reg.SetGauge("temp", 40.0);
  reg.SetGauge("temp", 35.0);
  EXPECT_DOUBLE_EQ(reg.gauge("temp"), 35.0);
  reg.MaxGauge("peak", 10.0);
  reg.MaxGauge("peak", 7.0);
  EXPECT_DOUBLE_EQ(reg.gauge("peak"), 10.0);
  const obs::MetricsRegistry::Snapshot snap = reg.Snap();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "queries");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "peak");  // name order
  const std::string table = obs::RenderMetricsTable(snap);
  EXPECT_NE(table.find("queries"), std::string::npos);
  EXPECT_NE(table.find("gauge"), std::string::npos);
  reg.Reset();
  EXPECT_EQ(reg.counter("queries"), 0u);
  EXPECT_TRUE(reg.Snap().counters.empty());
  EXPECT_EQ(obs::RenderMetricsTable(reg.Snap()), "");
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossless) {
  obs::MetricsRegistry reg;
  ThreadPool pool(8);
  ParallelForEachItem(&pool, 10000, [&](ItemClaims& next) {
    while (next()) reg.Increment("n");
  });
  EXPECT_EQ(reg.counter("n"), 10000u);
}

// ---- aggregates ----

TEST(Aggregate, SelfTimeExcludesNestedChildren) {
  TraceRecorder rec;
  rec.Enable();
  // parent [0,100] with children [10,30] and [40,80] -> self 40.
  rec.AddComplete(Domain::kSim, "npu", "parent", 0.0, 100.0, {}, "soc");
  rec.AddComplete(Domain::kSim, "npu", "child", 10.0, 20.0, {}, "soc");
  rec.AddComplete(Domain::kSim, "npu", "child", 40.0, 40.0, {}, "soc");
  const std::vector<obs::OpAggregate> agg =
      obs::AggregateSpans(rec.Snapshot(), Domain::kSim, std::string("soc"));
  ASSERT_EQ(agg.size(), 2u);
  // Children total 60 > parent self 40: order by descending total self.
  EXPECT_EQ(agg[0].name, "child");
  EXPECT_EQ(agg[0].count, 2u);
  EXPECT_DOUBLE_EQ(agg[0].total_self_us, 60.0);
  EXPECT_EQ(agg[1].name, "parent");
  EXPECT_DOUBLE_EQ(agg[1].total_self_us, 40.0);
  const std::string csv = obs::AggregateCsv(agg);
  EXPECT_NE(csv.find("op,count,total_self_ms,p50_self_ms,p99_self_ms"),
            std::string::npos);
  EXPECT_NE(csv.find("child,2,"), std::string::npos);
}

TEST(Aggregate, FiltersByDomainAndCategory) {
  TraceRecorder rec;
  rec.Enable();
  rec.AddComplete(Domain::kHost, {}, "host op", 0.0, 1.0, {}, "node");
  rec.AddComplete(Domain::kSim, "npu", "sim op", 0.0, 1.0, {}, "soc");
  rec.AddComplete(Domain::kSim, "npu", "other cat", 5.0, 1.0, {}, "other");
  const auto sim =
      obs::AggregateSpans(rec.Snapshot(), Domain::kSim, std::string("soc"));
  ASSERT_EQ(sim.size(), 1u);
  EXPECT_EQ(sim[0].name, "sim op");
  const auto all_sim = obs::AggregateSpans(rec.Snapshot(), Domain::kSim);
  EXPECT_EQ(all_sim.size(), 2u);
}

// Deterministic graph for the simulator-based tests.
graph::Graph SmallConvNet() {
  graph::GraphBuilder b("obs_net");
  graph::TensorId x = b.Input("in", graph::TensorShape({1, 16, 16, 4}));
  for (int i = 0; i < 3; ++i)
    x = b.Conv2d(x, 4, 3, 1, graph::Activation::kRelu);
  b.MarkOutput(x);
  return std::move(b).Build();
}

TEST(Aggregate, SimulatedTimelineTablesAreDeterministic) {
  // The simulated plane runs on virtual time, so a fixed-seed rerun must
  // reproduce the aggregate table byte for byte (unlike wall-clock host
  // tables, which are only structurally stable).
  const auto run = [] {
    obs::TraceRecorder& rec = obs::TraceRecorder::Global();
    rec.Enable();
    soc::SocSimulator sim(soc::Dimensity1100());
    soc::ExecutionPolicy p;
    p.engines = {"apu"};
    soc::RuntimeOverheads o;
    o.per_inference_s = 1e-4;
    const soc::CompiledModel m =
        soc::Compile(SmallConvNet(), DataType::kInt8, sim.chipset(), p, o);
    for (int i = 0; i < 50; ++i) (void)sim.RunInference(m);
    rec.Disable();
    return obs::RenderAggregateTable(
        obs::AggregateSpans(rec.Snapshot(), Domain::kSim, std::string("soc")),
        "simulated IP steps");
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// ---- disabled tracing: zero events, bit-identical outputs ----

std::vector<infer::Tensor> GraphInputs(const graph::Graph& g,
                                       std::uint64_t seed) {
  std::vector<infer::Tensor> inputs;
  Rng rng(seed);
  for (const graph::TensorId id : g.input_ids()) {
    infer::Tensor t(g.tensor(id).shape);
    for (auto& v : t.values())
      v = static_cast<float>(rng.NextUniform(0.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

TEST(ObsExecutor, DisabledTracingRecordsNothingAndOutputsBitIdentical) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const graph::Graph g = SmallConvNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor exec(g, w);
  const std::vector<infer::Tensor> inputs = GraphInputs(g, 13);

  // Establish an empty enabled epoch, then disable: the run must add zero
  // events on top of it.
  rec.Enable();
  rec.Disable();
  const std::vector<infer::Tensor> untraced = exec.Run(inputs);
  EXPECT_EQ(rec.event_count(), 0u);

  rec.Enable();
  const std::vector<infer::Tensor> traced = exec.Run(inputs);
  rec.Disable();
  EXPECT_GT(rec.event_count(), 0u);

  ASSERT_EQ(untraced.size(), traced.size());
  for (std::size_t o = 0; o < untraced.size(); ++o) {
    ASSERT_EQ(untraced[o].size(), traced[o].size());
    for (std::size_t i = 0; i < untraced[o].size(); ++i)
      ASSERT_EQ(untraced[o].at(i), traced[o].at(i))
          << "tracing perturbed output " << o << " element " << i;
  }
}

TEST(ObsExecutor, NodeSpansCoverEveryGraphNode) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const graph::Graph g = SmallConvNet();
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor exec(g, w);
  rec.Enable();
  (void)exec.Run(GraphInputs(g, 13));
  rec.Disable();
  std::size_t node_spans = 0;
  for (const TraceEvent& e : rec.Snapshot())
    if (e.domain == Domain::kHost && e.category == "node") {
      ++node_spans;
      EXPECT_GE(e.dur_us, 0.0);
      bool has_bytes = false;
      for (const obs::TraceArg& a : e.args) has_bytes |= a.key == "bytes";
      EXPECT_TRUE(has_bytes) << e.name;
    }
  EXPECT_EQ(node_spans, g.nodes().size());
}

// ---- property: traced self times reconstruct simulator latency ----

// Random graphs in the memory-plan style: shape-preserving ops so any
// earlier tensor is a legal operand.
graph::Graph RandomGraph(std::uint64_t seed) {
  Rng rng(seed);
  graph::GraphBuilder b("random_" + std::to_string(seed));
  const graph::TensorShape shape({1, 8, 8, 4});
  std::vector<graph::TensorId> pool{b.Input("in", shape)};
  const int steps = 4 + static_cast<int>(rng.NextBelow(8));
  for (int s = 0; s < steps; ++s) {
    const graph::TensorId a =
        pool[static_cast<std::size_t>(rng.NextBelow(pool.size()))];
    const graph::TensorId c =
        pool[static_cast<std::size_t>(rng.NextBelow(pool.size()))];
    switch (rng.NextBelow(4)) {
      case 0: pool.push_back(b.Conv2d(a, 4, 3, 1)); break;
      case 1: pool.push_back(b.DepthwiseConv2d(a, 3, 1)); break;
      case 2: pool.push_back(b.Add(a, c)); break;
      case 3:
        pool.push_back(b.Activate(a, graph::Activation::kRelu));
        break;
    }
  }
  b.MarkOutput(pool.back());
  return std::move(b).Build();
}

TEST(ObsProperty, TracedSelfTimesSumToSimulatorLatency) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const graph::Graph g = RandomGraph(seed);
    soc::SocSimulator sim(seed % 2 == 0 ? soc::Dimensity1100()
                                        : soc::Snapdragon888());
    soc::ExecutionPolicy p;
    p.engines = {seed % 2 == 0 ? "apu" : "hta"};
    soc::RuntimeOverheads o;
    o.per_inference_s = 5e-5;
    const soc::CompiledModel m =
        soc::Compile(g, DataType::kInt8, sim.chipset(), p, o);

    rec.Enable();
    double reported_s = 0.0;
    for (int i = 0; i < 20; ++i) reported_s += sim.RunInference(m).latency_s;
    rec.Disable();

    // Sum of per-span self times over the simulated plane == total busy
    // time the simulator reported.  Self time (not raw duration) makes the
    // identity hold even with enclosing parent spans present.
    double traced_s = 0.0;
    for (const obs::OpAggregate& a : obs::AggregateSpans(
             rec.Snapshot(), Domain::kSim, std::string("soc")))
      traced_s += a.total_self_us * 1e-6;
    EXPECT_NEAR(traced_s, reported_s, reported_s * 1e-6 + 1e-12)
        << "seed " << seed;
    EXPECT_NEAR(sim.busy_time_s(), reported_s, 1e-12);
  }
}

TEST(ObsProperty, FaultedAttemptsStillAccountAllBusyTime) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const graph::Graph g = RandomGraph(3);
  soc::SocSimulator sim(soc::Dimensity1100());
  soc::FaultPlan plan;
  plan.seed = 99;
  plan.DriverCrashes(0.5);
  sim.InjectFaults(plan);
  soc::ExecutionPolicy p;
  p.engines = {"apu"};
  const soc::CompiledModel m = soc::Compile(g, DataType::kInt8, sim.chipset(),
                                            p, soc::RuntimeOverheads{});
  rec.Enable();
  double reported_s = 0.0;
  std::size_t faults = 0;
  for (int i = 0; i < 40; ++i) {
    const soc::InferenceResult r = sim.RunInference(m);
    reported_s += r.latency_s;
    faults += r.outcome != soc::InferenceOutcome::kOk;
  }
  rec.Disable();
  ASSERT_GT(faults, 0u) << "fault plan never fired; test is vacuous";

  double traced_s = 0.0;
  for (const obs::OpAggregate& a :
       obs::AggregateSpans(rec.Snapshot(), Domain::kSim, std::string("soc")))
    traced_s += a.total_self_us * 1e-6;
  EXPECT_NEAR(traced_s, reported_s, reported_s * 1e-6 + 1e-12);

  // Fault instants were stamped for the non-ok outcomes.
  std::size_t fault_marks = 0;
  for (const TraceEvent& e : rec.Snapshot())
    fault_marks += e.category == "fault";
  EXPECT_EQ(fault_marks, faults);
}

}  // namespace
}  // namespace mlpm
