// Engineering microbenchmarks for the execution engine: one inference and
// the sample-level accuracy fan-out, trace-recorder overhead, static memory
// plans, the transform pipeline, and tiled execution.
//
// Standalone (no benchmark framework): adaptive wall-clock timing, a table
// on stdout, and a machine-readable BENCH_kernels.json for CI artifacts.
// Each speed gate times its two sides call by call in alternation and gates
// the median of five rounds' ratios, so a busy host slows both sides alike.
// Every optimized path is asserted bit-identical to its reference before
// being timed, so a speedup can never come from a wrong answer.
//
// Usage: bench_kernels [--json PATH] [--smoke]
//   --json PATH  output file (default BENCH_kernels.json)
//   --smoke      reduced timing budget for CI; every section and every
//                exactness assertion still runs at full strength
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "infer/executor.h"
#include "infer/kernels/registry.h"
#include "infer/memory_plan.h"
#include "infer/prepared_model.h"
#include "infer/tile_planner.h"
#include "infer/weights.h"
#include "models/mobilenet_edgetpu.h"
#include "models/zoo.h"
#include "obs/trace.h"
#include "transform/pass_manager.h"

namespace {

using namespace mlpm;
using benchutil::Check;
using benchutil::Record;

// Wall-clock budget per measurement; --smoke shrinks it for CI where the
// artifact matters more than the noise floor.
double g_time_budget_s = 0.15;

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  return benchutil::TimeSeconds(g_time_budget_s, std::forward<Fn>(fn));
}

// The two sides of a ratio gate, timed call by call in alternation (the
// side that goes first alternates too), so that a change in host load
// lands on both sides instead of on one.  Each of kGateRounds rounds keeps
// each side's best call; the gate reads the median of the rounds' ratios.
constexpr int kGateRounds = 5;
struct PairedTimes {
  double a_s = 1e300;  // best seconds of one call of `a` over the rounds
  double b_s = 1e300;  // the same for `b`
  double ratio = 0.0;  // the median over the rounds of b's best / a's best
};

template <typename A, typename B>
PairedTimes TimePaired(A&& a, B&& b) {
  using Clock = std::chrono::steady_clock;
  const auto once = [](auto& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  a();  // warm-up (page faults, caches)
  b();
  PairedTimes t;
  std::vector<double> ratios;
  for (int r = 0; r < kGateRounds; ++r) {
    double best_a = 1e300, best_b = 1e300, spent = 0.0;
    for (int i = 0; spent < 2 * g_time_budget_s; ++i) {
      double sa = 0.0, sb = 0.0;
      if (i % 2 == 0) {
        sa = once(a);
        sb = once(b);
      } else {
        sb = once(b);
        sa = once(a);
      }
      best_a = std::min(best_a, sa);
      best_b = std::min(best_b, sb);
      spent += sa + sb;
    }
    t.a_s = std::min(t.a_s, best_a);
    t.b_s = std::min(t.b_s, best_b);
    ratios.push_back(best_b / best_a);
  }
  std::ranges::nth_element(ratios, ratios.begin() + kGateRounds / 2);
  t.ratio = ratios[kGateRounds / 2];
  return t;
}

void BenchExecutor(const ThreadPool& pool) {
  std::printf("mini MobileNetEdgeTPU inference (one vs a fan-out):\n");
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor exec(g, w);
  infer::Tensor input(g.tensor(g.input_ids()[0]).shape);
  Rng rng(3);
  for (auto& v : input.values()) v = static_cast<float>(rng.NextDouble());
  const std::vector<infer::Tensor> inputs{input};

  infer::ExecutionContext ctx = exec.CreateContext();
  const double s_serial =
      TimeSeconds([&] { auto out = exec.Run(inputs, ctx); });
  Record("executor_mini_classifier_serial_ms", s_serial * 1e3, "ms");

  // Sample-level fan-out (the accuracy-mode regime): 8 samples per batch.
  std::vector<std::vector<infer::Tensor>> sample_inputs;
  for (int s = 0; s < 8; ++s) {
    infer::Tensor t(g.tensor(g.input_ids()[0]).shape);
    for (auto& v : t.values()) v = static_cast<float>(rng.NextDouble());
    sample_inputs.push_back({std::move(t)});
  }
  const auto inputs_for = [&](std::size_t i) -> infer::SampleInputs {
    return std::span<const infer::Tensor>(sample_inputs[i]);
  };
  const double s_loop = TimeSeconds([&] {
    auto out = infer::RunSamplesParallel(exec, sample_inputs.size(),
                                         inputs_for, nullptr);
  });
  const double s_fan = TimeSeconds([&] {
    auto out = infer::RunSamplesParallel(exec, sample_inputs.size(),
                                         inputs_for, &pool);
  });
  Record("accuracy_fanout_8samples_serial_ms", s_loop * 1e3, "ms");
  Record("accuracy_fanout_8samples_threaded_ms", s_fan * 1e3, "ms");
  Record("accuracy_fanout_8samples_speedup", s_loop / s_fan, "x");
}

// Trace-recorder overhead on the hot arena path (DESIGN.md §11 budget):
// enabling tracing must not change any output bit, and the disabled cost
// is one relaxed atomic load per node — recorded here so a regression in
// either direction shows up in the CI artifact.
void BenchTraceOverhead() {
  std::printf("trace recorder overhead (arena execution, mini model):\n");
  models::BenchmarkEntry entry;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0))
    if (e.task == models::TaskType::kImageClassification) entry = e;
  const graph::Graph g = models::BuildReferenceGraph(
      entry, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 11);
  const infer::Executor exec(g, w);

  Rng rng(7);
  std::vector<infer::Tensor> inputs;
  for (const graph::TensorId id : g.input_ids()) {
    infer::Tensor t(g.tensor(id).shape);
    for (auto& v : t.values()) v = static_cast<float>(rng.NextDouble());
    inputs.push_back(std::move(t));
  }
  infer::ExecutionContext ctx = exec.CreateContext();

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Disable();
  const auto out_off = exec.Run(inputs, ctx);
  rec.Enable();
  const auto out_on = exec.Run(inputs, ctx);
  rec.Disable();
  Check(out_off.size() == out_on.size(), "traced output count != untraced");
  for (std::size_t o = 0; o < out_off.size(); ++o)
    for (std::size_t i = 0; i < out_off[o].size(); ++i)
      Check(out_off[o].at(i) == out_on[o].at(i),
            "traced run output != untraced (tracing must be read-only)");

  const double s_off = TimeSeconds([&] { auto out = exec.Run(inputs, ctx); });
  rec.Enable();
  const double s_on = TimeSeconds([&] { auto out = exec.Run(inputs, ctx); });
  rec.Disable();
  rec.Enable();  // drop the events accumulated while timing
  rec.Disable();
  Record("trace_disabled_ms", s_off * 1e3, "ms");
  Record("trace_enabled_ms", s_on * 1e3, "ms");
  Record("trace_enabled_overhead", 100.0 * (s_on - s_off) / s_off, "%");
}

// Planner-only sweep over every reference model at full scale: records the
// packed arena footprint against the naive per-tensor sum and hard-fails
// if packing ever loses to naive allocation (CI gate).
void BenchMemoryPlans() {
  std::printf("static memory plans (full-scale reference models):\n");
  for (const auto version :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0}) {
    for (const models::BenchmarkEntry& entry : models::SuiteFor(version)) {
      const graph::Graph g = models::BuildReferenceGraph(
          entry, version, models::ModelScale::kFull);
      const infer::MemoryPlan plan = infer::MemoryPlan::Build(g);
      Check(plan.peak_arena_bytes() < plan.naive_bytes(),
            "planned arena not smaller than naive activation footprint");
      const std::string tag = std::string("memplan_") +
                              std::string(ToString(version)) + "_" +
                              entry.id;
      Record(tag + "_peak_mib",
             static_cast<double>(plan.peak_arena_bytes()) / (1024.0 * 1024.0),
             "MiB");
      Record(tag + "_naive_mib",
             static_cast<double>(plan.naive_bytes()) / (1024.0 * 1024.0),
             "MiB");
      Record(tag + "_savings",
             100.0 * plan.savings_ratio(), "%");
    }
  }
}

// Verified transform pipeline (DESIGN.md §14) over every mini reference
// model at FP32: the fused graph must execute strictly fewer nodes than the
// canonical (split) form, produce bit-identical outputs, and not regress
// single-sample latency grossly (a median paired ratio above 2x is a hard
// CI failure; the speedup itself is recorded so smaller drifts show up in
// the artifact).
void BenchTransform() {
  std::printf("graph-transform pipeline (mini reference models, fp32):\n");
  std::vector<std::string> seen;
  for (const auto version :
       {models::SuiteVersion::kV1_0, models::SuiteVersion::kV0_7}) {
    for (const models::BenchmarkEntry& entry : models::SuiteFor(version)) {
      bool dup = false;
      for (const std::string& s : seen) dup = dup || s == entry.model_name;
      if (dup) continue;
      seen.push_back(entry.model_name);

      const graph::Graph g = models::BuildReferenceGraph(
          entry, version, models::ModelScale::kMini);
      const infer::WeightStore w = infer::InitializeWeights(g, 13);
      const transform::TransformResult res =
          transform::MakeDefaultPipeline(
              transform::TransformOptions{.mode = infer::NumericsMode::kFp32})
              .Run(g, w);
      Check(!res.diagnostics.HasErrors() && !res.AnyRolledBack(),
            "transform pipeline reported errors on a reference model");
      Check(res.nodes_after < res.nodes_canonical,
            "fusion did not reduce executed node count");

      const infer::Executor base(g, w);
      const infer::Executor fused(res.graph, res.weights);
      Rng rng(17);
      std::vector<infer::Tensor> inputs;
      for (const graph::TensorId id : g.input_ids()) {
        infer::Tensor t(g.tensor(id).shape);
        for (auto& v : t.values())
          v = static_cast<float>(rng.NextUniform(-1, 1));
        inputs.push_back(std::move(t));
      }
      const auto out_base = base.Run(inputs);
      const auto out_fused = fused.Run(inputs);
      Check(out_base.size() == out_fused.size(),
            "transformed output count != untransformed");
      for (std::size_t o = 0; o < out_base.size(); ++o)
        for (std::size_t i = 0; i < out_base[o].size(); ++i)
          Check(out_base[o].at(i) == out_fused[o].at(i),
                "transformed graph != untransformed (fp32 must be bit-exact)");

      const PairedTimes t = TimePaired([&] { auto out = base.Run(inputs); },
                                       [&] { auto out = fused.Run(inputs); });
      Check(t.ratio <= 2.0,
            "fused path grossly slower than untransformed graph");
      const std::string tag = "transform_" + entry.model_name;
      Record(tag + "_nodes_removed",
             static_cast<double>(res.nodes_canonical - res.nodes_after),
             "nodes");
      Record(tag + "_base_ms", t.a_s * 1e3, "ms");
      Record(tag + "_fused_ms", t.b_s * 1e3, "ms");
      Record(tag + "_speedup", 1.0 / t.ratio, "x");
    }
  }
}

// Tiled, fused pipeline execution (DESIGN.md §15).  Three hard CI gates:
// the tile-aware plan must strictly shrink the packed arena on every
// full-scale reference model that has a fusable segment; tiled execution
// must stay bit-identical to the whole-op oracle; and tiled single-sample
// latency must not grossly regress (a median paired ratio above 1.5x the
// whole-op arena path fails).  The speedups themselves are recorded so
// smaller drifts show in the artifact.
void BenchTiledPlans() {
  std::printf("tiled memory plans (full-scale reference models):\n");
  infer::TileOptions on;
  on.enabled = true;
  for (const auto version :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0}) {
    int shrunk = 0;
    for (const models::BenchmarkEntry& entry : models::SuiteFor(version)) {
      const graph::Graph g = models::BuildReferenceGraph(
          entry, version, models::ModelScale::kFull);
      const infer::TilePlan tiles = infer::BuildTilePlan(g, on);
      if (tiles.empty()) {
        continue;  // no chain survived the planner (e.g. MobileBERT)
      }
      const infer::MemoryPlan untiled = infer::MemoryPlan::Build(g);
      const infer::MemoryPlan tiled = infer::MemoryPlan::Build(g, &tiles);
      // The planner's footprint gate guarantees never-worse; a strictly
      // equal peak is legitimate where a graph-output interval pins it
      // (DeepLab's 512x512 logits dominate any packing).
      Check(tiled.peak_arena_bytes() <= untiled.peak_arena_bytes(),
            "tiled plan packs worse than the untiled arena");
      shrunk += tiled.peak_arena_bytes() < untiled.peak_arena_bytes();
      const std::string tag = std::string("tile_plan_") +
                              std::string(ToString(version)) + "_" + entry.id;
      Record(tag + "_segments",
             static_cast<double>(tiles.segments.size()), "segments");
      Record(tag + "_arena_mib",
             static_cast<double>(tiled.peak_arena_bytes()) / (1024.0 * 1024.0),
             "MiB");
      Record(tag + "_untiled_arena_mib",
             static_cast<double>(untiled.peak_arena_bytes()) /
                 (1024.0 * 1024.0),
             "MiB");
      Record(tag + "_slab_kib",
             static_cast<double>(tiled.tile_slab_bytes()) / 1024.0, "KiB");
    }
    Check(shrunk >= 2, "tiling shrank the arena on fewer than two models");
  }
}

void BenchTiledExecution() {
  std::printf("tiled vs whole-op execution (mini models, single sample):\n");
  infer::TileOptions on;
  on.enabled = true;
  for (const models::BenchmarkEntry& entry :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = models::BuildReferenceGraph(
        entry, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
    if (!infer::HasFusableSegment(g)) continue;
    const infer::WeightStore w = infer::InitializeWeights(g, 11);
    const infer::Executor whole(g, w);
    const infer::Executor tiled(g, w, infer::NumericsMode::kFp32, nullptr,
                                infer::kernels::KernelIsa::kAuto, on);
    Check(tiled.tiled(), "tiling requested but no segment planned");

    Rng rng(5);
    std::vector<infer::Tensor> inputs;
    for (const graph::TensorId id : g.input_ids()) {
      infer::Tensor t(g.tensor(id).shape);
      for (auto& v : t.values()) v = static_cast<float>(rng.NextDouble());
      inputs.push_back(std::move(t));
    }
    infer::ExecutionContext ctx_whole = whole.CreateContext();
    infer::ExecutionContext ctx_tiled = tiled.CreateContext();
    const auto oracle = whole.Run(inputs);
    const auto out_tiled = tiled.Run(inputs, ctx_tiled);
    Check(oracle.size() == out_tiled.size(), "tiled output count != oracle");
    for (std::size_t o = 0; o < oracle.size(); ++o)
      for (std::size_t i = 0; i < oracle[o].size(); ++i)
        Check(oracle[o].at(i) == out_tiled[o].at(i),
              "tiled execution != whole-op oracle");

    const PairedTimes t =
        TimePaired([&] { auto out = whole.Run(inputs, ctx_whole); },
                   [&] { auto out = tiled.Run(inputs, ctx_tiled); });
    Check(t.ratio <= 1.5,
          "tiled execution grossly slower than the whole-op arena path");
    const std::string tag = "tile_exec_" + entry.model_name;
    Record(tag + "_whole_ms", t.a_s * 1e3, "ms");
    Record(tag + "_tiled_ms", t.b_s * 1e3, "ms");
    Record(tag + "_speedup", 1.0 / t.ratio, "x");
  }
}

// Band-size sweep on the classification mini model: every band is asserted
// bit-exact against the oracle, then timed, so the locality/overhead
// trade-off is visible in the artifact (band size never changes results).
void BenchTileSweep() {
  std::printf("tile-size sweep (classification mini model):\n");
  models::BenchmarkEntry entry;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0))
    if (e.task == models::TaskType::kImageClassification) entry = e;
  const graph::Graph g = models::BuildReferenceGraph(
      entry, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 11);
  Rng rng(5);
  std::vector<infer::Tensor> inputs;
  for (const graph::TensorId id : g.input_ids()) {
    infer::Tensor t(g.tensor(id).shape);
    for (auto& v : t.values()) v = static_cast<float>(rng.NextDouble());
    inputs.push_back(std::move(t));
  }
  const infer::Executor whole(g, w);
  const auto oracle = whole.Run(inputs);

  for (const std::int64_t rows :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{4}, std::int64_t{8},
        std::int64_t{-1}}) {
    infer::TileOptions opt;
    opt.enabled = true;
    opt.rows = rows;
    const infer::Executor tiled(g, w, infer::NumericsMode::kFp32, nullptr,
                                infer::kernels::KernelIsa::kAuto, opt);
    infer::ExecutionContext ctx = tiled.CreateContext();
    const auto out = tiled.Run(inputs, ctx);
    for (std::size_t o = 0; o < oracle.size(); ++o)
      for (std::size_t i = 0; i < oracle[o].size(); ++i)
        Check(oracle[o].at(i) == out[o].at(i),
              "tile-size sweep band != whole-op oracle");
    const double s = TimeSeconds([&] { auto r = tiled.Run(inputs, ctx); });
    const std::string tag =
        "tile_sweep_rows" + (rows == -1 ? std::string("_auto")
                                        : std::to_string(rows));
    Record(tag + "_ms", s * 1e3, "ms");
  }
}

// A depthwise stage feeding pointwise-projection + activation pairs at
// narrow channels — the bandwidth-bound regime tiling exists for.  The
// interiors are all zero-halo (1x1 convs and elementwise), so fused row
// bands eliminate every intermediate's round trip to outer cache levels
// at no recompute cost; with 4 MiB intermediates against a 1.5 MiB slab
// budget that is a measured speedup, and the headline tile_* record.
void BenchTiledChain() {
  std::printf("tiled dw/pw chain (2048x64x8, 7-node segment):\n");
  graph::GraphBuilder b("deep_chain");
  const auto in = b.Input("in", graph::TensorShape({1, 2048, 64, 8}));
  auto x = b.DepthwiseConv2d(in, 3, 1);
  for (int i = 0; i < 3; ++i) {
    x = b.Conv2d(x, 8, 1, 1);
    x = b.Activate(x, graph::Activation::kRelu6);
  }
  b.MarkOutput(x);
  const graph::Graph g = std::move(b).Build();
  const infer::WeightStore w = infer::InitializeWeights(g, 19);

  infer::TileOptions on;
  on.enabled = true;
  on.cache_bytes = 1536 * 1024;
  const infer::Executor whole(g, w);
  const infer::Executor tiled(g, w, infer::NumericsMode::kFp32, nullptr,
                              infer::kernels::KernelIsa::kAuto, on);
  Check(tiled.tiled(), "deep chain did not form a segment");

  Rng rng(23);
  std::vector<infer::Tensor> inputs;
  inputs.emplace_back(g.tensor(in).shape);
  for (auto& v : inputs[0].values()) v = static_cast<float>(rng.NextDouble());

  infer::ExecutionContext ctx_whole = whole.CreateContext();
  infer::ExecutionContext ctx_tiled = tiled.CreateContext();
  const auto oracle = whole.Run(inputs, ctx_whole);
  const auto out = tiled.Run(inputs, ctx_tiled);
  for (std::size_t i = 0; i < oracle[0].size(); ++i)
    Check(oracle[0].at(i) == out[0].at(i), "tiled chain != whole-op oracle");

  const PairedTimes t =
      TimePaired([&] { auto r = whole.Run(inputs, ctx_whole); },
                 [&] { auto r = tiled.Run(inputs, ctx_tiled); });
  // Zero-halo interiors mean tiling has no recompute downside here; the
  // small slack only absorbs timer noise.  Anything slower is a real
  // regression in the tiled path.
  Check(t.ratio <= 1.05, "tiled dw/pw chain lost its locality speedup");
  Record("tile_chain_whole_ms", t.a_s * 1e3, "ms");
  Record("tile_chain_tiled_ms", t.b_s * 1e3, "ms");
  Record("tile_chain_speedup", 1.0 / t.ratio, "x");
  Record("tile_chain_slab_kib",
         static_cast<double>(tiled.memory_plan().tile_slab_bytes()) / 1024.0,
         "KiB");
  Record("tile_chain_arena_kib",
         static_cast<double>(tiled.memory_plan().peak_arena_bytes()) / 1024.0,
         "KiB");
  Record("tile_chain_untiled_arena_kib",
         static_cast<double>(whole.memory_plan().peak_arena_bytes()) / 1024.0,
         "KiB");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      g_time_budget_s = 0.02;
    } else {
      std::fprintf(stderr, "usage: bench_kernels [--json PATH] [--smoke]\n");
      return 2;
    }
  }

  const ThreadPool pool;  // hardware concurrency
  std::printf("bench_kernels: %zu execution lane(s)\n", pool.thread_count());
  BenchExecutor(pool);
  BenchTraceOverhead();
  BenchMemoryPlans();
  BenchTransform();
  BenchTiledPlans();
  BenchTiledExecution();
  BenchTileSweep();
  BenchTiledChain();
  benchutil::WriteJson(json_path, pool.thread_count());
  return 0;
}
