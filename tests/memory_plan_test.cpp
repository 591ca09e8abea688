// Static activation memory planner and arena execution.
//
// The planner's contract has two halves: (1) structural — no two buffers
// whose lifetimes overlap may share arena bytes, aliases only ride on ops
// that tolerate in-place writes, and the packed arena never exceeds the
// naive footprint beyond alignment slack; (2) behavioural — executing
// against the plan is bit-identical to the allocate-per-node oracle
// (oracle.h) for every reference model, numerics mode and thread count.
// Both halves are checked here, the structural one over randomly generated
// graphs.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "backends/reference_backend.h"
#include "common/rng.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "graph/graph.h"
#include "graph/liveness.h"
#include "harness/task_bundle.h"
#include "infer/executor.h"
#include "infer/memory_plan.h"
#include "infer/weights.h"
#include "models/zoo.h"
#include "quant/calibration.h"
#include "oracle.h"

namespace mlpm {
namespace {

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

void ExpectBitIdentical(const std::vector<infer::Tensor>& want,
                        const std::vector<infer::Tensor>& got,
                        const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t o = 0; o < want.size(); ++o) {
    ASSERT_EQ(want[o].size(), got[o].size()) << what;
    for (std::size_t i = 0; i < want[o].size(); ++i)
      ASSERT_EQ(want[o].at(i), got[o].at(i))
          << what << " output " << o << " element " << i;
  }
}

TEST(Liveness, IntervalsMatchHandComputedChain) {
  graph::GraphBuilder b("chain");
  const graph::TensorId in = b.Input("in", graph::TensorShape({1, 8, 8, 3}));
  const graph::TensorId conv = b.Conv2d(in, 4, 3, 1);
  const graph::TensorId act = b.Activate(conv, graph::Activation::kRelu);
  b.MarkOutput(act);
  const graph::Graph g = std::move(b).Build();
  // Node order: [0] conv, [1] activation (the builder registers graph
  // inputs as tensors, not nodes).
  const std::vector<graph::LiveInterval> live = graph::ComputeLiveness(g);

  EXPECT_EQ(live[static_cast<std::size_t>(in)].def, -1);  // live at entry
  EXPECT_EQ(live[static_cast<std::size_t>(in)].last_use, 0);
  EXPECT_TRUE(live[static_cast<std::size_t>(in)].is_activation);
  EXPECT_EQ(live[static_cast<std::size_t>(conv)].def, 0);
  EXPECT_EQ(live[static_cast<std::size_t>(conv)].last_use, 1);
  // Graph output pinned past the final node.
  EXPECT_EQ(live[static_cast<std::size_t>(act)].def, 1);
  EXPECT_EQ(live[static_cast<std::size_t>(act)].last_use,
            static_cast<std::int32_t>(g.nodes().size()));
  // Disjoint intervals don't overlap; chained ones do.
  EXPECT_TRUE(live[static_cast<std::size_t>(in)].Overlaps(
      live[static_cast<std::size_t>(conv)]));
}

// Structural invariants of one plan against its graph.
void CheckPlanInvariants(const graph::Graph& g, const infer::MemoryPlan& plan) {
  constexpr std::size_t kAlign = infer::kArenaAlignElements;
  const auto aligned = [](std::size_t n) {
    return (n + kAlign - 1) / kAlign * kAlign;
  };

  // No two lifetime-overlapping buffers may intersect in the arena.
  const auto& bufs = plan.buffers();
  for (std::size_t a = 0; a < bufs.size(); ++a) {
    for (std::size_t c = a + 1; c < bufs.size(); ++c) {
      const bool live_overlap = bufs[a].def <= bufs[c].last_use &&
                                bufs[c].def <= bufs[a].last_use;
      if (!live_overlap) continue;
      const bool range_overlap =
          bufs[a].offset < bufs[c].offset + aligned(bufs[c].elements) &&
          bufs[c].offset < bufs[a].offset + aligned(bufs[a].elements);
      EXPECT_FALSE(range_overlap)
          << g.name() << ": buffers " << bufs[a].root << " and "
          << bufs[c].root << " are simultaneously live and overlap";
    }
    EXPECT_LE(bufs[a].offset + aligned(bufs[a].elements),
              plan.arena_elements());
  }

  // Placement sanity: inputs/weights stay external; every produced tensor
  // is planned; aliases only on in-place-capable ops over live-matched
  // element counts.
  for (const graph::Node& n : g.nodes()) {
    const auto out = static_cast<std::size_t>(n.output);
    const infer::TensorPlacement& p = plan.placements()[out];
    if (n.op == graph::OpType::kInput) {
      EXPECT_EQ(p.kind, infer::PlacementKind::kUnplanned);
      continue;
    }
    EXPECT_NE(p.kind, infer::PlacementKind::kUnplanned) << g.name();
    if (p.kind == infer::PlacementKind::kAlias) {
      EXPECT_TRUE(infer::SupportsInPlace(n.op)) << g.name();
      const infer::TensorPlacement& src =
          plan.placements()[static_cast<std::size_t>(n.inputs[0])];
      EXPECT_EQ(p.buffer, src.buffer) << g.name();
      EXPECT_EQ(p.offset, src.offset) << g.name();
    }
  }

  EXPECT_LE(plan.peak_arena_bytes(),
            plan.naive_bytes() + bufs.size() * kAlign * sizeof(float));
}

// Random graphs over shape-preserving ops: conv, depthwise, add,
// activation, same-shape reshape, concat+conv (channel merge).  Every op
// keeps {1, 8, 8, 4} so any earlier tensor is a legal operand, which is
// exactly the regime where lifetime mistakes would overlap buffers.
graph::Graph RandomGraph(std::uint64_t seed) {
  Rng rng(seed);
  graph::GraphBuilder b("random_" + std::to_string(seed));
  const graph::TensorShape shape({1, 8, 8, 4});
  std::vector<graph::TensorId> pool{b.Input("in", shape)};
  const int steps = 4 + static_cast<int>(rng.NextBelow(10));
  for (int s = 0; s < steps; ++s) {
    const graph::TensorId a =
        pool[static_cast<std::size_t>(rng.NextBelow(pool.size()))];
    const graph::TensorId c =
        pool[static_cast<std::size_t>(rng.NextBelow(pool.size()))];
    switch (rng.NextBelow(5)) {
      case 0: pool.push_back(b.Conv2d(a, 4, 3, 1)); break;
      case 1: pool.push_back(b.DepthwiseConv2d(a, 3, 1)); break;
      case 2: pool.push_back(b.Add(a, c)); break;
      case 3:
        pool.push_back(b.Activate(a, graph::Activation::kRelu));
        break;
      case 4: pool.push_back(b.Reshape(a, {1, 8, 8, 4})); break;
    }
  }
  // One or two outputs, always including the last tensor.
  b.MarkOutput(pool.back());
  if (rng.NextBelow(2) == 0 && pool.size() > 2)
    b.MarkOutput(pool[pool.size() / 2]);
  return std::move(b).Build();
}

TEST(MemoryPlanProperty, RandomGraphsNeverOverlapLiveBuffers) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const graph::Graph g = RandomGraph(seed);
    const infer::MemoryPlan plan = infer::MemoryPlan::Build(g);
    CheckPlanInvariants(g, plan);
  }
}

TEST(MemoryPlanProperty, RandomGraphsExecuteBitIdenticalToLegacy) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const graph::Graph g = RandomGraph(seed);
    const infer::WeightStore w = infer::InitializeWeights(g, seed);
    const infer::Executor exec(g, w);
    const std::vector<infer::Tensor> inputs = GraphInputs(g, seed + 100);

    const auto oracle = testutil::RunOracle(exec, inputs);
    infer::ExecutionContext ctx = exec.CreateContext();
    ExpectBitIdentical(oracle, exec.Run(inputs, ctx), g.name());
  }
}

TEST(MemoryPlan, ReshapeAndElementwiseAliasOntoDyingBuffers) {
  graph::GraphBuilder b("alias_chain");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 4}));
  const auto conv = b.Conv2d(in, 4, 3, 1);
  const auto act = b.Activate(conv, graph::Activation::kRelu);
  const auto resh = b.Reshape(act, {1, 8, 8, 4});
  const auto fc = b.FullyConnected(resh, 10);
  b.MarkOutput(fc);
  const graph::Graph g = std::move(b).Build();
  const infer::MemoryPlan plan = infer::MemoryPlan::Build(g);

  // conv's buffer dies at the relu, so relu writes in place; the reshape
  // then rides the same buffer as a pure view.  Only conv and fc own arena
  // storage.
  EXPECT_EQ(plan.placements()[static_cast<std::size_t>(act)].kind,
            infer::PlacementKind::kAlias);
  EXPECT_EQ(plan.placements()[static_cast<std::size_t>(resh)].kind,
            infer::PlacementKind::kAlias);
  EXPECT_EQ(plan.placements()[static_cast<std::size_t>(resh)].buffer, conv);
  EXPECT_EQ(plan.alias_count(), 2u);
  EXPECT_EQ(plan.buffers().size(), 2u);
  CheckPlanInvariants(g, plan);
}

TEST(MemoryPlan, NoAliasWhenProducerBufferStaysLive) {
  graph::GraphBuilder b("no_alias");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 4}));
  const auto conv = b.Conv2d(in, 4, 3, 1);
  const auto act = b.Activate(conv, graph::Activation::kRelu);
  // conv is read again *after* the relu, so the relu must not clobber it.
  const auto sum = b.Add(act, conv);
  b.MarkOutput(sum);
  const graph::Graph g = std::move(b).Build();
  const infer::MemoryPlan plan = infer::MemoryPlan::Build(g);

  EXPECT_EQ(plan.placements()[static_cast<std::size_t>(act)].kind,
            infer::PlacementKind::kArena);
  // The add's first input (act) does die at the add, so the add may alias.
  EXPECT_EQ(plan.placements()[static_cast<std::size_t>(sum)].kind,
            infer::PlacementKind::kAlias);
  CheckPlanInvariants(g, plan);

  // And the numbers agree with the oracle.
  const infer::WeightStore w = infer::InitializeWeights(g, 3);
  const infer::Executor exec(g, w);
  const auto inputs = GraphInputs(g, 5);
  infer::ExecutionContext ctx = exec.CreateContext();
  ExpectBitIdentical(testutil::RunOracle(exec, inputs), exec.Run(inputs, ctx),
                     "no_alias");
}

TEST(ArenaExecution, BitIdenticalToLegacyForAllModelsAndNumerics) {
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = models::BuildReferenceGraph(
        e, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
    const infer::WeightStore w = infer::InitializeWeights(g, 7);
    const std::vector<infer::Tensor> inputs = GraphInputs(g, 42);

    // Calibrated INT8 exercises the fake-quant-over-aliased-buffer path.
    const std::vector<quant::CalibrationSample> samples{GraphInputs(g, 1),
                                                        GraphInputs(g, 2)};
    const infer::QuantParams qp = quant::CalibratePtq(g, w, samples);

    for (const infer::NumericsMode mode :
         {infer::NumericsMode::kFp32, infer::NumericsMode::kFp16,
          infer::NumericsMode::kInt8}) {
      const infer::Executor exec(g, w, mode,
                                 mode == infer::NumericsMode::kInt8 ? &qp
                                                                    : nullptr);
      const std::string what =
          e.id + "/" + std::string(ToString(mode));
      const auto oracle = testutil::RunOracle(exec, inputs);
      infer::ExecutionContext ctx = exec.CreateContext();
      // Twice through the same context: a stale value surviving the first
      // run would surface in the second.
      ExpectBitIdentical(oracle, exec.Run(inputs, ctx), what + " run1");
      ExpectBitIdentical(oracle, exec.Run(inputs, ctx), what + " run2");
    }
  }
}

TEST(ArenaExecution, ContextReuseAcrossDistinctSamples) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = models::BuildReferenceGraph(
      e, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor exec(g, w);
  infer::ExecutionContext ctx = exec.CreateContext();
  for (std::uint64_t s = 0; s < 5; ++s) {
    const auto inputs = GraphInputs(g, 500 + s);
    ExpectBitIdentical(testutil::RunOracle(exec, inputs),
                       exec.Run(inputs, ctx), "sample " + std::to_string(s));
  }
}

TEST(ArenaExecution, ExecutorRunMatchesLegacyOracleWithEitherContext) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = models::BuildReferenceGraph(
      e, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor exec(g, w);
  const auto inputs = GraphInputs(g, 9);
  const auto oracle = testutil::RunOracle(exec, inputs);
  ExpectBitIdentical(oracle, exec.Run(inputs), "per-call context");
  infer::ExecutionContext ctx = exec.CreateContext();
  ExpectBitIdentical(oracle, exec.Run(inputs, ctx), "reused context");
}

// Harness level: the serial ReferenceBackend must reproduce the accuracy
// score of a hand-rolled allocate-per-node oracle loop bit-for-bit.
TEST(ArenaExecution, ReferenceBackendAccuracyMatchesLegacyOracle) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const std::unique_ptr<harness::TaskBundle> bundle =
      harness::TaskBundle::Create(e, models::SuiteVersion::kV1_0);
  const infer::Executor exec(bundle->mini_graph(), bundle->weights());

  loadgen::TestSettings acc;
  acc.mode = loadgen::TestMode::kAccuracyOnly;
  loadgen::DatasetQsl qsl(bundle->dataset());
  loadgen::RealClock clock;
  backends::ReferenceBackend sut("arena", exec, qsl);
  const loadgen::TestResult got = loadgen::RunTest(sut, qsl, acc, clock);

  // Allocate-per-node oracle over the same samples.
  std::vector<std::vector<infer::Tensor>> oracle;
  std::vector<std::size_t> indices(bundle->dataset().size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  loadgen::DatasetQsl oracle_qsl(bundle->dataset());
  oracle_qsl.LoadSamplesToRam(indices);
  oracle.reserve(indices.size());
  for (const std::size_t i : indices)
    oracle.push_back(testutil::RunOracle(exec, oracle_qsl.Loaded(i)));

  ASSERT_EQ(oracle.size(), got.accuracy_outputs.size());
  for (std::size_t s = 0; s < oracle.size(); ++s)
    ExpectBitIdentical(oracle[s], got.accuracy_outputs[s],
                       "sample " + std::to_string(s));
  EXPECT_EQ(bundle->dataset().ScoreOutputs(got.accuracy_outputs),
            bundle->dataset().ScoreOutputs(oracle));
}

TEST(MemoryPlan, FullScaleModelsBeatNaiveFootprint) {
  for (const auto version :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0}) {
    for (const models::BenchmarkEntry& e : models::SuiteFor(version)) {
      const graph::Graph g =
          models::BuildReferenceGraph(e, version, models::ModelScale::kFull);
      const infer::MemoryPlan plan = infer::MemoryPlan::Build(g);
      EXPECT_LT(plan.peak_arena_bytes(), plan.naive_bytes())
          << ToString(version) << "/" << e.id;
      CheckPlanInvariants(g, plan);
    }
  }
}

}  // namespace
}  // namespace mlpm
