// Tiled, fused pipeline execution (DESIGN.md §15).
//
// Two contracts are checked here.  Structural: bounds inference returns
// exactly the input box the kernels read; the planner's crops partition
// every segment output with no gap or overlap and never outgrow their
// slabs.  Behavioural: tiled execution is bit-identical to the whole-op
// allocate-per-node oracle (oracle.h) for every reference model, numerics
// mode and kernel table — and the tile-aware memory plan
// strictly shrinks the packed arena on every model with a fusable segment.
// Untiled nodes run the same band kernels as full-height bands; a batch-2
// case checks that form against the oracle too.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "graph/bounds.h"
#include "graph/box.h"
#include "graph/graph.h"
#include "infer/executor.h"
#include "infer/kernels/registry.h"
#include "infer/memory_plan.h"
#include "infer/tile_planner.h"
#include "infer/weights.h"
#include "models/zoo.h"
#include "oracle.h"
#include "quant/calibration.h"

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

// --- Bounds inference ------------------------------------------------------

TEST(BoundsInference, SameConvRowBandMatchesHandComputation) {
  graph::GraphBuilder b("conv");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 3}));
  const auto out = b.Conv2d(in, 4, 3, 1);  // k3 s1 SAME: pad_begin = 1
  b.MarkOutput(out);
  const graph::Graph g = std::move(b).Build();
  const graph::Node& n = g.nodes()[0];
  const graph::TensorShape& ish = g.tensor(in).shape;
  const graph::TensorShape& osh = g.tensor(out).shape;

  // Interior band [2, 5): input rows [2-1, 4-1+3) = [1, 6).
  graph::Box crop = graph::Box::FromShape(osh);
  crop.dims[1] = {2, 5};
  graph::Box box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{1, 6}));
  // W and C stay full-range for row-band crops.
  EXPECT_EQ(box.dims[2], (graph::Interval{0, 8}));
  EXPECT_EQ(box.dims[3], (graph::Interval{0, 3}));

  // Edge band [0, 2): the pad row is clamped away, input rows [0, 3).
  crop.dims[1] = {0, 2};
  box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{0, 3}));

  // The full crop maps to the full input box.
  EXPECT_EQ(graph::InferInputBounds(n, ish, osh, graph::Box::FromShape(osh)),
            graph::Box::FromShape(ish));
}

TEST(BoundsInference, StridedConvUsesStrideTimesBandPlusKernel) {
  graph::GraphBuilder b("strided");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 3}));
  const auto out = b.Conv2d(in, 4, 3, 2);  // k3 s2 SAME: out H = 4
  b.MarkOutput(out);
  const graph::Graph g = std::move(b).Build();
  const graph::Node& n = g.nodes()[0];
  const graph::TensorShape& ish = g.tensor(in).shape;
  const graph::TensorShape& osh = g.tensor(out).shape;
  ASSERT_EQ(osh.dim(1), 4);
  // SAME with in=8, out=4, k=3, s=2: pad_total = 1, pad_begin = 0.
  // Output rows [1, 3) read input rows [1*2-0, 2*2-0+3) = [2, 7).
  graph::Box crop = graph::Box::FromShape(osh);
  crop.dims[1] = {1, 3};
  const graph::Box box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{2, 7}));
}

TEST(BoundsInference, ElementwiseAndActivationCropsPassThrough) {
  graph::GraphBuilder b("ew");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 4}));
  const auto conv = b.Conv2d(in, 4, 3, 1);
  const auto act = b.Activate(conv, graph::Activation::kRelu);
  const auto sum = b.Add(act, in);
  b.MarkOutput(sum);
  const graph::Graph g = std::move(b).Build();
  const graph::TensorShape& shape = g.tensor(sum).shape;
  graph::Box crop = graph::Box::FromShape(shape);
  crop.dims[1] = {3, 6};
  for (std::size_t node : {std::size_t{1}, std::size_t{2}}) {  // act, add
    const graph::Node& n = g.nodes()[node];
    EXPECT_EQ(graph::InferInputBounds(n, shape, shape, crop), crop)
        << "node " << node;
  }
}

TEST(BoundsInference, PoolWindowHasNoPadding) {
  graph::GraphBuilder b("pool");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 4}));
  const auto pool = b.MaxPool(in, 2, 2);  // out H = 4, window starts at 2*oh
  b.MarkOutput(pool);
  const graph::Graph g = std::move(b).Build();
  const graph::Node& n = g.nodes()[0];
  graph::Box crop = graph::Box::FromShape(g.tensor(pool).shape);
  crop.dims[1] = {1, 2};
  const graph::Box box = graph::InferInputBounds(
      n, g.tensor(in).shape, g.tensor(pool).shape, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{2, 4}));
}

TEST(BoundsInference, ResizeBilinearSpansBothTapsOfTheBand) {
  graph::GraphBuilder b("resize");
  const auto in = b.Input("in", graph::TensorShape({1, 4, 4, 2}));
  const auto up = b.ResizeBilinear(in, 8, 8);  // 2x upsample, scale = 0.5
  b.MarkOutput(up);
  const graph::Graph g = std::move(b).Build();
  const graph::Node& n = g.nodes()[0];
  const graph::TensorShape& ish = g.tensor(in).shape;
  const graph::TensorShape& osh = g.tensor(up).shape;

  // Half-pixel centers: src(o) = (o+0.5)*0.5 - 0.5, clamped at 0.
  // Band [2, 4): y0(2) = floor(0.75) = 0, y0(3) = floor(1.25) = 1, so the
  // band reads taps y0..y1 of rows 0..1 -> input rows [0, 3).
  graph::Box crop = graph::Box::FromShape(osh);
  crop.dims[1] = {2, 4};
  graph::Box box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{0, 3}));
  EXPECT_EQ(box.dims[2], (graph::Interval{0, 4}));  // full-width crop

  // The first band clamps the half-pixel center at 0 but still reads both
  // taps y0 = 0 and y1 = 1 (y1's weight is zero; the kernel reads it
  // regardless, so the box must cover it).
  crop.dims[1] = {0, 1};
  box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{0, 2}));
  EXPECT_EQ(graph::InferInputBounds(n, ish, osh, graph::Box::FromShape(osh)),
            graph::Box::FromShape(ish));
}

// --- Tile planner structure ------------------------------------------------

graph::Graph MiniModel(const models::BenchmarkEntry& e) {
  return models::BuildReferenceGraph(e, models::SuiteVersion::kV1_0,
                                     models::ModelScale::kMini);
}

TEST(TilePlanner, DisabledRequestYieldsEmptyPlan) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = MiniModel(e);
  EXPECT_TRUE(infer::BuildTilePlan(g, {}).empty());
  infer::TileOptions on;
  on.enabled = true;
  EXPECT_FALSE(infer::BuildTilePlan(g, on).empty());
}

TEST(TilePlanner, HasFusableSegmentAgreesWithBuildTilePlan) {
  infer::TileOptions on;
  on.enabled = true;
  std::size_t fusable = 0;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    const bool has = infer::HasFusableSegment(g);
    EXPECT_EQ(has, !infer::BuildTilePlan(g, on).empty()) << e.id;
    fusable += has ? 1 : 0;
  }
  // The three vision models fuse; MobileBERT (no NHWC conv chain) does not.
  EXPECT_EQ(fusable, 3u);
}

// The partition property: for every segment, the planner's crops cover the
// output row range [0, out_rows) exactly once, and back-propagating each
// crop through the chain never needs more rows than the slab provisioned.
void CheckPartition(const graph::Graph& g, const infer::TilePlan& plan,
                    const std::string& what) {
  for (std::size_t si = 0; si < plan.segments.size(); ++si) {
    const infer::TileSegment& s = plan.segments[si];
    const std::string where = what + " segment " + std::to_string(si);
    ASSERT_GE(s.tile_rows, 1) << where;
    ASSERT_GT(s.out_rows, 0) << where;
    const std::size_t n_nodes =
        static_cast<std::size_t>(s.last_node - s.first_node + 1);
    ASSERT_EQ(s.interior.size(), n_nodes - 1) << where;
    ASSERT_EQ(s.slab_rows.size(), s.interior.size()) << where;

    std::int64_t covered = 0;
    for (std::int64_t t = 0; t < s.tile_count(); ++t) {
      const std::int64_t r0 = t * s.tile_rows;
      const std::int64_t r1 =
          r0 + s.tile_rows < s.out_rows ? r0 + s.tile_rows : s.out_rows;
      // No gap, no overlap: each tile starts where the last one ended.
      EXPECT_EQ(r0, covered) << where << " tile " << t;
      covered = r1;

      // Back-propagate the band tail -> head exactly as the executor does
      // and check every interior band fits the slab the planner sized.
      graph::Interval rows{r0, r1};
      for (std::size_t j = n_nodes; j-- > 1;) {
        const graph::Node& n =
            g.nodes()[static_cast<std::size_t>(s.first_node) + j];
        const graph::TensorShape& ish = g.tensor(n.inputs[0]).shape;
        const graph::TensorShape& osh = g.tensor(n.output).shape;
        graph::Box crop = graph::Box::FromShape(osh);
        crop.dims[1] = rows;
        rows = graph::InferInputBounds(n, ish, osh, crop).dims[1];
        EXPECT_LE(rows.length(), s.slab_rows[j - 1])
            << where << " tile " << t << " node " << j;
        EXPECT_GE(rows.begin, 0) << where;
        EXPECT_LE(rows.end, ish.dim(1)) << where;
      }
    }
    EXPECT_EQ(covered, s.out_rows) << where << " does not cover the output";
  }
}

TEST(TilePlanner, CropsExactlyPartitionEveryOutputBox) {
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    // Auto plus a sweep of forced bands, including one larger than any
    // segment's output (clamped) and the degenerate single-row band.
    for (const std::int64_t rows : {std::int64_t{-1}, std::int64_t{1},
                                    std::int64_t{2}, std::int64_t{3},
                                    std::int64_t{5}, std::int64_t{512}}) {
      infer::TileOptions opt;
      opt.enabled = true;
      opt.rows = rows;
      const infer::TilePlan plan = infer::BuildTilePlan(g, opt);
      CheckPartition(g, plan,
                     e.id + " rows=" + std::to_string(rows));
    }
  }
}

TEST(TilePlanner, SegmentNodeMapAndInteriorFlagsAreConsistent) {
  infer::TileOptions on;
  on.enabled = true;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    const infer::TilePlan plan = infer::BuildTilePlan(g, on);
    if (plan.empty()) continue;
    ASSERT_EQ(plan.segment_of_node.size(), g.nodes().size()) << e.id;
    ASSERT_EQ(plan.interior.size(), g.tensors().size()) << e.id;
    std::size_t interior_count = 0;
    for (std::size_t si = 0; si < plan.segments.size(); ++si) {
      const infer::TileSegment& s = plan.segments[si];
      for (std::int32_t m = s.first_node; m <= s.last_node; ++m)
        EXPECT_EQ(plan.segment_of_node[static_cast<std::size_t>(m)],
                  static_cast<std::int32_t>(si))
            << e.id;
      for (const graph::TensorId id : s.interior) {
        EXPECT_TRUE(plan.interior[static_cast<std::size_t>(id)]) << e.id;
        ++interior_count;
      }
      // The segment's final output is not interior: it lands in the arena.
      const graph::Node& tail =
          g.nodes()[static_cast<std::size_t>(s.last_node)];
      EXPECT_FALSE(plan.interior[static_cast<std::size_t>(tail.output)])
          << e.id;
    }
    std::size_t flagged = 0;
    for (const bool f : plan.interior) flagged += f ? 1 : 0;
    EXPECT_EQ(flagged, interior_count) << e.id;
  }
}

// --- Tile-aware memory plan ------------------------------------------------

TEST(TiledMemoryPlan, ShrinksPeakArenaOnEverySegmentedModel) {
  infer::TileOptions on;
  on.enabled = true;
  std::size_t segmented = 0;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    const infer::MemoryPlan untiled = infer::MemoryPlan::Build(g);
    const infer::TilePlan tiles = infer::BuildTilePlan(g, on);
    if (tiles.empty()) continue;
    ++segmented;
    const infer::MemoryPlan tiled = infer::MemoryPlan::Build(g, &tiles);
    // Interiors leave the arena, so the packed arena strictly shrinks.
    EXPECT_LT(tiled.peak_arena_bytes(), untiled.peak_arena_bytes()) << e.id;
    EXPECT_EQ(tiled.tile_slab_bytes(), tiles.slab_bytes()) << e.id;
    EXPECT_EQ(tiled.planned_activation_bytes(),
              tiled.peak_arena_bytes() + tiled.tile_slab_bytes())
        << e.id;
    EXPECT_EQ(untiled.tile_slab_bytes(), 0u) << e.id;
  }
  EXPECT_EQ(segmented, 3u);
}

TEST(TiledMemoryPlan, IntervalBytesCoverArenaBuffersAndSlabs) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = MiniModel(e);
  infer::TileOptions on;
  on.enabled = true;
  const infer::TilePlan tiles = infer::BuildTilePlan(g, on);
  ASSERT_FALSE(tiles.empty());
  const infer::MemoryPlan plan = infer::MemoryPlan::Build(g, &tiles);

  std::size_t arena_intervals = 0;
  std::size_t slab_intervals = 0;
  std::int64_t last_def = -2;
  for (const infer::IntervalBytes& iv : plan.interval_bytes()) {
    EXPECT_GE(iv.def, last_def) << "intervals must be (def, root)-sorted";
    last_def = iv.def;
    EXPECT_GT(iv.bytes, 0u);
    if (iv.kind == infer::PlacementKind::kArena) ++arena_intervals;
    else if (iv.kind == infer::PlacementKind::kTileSlab) ++slab_intervals;
    else FAIL() << "unexpected interval kind";
  }
  EXPECT_EQ(arena_intervals, plan.buffers().size());
  std::size_t interiors = 0;
  for (const infer::TileSegment& s : tiles.segments)
    interiors += s.interior.size();
  EXPECT_EQ(slab_intervals, interiors);
}

// --- Tiled execution vs the whole-op oracle --------------------------------

// The equivalence matrix the acceptance criteria name: every v1.0 reference
// model x {fp32, fp16, int8} x {scalar, auto ISA},
// tiled (auto band and a deliberately awkward 3-row band) vs the
// allocate-per-node oracle over the *same* executor, which ignores tiling.
// INT8 must be bitwise; fp32/fp16 are too, because tiled kernels perform
// identical per-element operations in identical order.
TEST(TiledExecution, BitIdenticalToWholeOpOracleEverywhere) {
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    const infer::WeightStore w = infer::InitializeWeights(g, 7);
    const std::vector<infer::Tensor> inputs = GraphInputs(g, 42);
    const std::vector<quant::CalibrationSample> samples{GraphInputs(g, 1),
                                                        GraphInputs(g, 2)};
    const infer::QuantParams qp = quant::CalibratePtq(g, w, samples);

    for (const infer::kernels::KernelIsa isa :
         {infer::kernels::KernelIsa::kScalar,
          infer::kernels::KernelIsa::kAuto}) {
      for (const infer::NumericsMode mode :
           {infer::NumericsMode::kFp32, infer::NumericsMode::kFp16,
            infer::NumericsMode::kInt8}) {
        for (const std::int64_t rows : {std::int64_t{-1}, std::int64_t{3}}) {
          infer::TileOptions opt;
          opt.enabled = true;
          opt.rows = rows;
          const infer::Executor exec(
              g, w, mode,
              mode == infer::NumericsMode::kInt8 ? &qp : nullptr, isa, opt);
          const std::string what = e.id + "/" +
                                   std::string(ToString(mode)) + "/isa" +
                                   std::to_string(static_cast<int>(isa)) +
                                   "/rows" + std::to_string(rows);
          if (infer::HasFusableSegment(g)) {
            ASSERT_TRUE(exec.tiled()) << what;
          }

          const auto oracle = testutil::RunOracle(exec, inputs);
          infer::ExecutionContext ctx = exec.CreateContext();
          // Twice through one context: stale slab or arena state from the
          // first tiled run would surface in the second.
          ExpectBitIdentical(oracle, exec.Run(inputs, ctx), what + " run1");
          ExpectBitIdentical(oracle, exec.Run(inputs, ctx), what + " run2");
        }
      }
    }
  }
}

// Tiled segments never materialize their interiors, so an observer could
// not see every node output: asking for one on a tiled executor is an
// error, and the context stays usable afterwards.
TEST(TiledExecution, ObserverOnTiledExecutorIsCheckError) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = MiniModel(e);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  infer::TileOptions opt;
  opt.enabled = true;
  const infer::Executor exec(g, w, infer::NumericsMode::kFp32, nullptr,
                             infer::kernels::KernelIsa::kAuto, opt);
  ASSERT_TRUE(exec.tiled());
  const auto inputs = GraphInputs(g, 11);
  infer::ExecutionContext ctx = exec.CreateContext();
  const auto observer = [](graph::TensorId, const infer::Tensor&) {};
  EXPECT_THROW((void)exec.Run(inputs, ctx, observer), CheckError);
  ExpectBitIdentical(testutil::RunOracle(exec, inputs), exec.Run(inputs, ctx),
                     "after the refused observer run");
}

// --- Whole-op nodes as full-height bands ------------------------------------

// Untiled nodes run every band kernel as one full-height band per batch
// image.  A batch-2 chain of conv, depthwise, both pools, resize and the
// elementwise ops must match the oracle on the scalar and auto tables, and
// each image must equal the batch-1 graph run on that image alone, which
// pins the per-image band offsets.
TEST(BandExecution, BatchTwoMatchesOracleAndPerImageRuns) {
  const auto build = [](std::int64_t batch) {
    graph::GraphBuilder b("band_batch");
    auto x = b.Input("in", graph::TensorShape({batch, 9, 7, 5}));
    x = b.Conv2d(x, 6, 3, 1, graph::Activation::kRelu, graph::Padding::kSame,
                 1, "conv");
    x = b.DepthwiseConv2d(x, 3, 2, graph::Activation::kNone,
                          graph::Padding::kSame, 1, "dw");
    x = b.MaxPool(x, 2, 2, "max");
    x = b.ResizeBilinear(x, 7, 5, "resize");
    x = b.AvgPool(x, 3, 1, "avg");
    x = b.Add(x, b.Activate(x, graph::Activation::kRelu6, "act"), "add");
    b.MarkOutput(x);
    return std::move(b).Build();
  };
  const graph::Graph g2 = build(2);
  const graph::Graph g1 = build(1);
  const infer::WeightStore w = infer::InitializeWeights(g2, 5);
  const std::vector<infer::Tensor> inputs = GraphInputs(g2, 17);
  for (const infer::kernels::KernelIsa isa :
       {infer::kernels::KernelIsa::kScalar,
        infer::kernels::KernelIsa::kAuto}) {
    const std::string what =
        "isa " + std::string(infer::kernels::ToString(isa));
    const infer::Executor exec2(g2, w, infer::NumericsMode::kFp32, nullptr,
                                isa);
    const infer::Executor exec1(g1, w, infer::NumericsMode::kFp32, nullptr,
                                isa);
    const auto oracle = testutil::RunOracle(exec2, inputs);
    infer::ExecutionContext ctx = exec2.CreateContext();
    ExpectBitIdentical(oracle, exec2.Run(inputs, ctx), what);

    const std::size_t in_elems = inputs[0].size() / 2;
    const std::size_t out_elems = oracle[0].size() / 2;
    for (std::size_t image = 0; image < 2; ++image) {
      std::vector<infer::Tensor> single;
      single.emplace_back(g1.tensor(g1.input_ids()[0]).shape);
      std::copy_n(inputs[0].data() + image * in_elems, in_elems,
                  single[0].data());
      const auto got = exec1.Run(single);
      ASSERT_EQ(got[0].size(), out_elems) << what;
      for (std::size_t i = 0; i < out_elems; ++i)
        ASSERT_EQ(oracle[0].at(image * out_elems + i), got[0].at(i))
            << what << " image " << image << " element " << i;
    }
  }
}

}  // namespace
}  // namespace mlpm
