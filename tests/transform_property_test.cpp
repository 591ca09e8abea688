// Property tests for the verified transform pipeline (DESIGN.md §14):
// seeded random valid graphs through the full pipeline, in every numerics
// mode, must (1) introduce zero new analysis diagnostics and (2) execute
// equivalently to the untransformed graph — bit-exact under INT8's
// deterministic fake quantization, within the documented 1e-6 max-abs
// tolerance under FP32/FP16 — across thread counts {1, 4} and kernel ISAs
// {scalar, auto}.
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostics.h"
#include "analysis/passes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "infer/executor.h"
#include "infer/weights.h"
#include "quant/calibration.h"
#include "transform/pass_manager.h"

namespace mlpm {
namespace {

using infer::NumericsMode;
using transform::MakeDefaultPipeline;
using transform::TransformOptions;
using transform::TransformResult;

// Random valid graphs exercising every pass's pattern: pre-fused and
// standalone activations (split/fuse), relu chains (elementwise-chain),
// no-op activations / same-shape reshapes / single-input concats
// (identity-cancel), constants feeding ops (constant-fold + dead-node-elim)
// and plain elementwise glue.  Every op keeps {1, 8, 8, 4}, so any earlier
// tensor is a legal operand; GraphBuilder's eager shape inference guarantees
// validity by construction.
graph::Graph RandomGraph(std::uint64_t seed) {
  Rng rng(seed);
  graph::GraphBuilder b("tp_random_" + std::to_string(seed));
  const graph::TensorShape shape({1, 8, 8, 4});
  constexpr graph::Activation kActs[] = {graph::Activation::kNone,
                                         graph::Activation::kRelu,
                                         graph::Activation::kRelu6};
  std::vector<graph::TensorId> pool{b.Input("in", shape)};
  const int steps = 5 + static_cast<int>(rng.NextBelow(10));
  for (int s = 0; s < steps; ++s) {
    const graph::TensorId a =
        pool[static_cast<std::size_t>(rng.NextBelow(pool.size()))];
    const graph::TensorId c =
        pool[static_cast<std::size_t>(rng.NextBelow(pool.size()))];
    switch (rng.NextBelow(8)) {
      case 0:
        pool.push_back(b.Conv2d(a, 4, 3, 1, kActs[rng.NextBelow(3)]));
        break;
      case 1:
        pool.push_back(b.DepthwiseConv2d(a, 3, 1, kActs[rng.NextBelow(3)]));
        break;
      case 2: pool.push_back(b.Add(a, c)); break;
      case 3: pool.push_back(b.Activate(a, kActs[rng.NextBelow(3)])); break;
      case 4: pool.push_back(b.Reshape(a, {1, 8, 8, 4})); break;
      case 5: pool.push_back(b.Concat({a}, 3)); break;
      case 6: {
        // A constant subgraph: constant (+ optional clamp) into an add —
        // foldable at FP32, refused elsewhere.
        const graph::TensorId k = b.Constant(shape);
        const graph::TensorId kk =
            rng.NextBelow(2) == 0
                ? b.Activate(k, graph::Activation::kRelu)
                : k;
        pool.push_back(b.Add(a, kk));
        break;
      }
      case 7: pool.push_back(b.Mul(a, c)); break;
    }
  }
  b.MarkOutput(pool.back());
  if (rng.NextBelow(2) == 0 && pool.size() > 2)
    b.MarkOutput(pool[pool.size() / 2]);
  return std::move(b).Build();
}

std::vector<infer::Tensor> GraphInputs(const graph::Graph& g,
                                       std::uint64_t seed) {
  std::vector<infer::Tensor> inputs;
  Rng rng(seed);
  for (const graph::TensorId id : g.input_ids()) {
    infer::Tensor t(g.tensor(id).shape);
    for (auto& v : t.values())
      v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

// Diagnostics per code from the full analysis suite.
std::map<std::string, int> DiagnosticCounts(const graph::Graph& g) {
  analysis::DiagnosticEngine de;
  analysis::RunModelPasses(g, de);
  std::map<std::string, int> counts;
  for (const analysis::Diagnostic& d : de.diagnostics()) ++counts[d.code];
  return counts;
}

// max |a - b| over all outputs; ASSERTs matching structure.
float MaxAbsDiff(const std::vector<infer::Tensor>& a,
                 const std::vector<infer::Tensor>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t o = 0; o < a.size() && o < b.size(); ++o) {
    EXPECT_EQ(a[o].size(), b[o].size());
    for (std::size_t i = 0; i < a[o].size() && i < b[o].size(); ++i) {
      const float d = std::fabs(a[o].at(i) - b[o].at(i));
      if (std::isnan(d)) return d;
      worst = std::max(worst, d);
    }
  }
  return worst;
}

constexpr NumericsMode kModes[] = {NumericsMode::kFp32, NumericsMode::kFp16,
                                   NumericsMode::kInt8};
constexpr infer::kernels::KernelIsa kIsas[] = {
    infer::kernels::KernelIsa::kScalar, infer::kernels::KernelIsa::kAuto};

TEST(TransformProperty, PipelineNeverIntroducesDiagnostics) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const graph::Graph g = RandomGraph(seed);
    const infer::WeightStore w = infer::InitializeWeights(g, seed);
    const std::map<std::string, int> before = DiagnosticCounts(g);
    for (const NumericsMode mode : kModes) {
      const TransformResult res =
          MakeDefaultPipeline(TransformOptions{.mode = mode}).Run(g, w);
      EXPECT_FALSE(res.AnyRolledBack())
          << g.name() << " " << infer::ToString(mode) << "\n"
          << res.diagnostics.ToText();
      EXPECT_FALSE(res.diagnostics.HasErrors())
          << g.name() << "\n" << res.diagnostics.ToText();
      // Full-suite re-lint of the committed graph: no code's count may
      // exceed the untransformed baseline (rewrites may *remove* findings,
      // e.g. dead-node elimination, never add them).
      for (const auto& [code, count] : DiagnosticCounts(res.graph)) {
        const auto it = before.find(code);
        const int baseline = it == before.end() ? 0 : it->second;
        EXPECT_LE(count, baseline)
            << g.name() << " " << infer::ToString(mode) << " new " << code;
      }
    }
  }
}

TEST(TransformProperty, TransformedGraphsExecuteEquivalently) {
  ThreadPool pool(4);
  const ThreadPool* pools[] = {nullptr, &pool};  // thread counts {1, 4}

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const graph::Graph g = RandomGraph(seed);
    const infer::WeightStore w = infer::InitializeWeights(g, seed);
    const std::vector<infer::Tensor> inputs = GraphInputs(g, seed + 500);

    // Shared calibration set for the INT8 executors: ranges are recorded
    // per tensor *name*, and every surviving tensor keeps its name, so the
    // transformed graph calibrates to identical scales.
    std::vector<quant::CalibrationSample> samples;
    for (std::uint64_t cs = 0; cs < 4; ++cs)
      samples.push_back(GraphInputs(g, seed * 97 + cs));

    for (const NumericsMode mode : kModes) {
      const TransformResult res =
          MakeDefaultPipeline(TransformOptions{.mode = mode}).Run(g, w);
      ASSERT_FALSE(res.AnyRolledBack()) << res.diagnostics.ToText();

      infer::QuantParams qp_before;
      infer::QuantParams qp_after;
      if (mode == NumericsMode::kInt8) {
        qp_before = quant::CalibratePtq(g, w, samples);
        qp_after = quant::CalibratePtq(res.graph, res.weights, samples);
      }
      const infer::QuantParams* qb =
          mode == NumericsMode::kInt8 ? &qp_before : nullptr;
      const infer::QuantParams* qa =
          mode == NumericsMode::kInt8 ? &qp_after : nullptr;

      for (const infer::kernels::KernelIsa isa : kIsas) {
        const infer::Executor before(g, w, mode, qb, isa);
        const infer::Executor after(res.graph, res.weights, mode, qa, isa);
        infer::ExecutionContext ctx_b(before);
        infer::ExecutionContext ctx_a(after);
        for (const ThreadPool* p : pools) {
          const auto out_b = before.Run(inputs, ctx_b, {}, p);
          const auto out_a = after.Run(inputs, ctx_a, {}, p);
          const float diff = MaxAbsDiff(out_b, out_a);
          const std::string what =
              g.name() + " " + std::string(infer::ToString(mode)) + " isa=" +
              std::string(infer::kernels::ToString(isa)) +
              (p != nullptr ? " threads=4" : " threads=1");
          if (mode == NumericsMode::kInt8) {
            // u8-stable simulated quantization: bitwise agreement required.
            EXPECT_EQ(diff, 0.0f) << what;
          } else {
            // Documented FP32/FP16 tolerance (task_bundle.h): the committed
            // rewrites commute exactly with the roundings involved.
            EXPECT_LE(diff, 1e-6f) << what;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mlpm
