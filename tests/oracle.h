// Reference paths the suites compare production code against.
//
// RunOracle is the allocate-per-node reference loop that the bit-identity
// suites compare the executor against.  Every node gets a fresh output
// tensor (no arena, no aliasing, no tile segments — the executor's tile
// plan is ignored) and runs through the engine's own per-node step, so a
// difference from Executor::Run isolates the arena plan, in-place aliasing
// or tiling.
//
// RunSingleStreamPerformance is one task's single-stream performance test
// on a fresh simulator and virtual clock, with none of the harness's
// retries, fault handling or admission layers: the path the harness and
// fleet runs must reproduce query for query.
#pragma once

#include <span>
#include <vector>

#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "common/check.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "infer/executor.h"
#include "infer/node_runner.h"
#include "soc/simulator.h"

namespace mlpm::testutil {

inline std::vector<infer::Tensor> RunOracle(
    const infer::Executor& exec, std::span<const infer::Tensor> inputs,
    const infer::NodeObserver& observer = {}) {
  const graph::Graph& g = exec.graph();
  Expects(inputs.size() == g.input_ids().size(),
          "wrong number of graph inputs");
  std::vector<infer::Tensor> slots(g.tensors().size());
  std::vector<const infer::Tensor*> ready(g.tensors().size(), nullptr);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const graph::TensorId id = g.input_ids()[i];
    Expects(inputs[i].shape() == g.tensor(id).shape, "input shape mismatch");
    ready[static_cast<std::size_t>(id)] = &inputs[i];
  }
  const infer::internal::TensorFetch fetch =
      [&](graph::TensorId id) -> const infer::Tensor& {
    const infer::Tensor* t = ready[static_cast<std::size_t>(id)];
    Expects(t != nullptr,
            [&] { return "use of unready tensor " + g.tensor(id).name; });
    return *t;
  };
  for (const graph::Node& n : g.nodes()) {
    if (n.op == graph::OpType::kInput) continue;
    infer::Tensor& out = slots[static_cast<std::size_t>(n.output)];
    out = infer::Tensor(g.tensor(n.output).shape);
    infer::internal::NodeRunner::Run(exec, n, fetch, out, observer);
    ready[static_cast<std::size_t>(n.output)] = &out;
  }
  std::vector<infer::Tensor> outputs;
  outputs.reserve(g.output_ids().size());
  for (const graph::TensorId id : g.output_ids()) outputs.push_back(fetch(id));
  return outputs;
}

inline loadgen::TestResult RunSingleStreamPerformance(
    const soc::ChipsetDesc& chipset, const backends::SubmissionConfig& config,
    const graph::Graph& full_graph, const datasets::TaskDataset& dataset,
    const loadgen::TestSettings& settings = {}) {
  loadgen::TestSettings s = settings;
  s.scenario = loadgen::TestScenario::kSingleStream;
  s.mode = loadgen::TestMode::kPerformanceOnly;

  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      chipset.name + "/" + config.framework.name,
      soc::SocSimulator(chipset),
      backends::CompileSubmission(chipset, config, full_graph),
      backends::CompileOfflineReplicas(chipset, config, full_graph), clock);
  loadgen::DatasetQsl qsl(dataset);
  return loadgen::RunTest(sut, qsl, s, clock);
}

}  // namespace mlpm::testutil
