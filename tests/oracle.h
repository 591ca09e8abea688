// The allocate-per-node reference loop that the bit-identity suites compare
// the executor against.  Every node gets a fresh output tensor (no arena,
// no aliasing, no tile segments — the executor's tile plan is ignored) and
// runs through the engine's own per-node step, so a difference from
// Executor::Run isolates the arena plan, in-place aliasing or tiling.
#pragma once

#include <span>
#include <vector>

#include "common/check.h"
#include "infer/executor.h"
#include "infer/node_runner.h"

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
    Expects(t != nullptr, "use of unready tensor " + g.tensor(id).name);
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

}  // namespace mlpm::testutil
