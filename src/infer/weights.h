// Weight storage and deterministic synthetic initialization.
//
// The paper's reference models ship as frozen FP32 checkpoints (§5.1); this
// repo substitutes seeded, structured synthetic weights (see DESIGN.md §1).
// Weights are fan-in-scaled Gaussians, which gives well-conditioned
// activations through deep stacks — enough for the quantization experiments,
// whose ground truth is teacher-derived from this very FP32 model.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "infer/tensor.h"

namespace mlpm::infer {

class WeightStore {
 public:
  // Returns the weight tensor registered under `name`; throws if absent.
  [[nodiscard]] const Tensor& Get(const std::string& name) const;

  void Put(std::string name, Tensor t);

  [[nodiscard]] std::size_t size() const { return store_.size(); }

 private:
  std::unordered_map<std::string, Tensor> store_;
};

// Creates a WeightStore for every weight tensor in `g`, seeded by `seed`.
// The same (graph, seed) always produces identical weights — this is the
// repo's stand-in for the frozen reference checkpoint.
[[nodiscard]] WeightStore InitializeWeights(const graph::Graph& g,
                                            std::uint64_t seed);

}  // namespace mlpm::infer
