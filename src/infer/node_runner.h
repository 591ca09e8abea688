// The executor's per-node step, shared with the allocate-per-node test
// oracle (tests/oracle.h).  Internal to the infer layer: production code
// runs graphs through Executor::Run only.
#pragma once

#include <functional>

#include "graph/graph.h"
#include "infer/executor.h"
#include "infer/tensor.h"

namespace mlpm::infer {
struct RowBand;
struct MutableRowBand;
}  // namespace mlpm::infer

namespace mlpm::infer::internal {

// Resolves an activation TensorId to its backing tensor.
using TensorFetch = std::function<const Tensor&(graph::TensorId)>;

struct NodeRunner {
  // Runs node `n` of `exec`'s graph over whole tensors into `out` (which
  // may alias the node's first input for in-place ops), hands the raw
  // output to `observer` if set, then applies the executor's output
  // numerics.  Spatial ops run as one full-height row band per batch
  // image.
  static void Run(const Executor& exec, const graph::Node& n,
                  const TensorFetch& fetch, Tensor& out,
                  const NodeObserver& observer);

  // Runs fused tile segment `seg` of `exec`'s tile plan into `seg_out`, the
  // segment tail's full output tensor.
  static void RunSegment(const Executor& exec, std::size_t seg,
                         const TensorFetch& fetch, Tensor& seg_out);

 private:
  // Ticks the executor's dispatch counter for `op`'s microkernel family.
  static void CountDispatch(const Executor& exec, graph::OpType op);

  // Computes output band `out` of band-kernel node `n` from `in` (its
  // first input) and, for add/mul, `y` (its second input).
  static void RunBand(const Executor& exec, const graph::Node& n,
                      const RowBand& in, const RowBand& y,
                      const MutableRowBand& out);
};

}  // namespace mlpm::infer::internal
