// Model "compilation" for the simulator: maps a graph onto a chipset's
// engines under an execution policy and a runtime's overhead profile,
// producing a segmented execution plan with per-segment base latency,
// energy, and inter-segment transfer volumes.
//
// This models the two things a software stack decides (paper §2.2, §7.4):
// where each op runs, and how much it costs to cross runtime / IP-block
// boundaries.  Vendor SDKs produce few segments with cheap boundaries;
// NNAPI's hardware-abstraction layer introduces extra partitions and
// synchronization; buggy delegates force op fallbacks onto the CPU.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/cost.h"
#include "graph/graph.h"
#include "soc/chipset.h"

namespace mlpm::soc {

// How a model is laid onto engines.
struct ExecutionPolicy {
  // Engine names (must exist on the chipset); the first is the primary.
  std::vector<std::string> engines;
  // 0: everything on the primary engine.  k > 0: alternate between the
  // listed engines every k nodes — models schedulers that bounce a graph
  // between IP blocks (the Exynos 990 segmentation pathology, App. C).
  int alternate_every = 0;
  // Fraction of nodes the runtime cannot place on the accelerator and
  // falls back to the CPU (NNAPI op-coverage holes; 0 for vendor SDKs).
  double cpu_fallback_fraction = 0.0;
  // k > 0: force a partition boundary every k nodes even within one engine
  // — models HAL-level partitioning (NNAPI), which costs a sync and a
  // buffer copy per boundary.  0 for vendor SDKs (direct execution).
  int force_partition_every = 0;
  // n > 0: the last n nodes run on engines[1] (e.g. Exynos "NPU+CPU":
  // pooling / FC / detection-head tails execute on the CPU).
  int tail_nodes_on_secondary = 0;
  // Software/toolchain maturity for this network family on this stack, in
  // (0,1]: the fraction of the hardware roofline the vendor compiler
  // actually sustains.  The paper attributes generation gains largely to
  // software ("the software uplift was 6x", App. C); this is that variable,
  // reported transparently per submission.
  double toolchain_efficiency = 1.0;
};

// Overheads contributed by the runtime / framework layer.
struct RuntimeOverheads {
  double per_inference_s = 0.0;       // dispatch cost per inference
  double per_partition_sync_s = 0.0;  // HAL sync per segment boundary
  bool copy_boundary_tensors = true;  // boundary tensors cross interconnect
  // Vendor compilers fuse elementwise ops (residual adds, activations,
  // norms) into the preceding compute kernel, eliminating their dispatch;
  // generic HAL paths submit them as separate kernels.
  bool fuse_elementwise = false;
};

struct CompiledSegment {
  std::size_t engine_index = 0;  // into ChipsetDesc::engines
  std::size_t node_count = 0;    // graph nodes folded into this segment
  double roofline_s = 0.0;       // sum of per-layer max(compute, memory)
  double dispatch_s = 0.0;       // sum of per-layer dispatch overheads
  double energy_j = 0.0;
  // Bytes of the segment's final activation that must cross to the next
  // segment's engine (0 for the last segment).
  double boundary_bytes = 0.0;
};

struct CompiledModel {
  std::string model_name;
  std::string chipset_name;
  DataType numerics = DataType::kInt8;
  std::vector<CompiledSegment> segments;
  RuntimeOverheads overheads;
  double interconnect_gbps = 8.0;
  std::size_t node_count = 0;
  double total_macs = 0.0;
  // Names this plan's contents: distinct for every Compile call, shared by
  // copies, 0 for a plan not made by Compile.  The simulator derives a
  // plan's constants once per id (SocSimulator::RunInference), so a plan
  // must not be edited after Compile.
  std::uint64_t plan_id = 0;

  // Single-inference latency at a given thermal throttle factor.
  // `dispatch_scale` discounts per-layer dispatch overhead (batched offline
  // execution amortizes kernel launches; 1.0 for single-stream).
  [[nodiscard]] double LatencySeconds(double throttle_factor = 1.0,
                                      double dispatch_scale = 1.0) const;
  // Energy for one inference (throttle-independent in this model).
  [[nodiscard]] double EnergyJoules() const;
  // Average power drawn while this model executes, watts.
  [[nodiscard]] double AveragePowerWatts() const;
};

// Per-layer roofline cost on one engine (exposed for tests / benches).
struct LayerTiming {
  double seconds = 0.0;   // roofline + dispatch
  double roofline_s = 0.0;
  double dispatch_s = 0.0;
  double joules = 0.0;
};
// `weight_traffic_scale` < 1 amortizes weight reads across a batch
// (offline mode re-uses staged weights across samples).
[[nodiscard]] LayerTiming LayerCost(const graph::NodeCost& cost,
                                    DataType numerics,
                                    const AcceleratorDesc& engine,
                                    double weight_traffic_scale = 1.0);

// Compiles `graph` for `chipset` under `policy` and `overheads`.
// `batched` produces an offline-mode plan (weight traffic amortized across
// the batch).  Throws CheckError if a policy engine is missing or does not
// support the numerics.
[[nodiscard]] CompiledModel Compile(const graph::Graph& graph,
                                    DataType numerics,
                                    const ChipsetDesc& chipset,
                                    const ExecutionPolicy& policy,
                                    const RuntimeOverheads& overheads,
                                    bool batched = false);

}  // namespace mlpm::soc
