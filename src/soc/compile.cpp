#include "soc/compile.h"

#include <algorithm>
#include <atomic>

namespace mlpm::soc {

LayerTiming LayerCost(const graph::NodeCost& cost, DataType numerics,
                      const AcceleratorDesc& engine,
                      double weight_traffic_scale) {
  LayerTiming t;
  const double peak = engine.PeakFor(numerics);
  Expects(peak > 0.0, [&] {
    return engine.name + " does not support " + std::string(ToString(numerics));
  });
  double eff = engine.efficiency.For(cost.op_class);
  if (cost.dilated) eff *= engine.efficiency.dilated_scale;
  double compute_s = 0.0;
  if (cost.macs > 0) {
    Expects(eff > 0.0,
            [&] { return "op class disabled on engine " + engine.name; });
    compute_s = static_cast<double>(cost.macs) / (peak * 1e9 * eff);
  }
  const double elem_sz = static_cast<double>(ByteSize(numerics));
  const double bytes =
      elem_sz * (static_cast<double>(cost.input_elems + cost.output_elems) +
                 static_cast<double>(cost.weight_elems) *
                     weight_traffic_scale);
  const double memory_s = bytes / (engine.mem_bw_gbps * 1e9);
  t.roofline_s = std::max(compute_s, memory_s);
  t.dispatch_s = engine.per_layer_overhead_us * 1e-6;
  t.seconds = t.roofline_s + t.dispatch_s;
  t.joules = t.seconds * engine.active_power_w;
  return t;
}

CompiledModel Compile(const graph::Graph& graph, DataType numerics,
                      const ChipsetDesc& chipset,
                      const ExecutionPolicy& policy,
                      const RuntimeOverheads& overheads, bool batched) {
  Expects(!policy.engines.empty(), "policy must list at least one engine");
  Expects(policy.cpu_fallback_fraction >= 0.0 &&
              policy.cpu_fallback_fraction <= 1.0,
          "fallback fraction must be in [0,1]");
  Expects(policy.toolchain_efficiency > 0.0 &&
              policy.toolchain_efficiency <= 1.0,
          "toolchain efficiency must be in (0,1]");

  // Resolve engine indices.
  std::vector<std::size_t> engine_idx;
  for (const std::string& name : policy.engines) {
    const auto& engines = chipset.engines;
    const auto it =
        std::find_if(engines.begin(), engines.end(),
                     [&](const AcceleratorDesc& a) { return a.name == name; });
    Expects(it != engines.end(),
            [&] { return chipset.name + " has no engine named " + name; });
    engine_idx.push_back(
        static_cast<std::size_t>(std::distance(engines.begin(), it)));
  }
  // CPU fallback target (first CPU-class engine), if needed.
  std::size_t cpu_idx = engine_idx.front();
  if (policy.cpu_fallback_fraction > 0.0) {
    const auto it = std::find_if(
        chipset.engines.begin(), chipset.engines.end(),
        [](const AcceleratorDesc& a) {
          return a.cls == EngineClass::kCpuBig ||
                 a.cls == EngineClass::kCpuLittle;
        });
    Expects(it != chipset.engines.end(),
            [&] { return chipset.name + " needs a CPU engine for fallback"; });
    cpu_idx = static_cast<std::size_t>(
        std::distance(chipset.engines.begin(), it));
  }

  const graph::GraphCost gc = graph::AnalyzeGraph(graph);

  static std::atomic<std::uint64_t> last_plan_id{0};
  CompiledModel m;
  m.plan_id = last_plan_id.fetch_add(1, std::memory_order_relaxed) + 1;
  m.model_name = graph.name();
  m.chipset_name = chipset.name;
  m.numerics = numerics;
  m.overheads = overheads;
  m.interconnect_gbps = chipset.interconnect_gbps;
  m.node_count = graph.nodes().size();
  m.total_macs = static_cast<double>(gc.total_macs);

  // Assign each node to an engine.
  std::vector<std::size_t> assignment(graph.nodes().size());
  int block_counter = 0;
  std::size_t round_robin = 0;
  // Deterministic fallback selection: every k-th node falls back, where
  // k = 1/fraction (a buggy-op pattern repeats per graph, it is not random).
  const std::size_t fallback_stride =
      policy.cpu_fallback_fraction > 0.0
          ? static_cast<std::size_t>(1.0 / policy.cpu_fallback_fraction)
          : 0;
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    std::size_t e = engine_idx.front();
    if (policy.alternate_every > 0 && engine_idx.size() > 1) {
      e = engine_idx[round_robin % engine_idx.size()];
      if (++block_counter == policy.alternate_every) {
        block_counter = 0;
        ++round_robin;
      }
    }
    if (fallback_stride > 0 && (i % fallback_stride) == fallback_stride - 1)
      e = cpu_idx;
    if (policy.tail_nodes_on_secondary > 0 && engine_idx.size() > 1 &&
        i + static_cast<std::size_t>(policy.tail_nodes_on_secondary) >=
            graph.nodes().size())
      e = engine_idx[1];
    assignment[i] = e;
  }

  // Merge consecutive same-engine nodes into segments (subject to forced
  // HAL partitioning).
  int nodes_in_segment = 0;
  for (std::size_t i = 0; i < graph.nodes().size(); ++i) {
    const graph::Node& node = graph.nodes()[i];
    if (node.op == graph::OpType::kInput) continue;
    const std::size_t e = assignment[i];
    const bool force_split =
        policy.force_partition_every > 0 &&
        nodes_in_segment >= policy.force_partition_every;
    if (m.segments.empty() || m.segments.back().engine_index != e ||
        force_split) {
      m.segments.push_back(CompiledSegment{e, 0, 0.0, 0.0, 0.0, 0.0});
      nodes_in_segment = 0;
    }
    ++nodes_in_segment;
    ++m.segments.back().node_count;
    LayerTiming lt = LayerCost(gc.per_node[i], numerics, chipset.engines[e],
                               batched ? 0.1 : 1.0);
    // Elementwise fusion removes the separate kernel launch (the roofline
    // memory traffic remains — fused or not, the bytes move).
    if (overheads.fuse_elementwise &&
        (gc.per_node[i].op_class == graph::OpClass::kElementwise ||
         gc.per_node[i].op_class == graph::OpClass::kMemory))
      lt.dispatch_s = 0.0;
    m.segments.back().roofline_s +=
        lt.roofline_s / policy.toolchain_efficiency;
    m.segments.back().dispatch_s += lt.dispatch_s;
    // Energy follows the *actual* (toolchain-limited) execution time.
    m.segments.back().energy_j +=
        (lt.roofline_s / policy.toolchain_efficiency + lt.dispatch_s) *
        chipset.engines[e].active_power_w;
    // Track the running boundary: the last node's output size.
    m.segments.back().boundary_bytes =
        static_cast<double>(gc.per_node[i].output_elems) *
        static_cast<double>(ByteSize(numerics));
  }
  if (!m.segments.empty()) m.segments.back().boundary_bytes = 0.0;
  return m;
}

double CompiledModel::LatencySeconds(double throttle_factor,
                                     double dispatch_scale) const {
  Expects(throttle_factor > 0.0 && throttle_factor <= 1.0,
          "throttle factor must be in (0,1]");
  Expects(dispatch_scale >= 0.0, "dispatch scale must be non-negative");
  double t = overheads.per_inference_s;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    t += segments[i].roofline_s / throttle_factor +
         segments[i].dispatch_s * dispatch_scale;
    if (i + 1 < segments.size()) {
      t += overheads.per_partition_sync_s;
      // Boundary tensors cross the interconnect when the runtime copies
      // through a HAL (NNAPI) or when execution moves to another IP block.
      const bool engine_change =
          segments[i + 1].engine_index != segments[i].engine_index;
      if (overheads.copy_boundary_tensors || engine_change)
        t += segments[i].boundary_bytes / (interconnect_gbps * 1e9);
    }
  }
  return t;
}

double CompiledModel::EnergyJoules() const {
  double e = 0.0;
  for (const auto& s : segments) e += s.energy_j;
  return e;
}

double CompiledModel::AveragePowerWatts() const {
  const double t = LatencySeconds();
  return t > 0.0 ? EnergyJoules() / t : 0.0;
}

}  // namespace mlpm::soc
