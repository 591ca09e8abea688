// Static passes over the model IR and the run configuration (DESIGN.md §9).
//
// Each pass re-checks a family of rules from first principles and reports
// coded diagnostics instead of throwing: the point of the layer is to prove
// a model / run configuration well-formed *before* anything executes, and
// to explain every way in which it is not.  Passes never mutate the graph
// and tolerate arbitrarily corrupt input (they are the gate that corrupt
// input must pass through).
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/types.h"
#include "graph/graph.h"
#include "infer/quant_params.h"
#include "soc/chipset.h"
#include "soc/compile.h"

namespace mlpm::analysis {

// --- Model IR passes -------------------------------------------------------

// Graph structure lints (GRAPH001-GRAPH005): id ranges and tensor kinds,
// aliasing writes, dataflow cycles, dead tensors, unreachable nodes.
// Accepts any input and classifies each finding by severity.
void CheckGraphStructure(const graph::Graph& g, DiagnosticEngine& de);

// Shape dataflow inference (SHAPE001-SHAPE004): recomputes every node's
// output shape from its inputs and attributes and checks per-edge operand
// legality (ranks, matching shapes, axes, arity, weight shapes).  Assumes
// in-range tensor ids; RunModelPasses gates it on CheckGraphStructure.
void CheckShapeDataflow(const graph::Graph& g, DiagnosticEngine& de);

// Runs CheckGraphStructure, then CheckShapeDataflow when the graph is
// structurally sound enough for shape inference to be meaningful (no
// GRAPH005 corruption).
void RunModelPasses(const graph::Graph& g, DiagnosticEngine& de);

// --- Quantization legality (QUANT001-QUANT008) -----------------------------

// The quantization recipe of one submission, as the rules see it.  The
// defaults mirror the executor's convention: symmetric per-channel INT8
// weights (axis 0 = output channels), asymmetric 8-bit activations.
struct QuantConfigView {
  // Submission numerics for activations; pass the submission DataType even
  // when it is FP16/FP32 so QAT misuse is still caught.
  DataType activation_dtype = DataType::kUInt8;
  DataType weight_dtype = DataType::kInt8;
  int activation_bits = 8;
  int weight_bits = 8;
  bool per_channel_weights = true;
  int per_channel_axis = 0;  // output-channel axis of weight tensors
  // Mutually-agreed QAT weights requested (paper §5.1: legal for INT8 only;
  // submitters may not retrain).
  bool qat_weights = false;
  // Calibrated activation ranges to check, if available.
  const infer::QuantParams* params = nullptr;
  // Calibration legality (paper §5.1: only the approved subset may be
  // used).  Both empty = not checked.
  std::span<const std::size_t> approved_calibration;
  std::span<const std::size_t> used_calibration;
};

void CheckQuantLegality(const graph::Graph& g, const QuantConfigView& q,
                        DiagnosticEngine& de);

// --- SoC mapping feasibility (SOC001-SOC005) -------------------------------

// One execution policy about to be compiled onto a chipset.  The pass
// answers the paper's fallback-to-CPU hazard question statically: is every
// op of the graph placeable on the engine the policy gives it?
struct MappingConfigView {
  const soc::ChipsetDesc* chipset = nullptr;
  const soc::ExecutionPolicy* policy = nullptr;
  DataType numerics = DataType::kInt8;
  // Config-key prefix used in diagnostic sources, e.g.
  // "Snapdragon 888/image_classification/single_stream".
  std::string label = "policy";
};

void CheckSocMapping(const graph::Graph& g, const MappingConfigView& m,
                     DiagnosticEngine& de);

// --- Run-configuration determinism lints (RUN001-RUN007) -------------------

struct RunConfigView {
  int threads = 1;
  double cooldown_s = 60.0;
  int max_test_retries = 1;
  // Requested kernel ISA name ("auto", "scalar", "avx2", "neon") and
  // whether the host's kernel registry can honor it.  The caller resolves
  // availability (infer::kernels::KernelRegistry) so this layer stays free
  // of an infer dependency; an unknown name or an unavailable ISA is
  // RUN007 (the run would silently fall back to the portable kernels).
  std::string kernel_isa = "auto";
  bool kernel_isa_available = true;
  // Tiled-execution request (DESIGN.md §15).  `tile_rows` follows
  // infer::TileOptions: -1 = auto, >= 1 = explicit tile height; anything
  // else is an invalid configuration (RUN008 error).  The caller resolves
  // `graph_has_fusable_segment` (infer::HasFusableSegment) so this layer
  // stays free of an infer dependency; tiling requested on a graph with no
  // fusable segment is a RUN008 warning — the run silently executes
  // whole-op and any memory/latency expectations from tiling are void.
  bool tiling_requested = false;
  std::int64_t tile_rows = -1;
  bool graph_has_fusable_segment = false;
  // Named per-inference fault probabilities from the fault plan.
  std::vector<std::pair<std::string, double>> fault_probabilities;
  // Declared threading properties of the execution engine driving the run.
  // The in-tree engine uses a ThreadPool with static deterministic
  // partitioning and per-task scratch; these flags exist so external or
  // experimental engines can be linted against the same rules.
  bool shared_scratch_across_threads = false;
  bool uses_thread_pool = true;
};

void CheckRunConfig(const RunConfigView& rc, DiagnosticEngine& de);

}  // namespace mlpm::analysis
