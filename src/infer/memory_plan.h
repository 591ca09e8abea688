// Static activation memory planner.
//
// Vendor runtimes win on-device largely by planning buffers ahead of time
// instead of heap-allocating per op; this module gives the functional plane
// the same property.  From the graph's topological node order it derives
// first-def / last-use intervals (graph::ComputeLiveness), aliases
// zero-cost ops onto their input's buffer (Reshape becomes a view; unary /
// binary elementwise ops write in place when the producer's buffer dies at
// that node), and packs every remaining buffer into one contiguous arena
// with a greedy best-fit offset assigner (smallest feasible gap wins, ties
// to the lowest offset; buffers are visited largest-first).
//
// The plan is a pure function of the graph — no execution, no weights —
// so the linter and the harness can report planned peak activation memory
// for the full-scale models without running them.  Execution against a
// plan (infer::ExecutionContext) is bit-identical to allocating every
// activation separately; tests/oracle.h does that as the test oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/liveness.h"

namespace mlpm::infer {

struct TilePlan;

// Arena offsets are aligned to 64 bytes (16 floats) so vectorized kernel
// loops see cacheline-aligned buffers.
inline constexpr std::size_t kArenaAlignElements = 16;

// How one tensor is backed during arena execution.
enum class PlacementKind : std::uint8_t {
  kUnplanned,  // weights and graph inputs: bound externally, never in arena
  kArena,      // root of an arena buffer at [offset, offset + elements)
  kAlias,      // shares its (transitive) producer-input's arena buffer
  kTileSlab,   // segment-interior: lives in per-tile slabs, never the arena
};

struct TensorPlacement {
  PlacementKind kind = PlacementKind::kUnplanned;
  // Element offset into the arena; for kAlias this is the root's offset,
  // already resolved at plan time.
  std::size_t offset = 0;
  // Root tensor id of the shared buffer (== the tensor itself for kArena).
  graph::TensorId buffer = graph::kInvalidTensor;
};

// One packed arena buffer with its merged live interval (the union of the
// intervals of every tensor aliased onto it).  Exposed for tests and
// tooling; execution only needs TensorPlacement.
struct ArenaBuffer {
  graph::TensorId root = graph::kInvalidTensor;
  std::size_t offset = 0;    // elements
  std::size_t elements = 0;  // unaligned payload size
  std::int32_t def = 0;      // first node index writing the buffer
  std::int32_t last_use = 0; // last node index reading it (or nodes() size)
};

// Byte accounting for one planned live interval — an arena buffer (full
// tensor bytes) or a tile-slab tensor (one tile's slab bytes).  Exposed so
// reports can attribute the planned footprint interval-by-interval instead
// of quoting only the packed arena total (which under-describes tiled runs,
// where segment interiors never enter the arena at all).
struct IntervalBytes {
  graph::TensorId root = graph::kInvalidTensor;
  std::int32_t def = 0;
  std::int32_t last_use = 0;
  std::size_t bytes = 0;
  PlacementKind kind = PlacementKind::kArena;
};

class MemoryPlan {
 public:
  // Plans activation memory for `g`.  Deterministic: the same graph always
  // produces the same plan.
  [[nodiscard]] static MemoryPlan Build(const graph::Graph& g);

  // As above, but with segment-interior tensors of `tiling` (may be null)
  // placed in per-tile slabs instead of the arena: they are excluded from
  // packing, shrinking the arena, and accounted under tile_slab_bytes().
  [[nodiscard]] static MemoryPlan Build(const graph::Graph& g,
                                        const TilePlan* tiling);

  [[nodiscard]] const std::vector<TensorPlacement>& placements() const {
    return placements_;
  }
  [[nodiscard]] const std::vector<ArenaBuffer>& buffers() const {
    return buffers_;
  }

  // Arena size, elements / bytes (the plan's peak activation memory).
  [[nodiscard]] std::size_t arena_elements() const { return arena_elements_; }
  [[nodiscard]] std::size_t peak_arena_bytes() const {
    return arena_elements_ * sizeof(float);
  }
  // One run's peak tile-slab footprint (0 for untiled plans).  Each
  // concurrent run holds one slab block while executing a segment.
  [[nodiscard]] std::size_t tile_slab_bytes() const {
    return tile_slab_bytes_;
  }
  // The plan's total planned activation footprint for one run: the
  // packed arena plus one tile-slab block.  This — not peak_arena_bytes()
  // alone — is what "Act. saved" compares against the naive footprint.
  [[nodiscard]] std::size_t planned_activation_bytes() const {
    return peak_arena_bytes() + tile_slab_bytes_;
  }
  // What allocating per node would provision over a run: one buffer per
  // produced activation tensor, no reuse.
  [[nodiscard]] std::size_t naive_bytes() const { return naive_bytes_; }
  // Tensors that reuse their input's buffer (views + in-place writes).
  [[nodiscard]] std::size_t alias_count() const { return alias_count_; }
  // Per-interval byte accounting: one entry per arena buffer and per
  // tile-slab tensor, in deterministic (def, root) order.
  [[nodiscard]] const std::vector<IntervalBytes>& interval_bytes() const {
    return intervals_;
  }
  // Fraction of the naive footprint saved by planning, in [0, 1).
  [[nodiscard]] double savings_ratio() const {
    return naive_bytes_ == 0
               ? 0.0
               : 1.0 - static_cast<double>(planned_activation_bytes()) /
                           static_cast<double>(naive_bytes_);
  }

 private:
  std::vector<TensorPlacement> placements_;
  std::vector<ArenaBuffer> buffers_;
  std::vector<IntervalBytes> intervals_;
  std::size_t arena_elements_ = 0;
  std::size_t naive_bytes_ = 0;
  std::size_t alias_count_ = 0;
  std::size_t tile_slab_bytes_ = 0;
};

// True if `op` may write its output in place over its first input (all
// reads of element i happen before the write of element i, in every kernel
// and for every row band).  Reshape additionally degenerates to a
// no-op view when aliased.
[[nodiscard]] bool SupportsInPlace(graph::OpType op);

}  // namespace mlpm::infer
