// Tile planner: fusable pipeline segments + cache-budgeted row bands.
//
// The whole-op executor runs node by node, so a conv/dw/elementwise chain
// round-trips every intermediate activation through memory at full size.
// The tile planner groups maximal chains of bounds-inference-capable nodes
// (graph/bounds.h) into *segments* that the executor runs crop-by-crop:
// each tile computes a band of the segment's output rows through the whole
// chain while the intermediates live in tile-sized slabs, sized by bounds
// inference and packed against a per-core cache budget (DESIGN.md §15).
//
// Segment formation (greedy, deterministic):
//   * a segment is a contiguous run of node indices [first, last] in the
//     graph's topological storage order;
//   * every node supports bounds inference and produces a rank-4, batch-1
//     NHWC tensor;
//   * each link's producer output is consumed only by the next node and is
//     not a graph output (so it never needs full materialization);
//   * a binary op's second operand always comes from outside the segment
//     (guaranteed by the single-consumer rule; re-checked here) and is read
//     fully-materialized at the crop's own coordinates;
//   * a segment is kept only if it has >= 2 nodes and at least one conv or
//     depthwise conv (otherwise tiling buys nothing).
//
// Tile-size selection back-propagates a candidate output band through the
// chain (rows_in = (rows_out - 1) * stride + effective_kernel, clamped) and
// takes the largest band whose summed slab bytes fit the cache budget,
// additionally capped at a fixed minimum tile count per segment, which
// holds today's plans (and the tile_* report figures) fixed until the
// planner itself goes.  Results are bit-identical for every band size —
// the band only moves the compute/locality trade-off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace mlpm::infer {

// Run-level tiling request (harness RunOptions::tiling, CLI --tile).
struct TileOptions {
  bool enabled = false;
  // Output rows per tile for every segment; -1 = auto (largest band whose
  // intermediate slabs fit `cache_bytes`).  Explicit values are clamped to
  // each segment's output height.  0 is invalid (lint RUN008).
  std::int64_t rows = -1;
  // Per-core cache budget the auto selector sizes slabs against.
  std::size_t cache_bytes = 512 * 1024;
};

// One fusable pipeline segment: nodes [first_node, last_node] inclusive.
struct TileSegment {
  std::int32_t first_node = 0;
  std::int32_t last_node = 0;
  // Outputs of nodes [first_node, last_node): materialized per tile as
  // row slabs instead of whole tensors.
  std::vector<graph::TensorId> interior;
  // Worst-case rows each interior slab holds for one tile, and its element
  // offset inside the segment's slab block (both parallel to `interior`).
  std::vector<std::int64_t> slab_rows;
  std::vector<std::size_t> slab_offsets;
  // One run's slab block for this segment, in elements (aligned).
  std::size_t slab_elements = 0;
  std::int64_t tile_rows = 0;  // selected output-row band, >= 1
  std::int64_t out_rows = 0;   // H of the segment's final output

  [[nodiscard]] std::int64_t tile_count() const {
    return tile_rows > 0 ? (out_rows + tile_rows - 1) / tile_rows : 0;
  }
};

struct TilePlan {
  std::vector<TileSegment> segments;
  // By TensorId: true when the tensor lives in tile slabs, never the arena.
  std::vector<bool> interior;
  // By node index: segment index covering the node, or -1.
  std::vector<std::int32_t> segment_of_node;

  [[nodiscard]] bool empty() const { return segments.empty(); }
  // One run's peak slab footprint: the largest segment block (segments
  // execute one at a time; concurrent runs each hold one block).
  [[nodiscard]] std::size_t slab_bytes() const;
};

// True if the node can run inside a tiled segment: bounds-inference-capable
// op over rank-4, batch-1 NHWC tensors.
[[nodiscard]] bool NodeIsTileable(const graph::Graph& g, const graph::Node& n);

// True if BuildTilePlan would find at least one segment (the RUN008 lint
// predicate: tiling requested on a graph with no fusable segment warns).
[[nodiscard]] bool HasFusableSegment(const graph::Graph& g);

// Plans segments and tile bands for `g`.  Returns an empty plan when
// `opt.enabled` is false or no fusable segment exists.  Deterministic: a
// pure function of the graph and options.
[[nodiscard]] TilePlan BuildTilePlan(const graph::Graph& g,
                                     const TileOptions& opt);

}  // namespace mlpm::infer
