#include "infer/tile_planner.h"

#include <algorithm>
#include <variant>

#include "common/check.h"
#include "graph/bounds.h"
#include "infer/memory_plan.h"

namespace mlpm::infer {
namespace {

using graph::Graph;
using graph::Node;
using graph::OpType;
using graph::TensorId;

// A segment must split into at least this many tiles (when its output has
// that many rows).  The cap holds auto plans, and the tile_* figures
// reported from them, fixed until the planner itself is deleted.
constexpr std::int64_t kMinTilesPerSegment = 8;

std::size_t AlignUp(std::size_t n) {
  return (n + kArenaAlignElements - 1) / kArenaAlignElements *
         kArenaAlignElements;
}

// How many nodes read each tensor, with graph outputs pinned (they must be
// fully materialized, so they can never be segment-interior).
std::vector<int> ConsumerCounts(const Graph& g) {
  std::vector<int> counts(g.tensors().size(), 0);
  for (const Node& n : g.nodes())
    for (const TensorId id : n.inputs) ++counts[static_cast<std::size_t>(id)];
  for (const TensorId id : g.output_ids()) ++counts[static_cast<std::size_t>(id)];
  return counts;
}

bool IsConvLike(OpType op) {
  return op == OpType::kConv2d || op == OpType::kDepthwiseConv2d;
}

// Input rows one node needs to produce `rows_out` of its output, ignoring
// crop clamping (clamping only shrinks, so this is the worst case).
std::int64_t RowsIn(const Node& n, std::int64_t rows_out,
                    std::int64_t in_height, std::int64_t out_height) {
  int kernel = 1, stride = 1, dilation = 1;
  switch (n.op) {
    case OpType::kConv2d: {
      const auto& a = std::get<graph::Conv2dAttrs>(n.attrs);
      kernel = a.kernel_h;
      stride = a.stride;
      dilation = a.dilation;
      break;
    }
    case OpType::kDepthwiseConv2d: {
      const auto& a = std::get<graph::DepthwiseConv2dAttrs>(n.attrs);
      kernel = a.kernel_h;
      stride = a.stride;
      dilation = a.dilation;
      break;
    }
    case OpType::kAvgPool:
    case OpType::kMaxPool: {
      const auto& a = std::get<graph::PoolAttrs>(n.attrs);
      kernel = a.kernel;
      stride = a.stride;
      break;
    }
    case OpType::kResizeBilinear:
      // Half-pixel bilinear: a band of `rows_out` output rows spans at most
      // floor((rows_out - 1) * in/out) + 1 source starts plus the second
      // tap of the last row (bounds.cpp ResizeSpan can never exceed this).
      return std::min(in_height,
                      (rows_out - 1) * in_height / out_height + 3);
    default:
      return std::min(rows_out, in_height);  // elementwise: same rows
  }
  const std::int64_t eff_k =
      static_cast<std::int64_t>(dilation) * (kernel - 1) + 1;
  return std::min(in_height, (rows_out - 1) * stride + eff_k);
}

// Per-interior worst-case slab rows for an output band of `tile_rows`,
// back-propagated through the chain.  `rows[j]` is for the output of node
// `first + j`, j in [0, last - first).
std::vector<std::int64_t> SlabRows(const Graph& g, std::int32_t first,
                                   std::int32_t last, std::int64_t tile_rows) {
  std::vector<std::int64_t> rows(static_cast<std::size_t>(last - first));
  std::int64_t need = tile_rows;
  for (std::int32_t i = last; i > first; --i) {
    const Node& n = g.nodes()[static_cast<std::size_t>(i)];
    const std::int64_t in_h = g.tensor(n.inputs[0]).shape.height();
    need = RowsIn(n, need, in_h, g.tensor(n.output).shape.height());
    rows[static_cast<std::size_t>(i - first - 1)] = need;
  }
  return rows;
}

// Packs the interior slabs for a band size; fills slab_rows/offsets/
// elements on `s` and returns the block's byte size.
std::size_t PackSlabs(const Graph& g, TileSegment& s,
                      std::int64_t tile_rows) {
  s.slab_rows = SlabRows(g, s.first_node, s.last_node, tile_rows);
  s.slab_offsets.assign(s.interior.size(), 0);
  std::size_t cursor = 0;
  for (std::size_t j = 0; j < s.interior.size(); ++j) {
    const graph::TensorShape& sh = g.tensor(s.interior[j]).shape;
    s.slab_offsets[j] = cursor;
    cursor += AlignUp(static_cast<std::size_t>(s.slab_rows[j] * sh.width() *
                                               sh.channels()));
  }
  s.slab_elements = cursor;
  return cursor * sizeof(float);
}

// Grows the longest valid chain starting at node index `i`; returns the
// last node index (== i when no chain forms).
std::int32_t GrowChain(const Graph& g, const std::vector<int>& consumers,
                       std::int32_t i) {
  const auto node_count = static_cast<std::int32_t>(g.nodes().size());
  std::int32_t last = i;
  while (last + 1 < node_count) {
    const Node& cur = g.nodes()[static_cast<std::size_t>(last)];
    const Node& next = g.nodes()[static_cast<std::size_t>(last + 1)];
    if (!NodeIsTileable(g, next)) break;
    if (next.inputs.empty() || next.inputs[0] != cur.output) break;
    if (consumers[static_cast<std::size_t>(cur.output)] != 1) break;
    // A binary op's second operand must be exterior.  The single-consumer
    // rule already forbids an interior operand (it would fork the chain);
    // this re-check keeps the invariant local and future-proof.
    bool second_is_interior = false;
    for (std::size_t k = 1; k < next.inputs.size(); ++k)
      for (std::int32_t m = i; m <= last; ++m)
        if (next.inputs[k] == g.nodes()[static_cast<std::size_t>(m)].output)
          second_is_interior = true;
    if (second_is_interior) break;
    ++last;
  }
  return last;
}

bool ChainWorthKeeping(const Graph& g, std::int32_t first, std::int32_t last) {
  if (last - first < 1) return false;  // need >= 2 nodes
  for (std::int32_t i = first; i <= last; ++i)
    if (IsConvLike(g.nodes()[static_cast<std::size_t>(i)].op)) return true;
  return false;
}

}  // namespace

std::size_t TilePlan::slab_bytes() const {
  std::size_t peak = 0;
  for (const TileSegment& s : segments)
    peak = std::max(peak, s.slab_elements * sizeof(float));
  return peak;
}

bool NodeIsTileable(const Graph& g, const Node& n) {
  if (!graph::SupportsBoundsInference(n.op)) return false;
  const graph::TensorShape& out = g.tensor(n.output).shape;
  if (out.rank() != 4 || out.batch() != 1) return false;
  for (const TensorId id : n.inputs) {
    const graph::TensorShape& in = g.tensor(id).shape;
    if (in.rank() != 4 || in.batch() != 1) return false;
  }
  return !n.inputs.empty();
}

bool HasFusableSegment(const Graph& g) {
  const std::vector<int> consumers = ConsumerCounts(g);
  const auto node_count = static_cast<std::int32_t>(g.nodes().size());
  for (std::int32_t i = 0; i < node_count; ++i) {
    if (!NodeIsTileable(g, g.nodes()[static_cast<std::size_t>(i)])) continue;
    const std::int32_t last = GrowChain(g, consumers, i);
    if (ChainWorthKeeping(g, i, last)) return true;
    i = last;  // nothing inside [i, last] starts a longer chain
  }
  return false;
}

TilePlan BuildTilePlan(const Graph& g, const TileOptions& opt) {
  TilePlan plan;
  plan.interior.assign(g.tensors().size(), false);
  plan.segment_of_node.assign(g.nodes().size(), -1);
  if (!opt.enabled) return plan;
  Expects(opt.rows == -1 || opt.rows >= 1,
          "tile rows must be -1 (auto) or >= 1");

  const std::vector<int> consumers = ConsumerCounts(g);
  const auto node_count = static_cast<std::int32_t>(g.nodes().size());
  std::vector<TileSegment> cands;
  for (std::int32_t i = 0; i < node_count; ++i) {
    if (!NodeIsTileable(g, g.nodes()[static_cast<std::size_t>(i)])) continue;
    const std::int32_t last = GrowChain(g, consumers, i);
    if (!ChainWorthKeeping(g, i, last)) {
      i = last;
      continue;
    }

    TileSegment s;
    s.first_node = i;
    s.last_node = last;
    for (std::int32_t m = i; m < last; ++m)
      s.interior.push_back(g.nodes()[static_cast<std::size_t>(m)].output);
    const Node& tail = g.nodes()[static_cast<std::size_t>(last)];
    s.out_rows = g.tensor(tail.output).shape.height();

    if (opt.rows >= 1) {
      s.tile_rows = std::min(opt.rows, s.out_rows);
      PackSlabs(g, s, s.tile_rows);
    } else {
      // Auto: the largest band whose slab block fits the cache budget.
      // Big outputs are additionally capped at kMinTilesPerSegment tiles;
      // outputs with fewer rows than that get one band, as slicing them
      // only pays per-tile overhead.  Band size never changes results,
      // only locality.
      std::int64_t rows = s.out_rows <= kMinTilesPerSegment
                              ? s.out_rows
                              : s.out_rows / kMinTilesPerSegment;
      while (rows > 1 && PackSlabs(g, s, rows) > opt.cache_bytes) --rows;
      s.tile_rows = rows;
      PackSlabs(g, s, rows);
    }
    cands.push_back(std::move(s));
    i = last;
  }
  if (cands.empty()) return plan;

  const auto materialize = [&](const std::vector<TileSegment>& segs) {
    TilePlan p;
    p.interior.assign(g.tensors().size(), false);
    p.segment_of_node.assign(g.nodes().size(), -1);
    for (const TileSegment& s : segs) {
      for (const TensorId id : s.interior)
        p.interior[static_cast<std::size_t>(id)] = true;
      for (std::int32_t m = s.first_node; m <= s.last_node; ++m)
        p.segment_of_node[static_cast<std::size_t>(m)] =
            static_cast<std::int32_t>(p.segments.size());
      p.segments.push_back(s);
    }
    return p;
  };
  const auto peak_with = [&](const std::vector<TileSegment>& segs) {
    const TilePlan p = materialize(segs);
    return MemoryPlan::Build(g, &p).peak_arena_bytes();
  };

  // Footprint gate.  A segment pays for its slabs by pinning its exterior
  // inputs until the segment tail (the head re-reads them tile by tile),
  // and that pin can pack worse than the interiors the segment removes —
  // e.g. a chain fused into a huge fully-materialized graph output keeps
  // its head input alive across the output's whole interval.  Greedily
  // drop segments while a drop lowers the tile-aware peak; if the
  // survivors still pack worse than the untiled arena, tiling buys nothing
  // here and the whole-op plan wins outright.
  const std::size_t untiled_peak = MemoryPlan::Build(g).peak_arena_bytes();
  std::size_t peak = peak_with(cands);
  bool improved = true;
  while (improved && !cands.empty()) {
    improved = false;
    for (std::size_t k = 0; k < cands.size(); ++k) {
      std::vector<TileSegment> trial = cands;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(k));
      const std::size_t trial_peak = peak_with(trial);
      if (trial_peak < peak) {
        cands = std::move(trial);
        peak = trial_peak;
        improved = true;
        break;
      }
    }
  }
  if (peak > untiled_peak || cands.empty()) return plan;
  return materialize(cands);
}

}  // namespace mlpm::infer
