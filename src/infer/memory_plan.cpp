#include "infer/memory_plan.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "infer/tile_planner.h"

namespace mlpm::infer {
namespace {

using graph::Graph;
using graph::Node;
using graph::OpType;
using graph::TensorId;

std::size_t AlignUp(std::size_t n) {
  return (n + kArenaAlignElements - 1) / kArenaAlignElements *
         kArenaAlignElements;
}

}  // namespace

bool SupportsInPlace(graph::OpType op) {
  switch (op) {
    case OpType::kReshape:     // pure view: the copy is skipped entirely
    case OpType::kActivation:  // out[i] = f(in[i])
    case OpType::kAdd:         // out[i] = a[i] + b[i]: reads precede the write
    case OpType::kMul:
      return true;
    default:
      return false;
  }
}

MemoryPlan MemoryPlan::Build(const Graph& g) {
  return Build(g, nullptr);
}

MemoryPlan MemoryPlan::Build(const Graph& g, const TilePlan* tiling) {
  std::vector<graph::LiveInterval> live = graph::ComputeLiveness(g);
  // A tiled segment executes as one unit: while the tail writes its output
  // band, the head is still reading its exterior input for the next tile.
  // Every exterior tensor any segment node reads must therefore stay live
  // through the segment's last node, or the packer could lay the tail's
  // output over a buffer the segment still reads.
  if (tiling != nullptr) {
    for (const TileSegment& s : tiling->segments)
      for (std::int32_t m = s.first_node; m <= s.last_node; ++m)
        for (const TensorId id : g.nodes()[static_cast<std::size_t>(m)].inputs)
          if (!tiling->interior[static_cast<std::size_t>(id)])
            live[static_cast<std::size_t>(id)].last_use =
                std::max(live[static_cast<std::size_t>(id)].last_use,
                         s.last_node);
  }
  MemoryPlan plan;
  plan.placements_.resize(g.tensors().size());
  plan.tile_slab_bytes_ = tiling != nullptr ? tiling->slab_bytes() : 0;

  // Per-tile slab bytes by interior TensorId (0 for everything else).
  std::vector<std::size_t> slab_tensor_bytes(g.tensors().size(), 0);
  if (tiling != nullptr) {
    for (const TileSegment& s : tiling->segments)
      for (std::size_t j = 0; j < s.interior.size(); ++j) {
        const graph::TensorShape& sh = g.tensor(s.interior[j]).shape;
        slab_tensor_bytes[static_cast<std::size_t>(s.interior[j])] =
            static_cast<std::size_t>(s.slab_rows[j] * sh.width() *
                                     sh.channels()) *
            sizeof(float);
      }
  }

  // Per-root bookkeeping while aliases accrete onto buffers.  `root_of` is
  // only meaningful for planned tensors; aliases point directly at their
  // root (alias chains are flattened as they are built).
  std::vector<std::int32_t> buffer_index(g.tensors().size(), -1);

  const auto node_count = static_cast<std::int32_t>(g.nodes().size());
  for (std::int32_t i = 0; i < node_count; ++i) {
    const Node& n = g.nodes()[static_cast<std::size_t>(i)];
    if (n.op == OpType::kInput) continue;
    const auto out = static_cast<std::size_t>(n.output);
    const std::int64_t out_elements = g.tensor(n.output).shape.elements();
    // A produced-but-never-read tensor still needs somewhere to write.
    const std::int32_t out_last = std::max(live[out].last_use, i);

    // Segment-interior tensors never touch the arena: the tiled executor
    // materializes them tile-by-tile in a per-run slab, so their full-size
    // live interval disappears from packing entirely.  The naive footprint
    // still counts them at full size — that is exactly the saving.
    if (tiling != nullptr && tiling->interior[out]) {
      plan.placements_[out] = {PlacementKind::kTileSlab, 0, n.output};
      plan.naive_bytes_ +=
          static_cast<std::size_t>(out_elements) * sizeof(float);
      plan.intervals_.push_back(IntervalBytes{n.output, i, out_last,
                                              slab_tensor_bytes[out],
                                              PlacementKind::kTileSlab});
      continue;
    }

    // Alias onto the first input's buffer when the op tolerates it, the
    // element counts match (index-aligned access), and the buffer carries
    // no value anyone reads after this node.  Graph inputs are caller
    // memory and never aliased; a buffer holding a graph output has
    // last_use == nodes().size() and so never dies early.  Tile-slab
    // inputs have no arena buffer to share, so they never donate one.
    if (SupportsInPlace(n.op) && !n.inputs.empty()) {
      const auto in0 = static_cast<std::size_t>(n.inputs[0]);
      const TensorPlacement& src = plan.placements_[in0];
      if (src.kind == PlacementKind::kArena ||
          src.kind == PlacementKind::kAlias) {
        ArenaBuffer& buf = plan.buffers_[static_cast<std::size_t>(
            buffer_index[static_cast<std::size_t>(src.buffer)])];
        if (buf.last_use == i &&
            static_cast<std::int64_t>(buf.elements) == out_elements) {
          plan.placements_[out] = {PlacementKind::kAlias, 0, src.buffer};
          buf.last_use = std::max(buf.last_use, out_last);
          ++plan.alias_count_;
          plan.naive_bytes_ +=
              static_cast<std::size_t>(out_elements) * sizeof(float);
          continue;
        }
      }
    }

    plan.placements_[out] = {PlacementKind::kArena, 0, n.output};
    buffer_index[out] = static_cast<std::int32_t>(plan.buffers_.size());
    plan.buffers_.push_back(ArenaBuffer{
        n.output, 0, static_cast<std::size_t>(out_elements), i, out_last});
    plan.naive_bytes_ +=
        static_cast<std::size_t>(out_elements) * sizeof(float);
  }

  // Greedy best-fit packing, largest buffer first: for each buffer, scan
  // the gaps left between already-placed lifetime-overlapping buffers and
  // take the smallest gap that fits (lowest offset on ties); extend the
  // arena only when no gap fits.
  std::vector<std::size_t> order(plan.buffers_.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ArenaBuffer& x = plan.buffers_[a];
    const ArenaBuffer& y = plan.buffers_[b];
    if (x.elements != y.elements) return x.elements > y.elements;
    if (x.def != y.def) return x.def < y.def;
    return x.root < y.root;
  });

  std::vector<std::size_t> placed;  // indices into buffers_, offset assigned
  placed.reserve(order.size());
  for (const std::size_t k : order) {
    ArenaBuffer& b = plan.buffers_[k];
    const std::size_t need = AlignUp(b.elements);

    // Placed buffers whose lifetime overlaps b's, in offset order.
    std::vector<const ArenaBuffer*> busy;
    for (const std::size_t p : placed) {
      const ArenaBuffer& o = plan.buffers_[p];
      if (o.def <= b.last_use && b.def <= o.last_use) busy.push_back(&o);
    }
    std::sort(busy.begin(), busy.end(),
              [](const ArenaBuffer* a, const ArenaBuffer* c) {
                return a->offset < c->offset;
              });

    std::size_t best_offset = std::numeric_limits<std::size_t>::max();
    std::size_t best_gap = std::numeric_limits<std::size_t>::max();
    std::size_t cursor = 0;
    for (const ArenaBuffer* o : busy) {
      if (o->offset > cursor) {
        const std::size_t gap = o->offset - cursor;
        if (gap >= need && gap < best_gap) {
          best_gap = gap;
          best_offset = cursor;
        }
      }
      cursor = std::max(cursor, o->offset + AlignUp(o->elements));
    }
    b.offset = best_gap == std::numeric_limits<std::size_t>::max()
                   ? cursor  // open-ended tail after the last busy buffer
                   : best_offset;
    plan.arena_elements_ = std::max(plan.arena_elements_, b.offset + need);
    placed.push_back(k);
  }

  // Resolve alias offsets now that every root has one.
  for (std::size_t id = 0; id < plan.placements_.size(); ++id) {
    TensorPlacement& p = plan.placements_[id];
    if (p.kind == PlacementKind::kUnplanned ||
        p.kind == PlacementKind::kTileSlab)
      continue;
    const ArenaBuffer& buf = plan.buffers_[static_cast<std::size_t>(
        buffer_index[static_cast<std::size_t>(p.buffer)])];
    p.offset = buf.offset;
  }

  // Arena-buffer intervals carry their *merged* lifetimes (aliases may have
  // extended last_use), so they are collected after packing; slab intervals
  // were recorded during the walk.  Deterministic (def, root) order.
  for (const ArenaBuffer& buf : plan.buffers_)
    plan.intervals_.push_back(IntervalBytes{buf.root, buf.def, buf.last_use,
                                            buf.elements * sizeof(float),
                                            PlacementKind::kArena});
  std::sort(plan.intervals_.begin(), plan.intervals_.end(),
            [](const IntervalBytes& a, const IntervalBytes& b) {
              if (a.def != b.def) return a.def < b.def;
              return a.root < b.root;
            });
  Ensures(plan.peak_arena_bytes() <= plan.naive_bytes_ +
                                         plan.buffers_.size() *
                                             kArenaAlignElements *
                                             sizeof(float),
          "arena exceeds the naive footprint beyond alignment slack");
  return plan;
}

}  // namespace mlpm::infer
