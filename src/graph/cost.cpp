#include "graph/cost.h"

#include <variant>

namespace mlpm::graph {
namespace {

std::int64_t SumInputElems(const Graph& g, const Node& n) {
  std::int64_t e = 0;
  for (TensorId t : n.inputs) e += g.tensor(t).shape.elements();
  return e;
}

std::int64_t SumWeightElems(const Graph& g, const Node& n) {
  std::int64_t e = 0;
  for (TensorId t : n.weights) e += g.tensor(t).shape.elements();
  return e;
}

}  // namespace

NodeCost AnalyzeNode(const Graph& g, const Node& n) {
  NodeCost c;
  c.op_class = ClassOf(n.op);
  c.input_elems = SumInputElems(g, n);
  c.weight_elems = SumWeightElems(g, n);
  c.output_elems = g.tensor(n.output).shape.elements();

  const TensorShape& out = g.tensor(n.output).shape;
  switch (n.op) {
    case OpType::kConv2d: {
      const auto& a = std::get<Conv2dAttrs>(n.attrs);
      const TensorShape& in = g.tensor(n.inputs[0]).shape;
      // out_elems * (kh*kw*in_channels) MACs.
      c.macs = out.elements() * a.kernel_h * a.kernel_w * in.channels();
      c.dilated = a.dilation > 1;
      break;
    }
    case OpType::kDepthwiseConv2d: {
      const auto& a = std::get<DepthwiseConv2dAttrs>(n.attrs);
      c.macs = out.elements() * a.kernel_h * a.kernel_w;
      c.dilated = a.dilation > 1;
      break;
    }
    case OpType::kFullyConnected: {
      const TensorShape& in = g.tensor(n.inputs[0]).shape;
      const std::int64_t in_features = in.dim(in.rank() - 1);
      c.macs = out.elements() * in_features;
      break;
    }
    case OpType::kLstm: {
      const auto& a = std::get<LstmAttrs>(n.attrs);
      const TensorShape& in = g.tensor(n.inputs[0]).shape;
      const std::int64_t seq = in.dim(0);
      const std::int64_t d = in.dim(1);
      // Per step: 4 gates, each H x (D + H) MACs.
      c.macs = seq * 4 * a.hidden_dim * (d + a.hidden_dim);
      break;
    }
    case OpType::kMultiHeadAttention: {
      const auto& a = std::get<AttentionAttrs>(n.attrs);
      const TensorShape& in = g.tensor(n.inputs[0]).shape;
      const std::int64_t seq = in.dim(0);
      const std::int64_t model = in.dim(1);
      // Q/K/V/O projections + QK^T + attention-weighted V.
      const std::int64_t proj = 4 * seq * model * model;
      const std::int64_t scores =
          2 * a.num_heads * seq * seq * a.head_dim;
      c.macs = proj + scores;
      break;
    }
    case OpType::kGlobalAvgPool:
      c.macs = c.input_elems;
      break;
    case OpType::kResizeBilinear:
      c.macs = 4 * out.elements();  // 4-tap interpolation
      break;
    case OpType::kLayerNorm:
      c.macs = 4 * c.input_elems;  // mean, var, scale, shift
      break;
    case OpType::kAdd:
    case OpType::kActivation:
      c.macs = c.output_elems;
      break;
    case OpType::kInput:
    case OpType::kConcat:
    case OpType::kReshape:
    case OpType::kEmbeddingLookup:
      c.macs = 0;  // pure data movement
      break;
  }
  return c;
}

GraphCost AnalyzeGraph(const Graph& g) {
  GraphCost gc;
  gc.per_node.reserve(g.nodes().size());
  for (const auto& n : g.nodes()) {
    NodeCost c = AnalyzeNode(g, n);
    gc.total_macs += c.macs;
    gc.total_weight_elems += c.weight_elems;
    gc.per_node.push_back(c);
  }
  return gc;
}

}  // namespace mlpm::graph
