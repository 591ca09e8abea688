// Shape/dtype dataflow inference (SHAPE001-SHAPE004).
//
// Recomputes every node's output shape from its inputs and attributes —
// independently of GraphBuilder, which is the point: models arriving via
// deserialization or composition carry *recorded* shapes that nothing has
// re-derived.  Per node the pass checks, in order:
//   SHAPE002  input/weight arity and the attrs variant match the op;
//   SHAPE003  operands satisfy the op's rank/shape/axis constraints;
//   SHAPE004  weight tensor shapes agree with the attributes;
//   SHAPE001  the recorded output shape equals the inferred one.
// A node that fails an earlier stage skips the later ones (the inferred
// shape would be meaningless), but every node is always visited.
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analysis/passes.h"

namespace mlpm::analysis {
namespace {

using graph::Graph;
using graph::Node;
using graph::OpType;
using graph::Padding;
using graph::TensorShape;

// Per-node checking context; Fail* helpers report and mark the node bad.
class NodeChecker {
 public:
  NodeChecker(const Graph& g, const Node& n, std::size_t index,
              DiagnosticEngine& de)
      : g_(g), n_(n), de_(de),
        src_(NodeSource(n.name, static_cast<std::int32_t>(index))) {}

  [[nodiscard]] bool ok() const { return ok_; }

  bool RequireArity(std::size_t inputs, std::size_t weights) {
    if (n_.inputs.size() != inputs) {
      Fail("SHAPE002", std::string(ToString(n_.op)) + " expects " +
                           std::to_string(inputs) + " input(s), has " +
                           std::to_string(n_.inputs.size()));
      return false;
    }
    if (n_.weights.size() != weights) {
      Fail("SHAPE002", std::string(ToString(n_.op)) + " expects " +
                           std::to_string(weights) + " weight tensor(s), has " +
                           std::to_string(n_.weights.size()));
      return false;
    }
    return true;
  }

  template <typename Attrs>
  const Attrs* RequireAttrs() {
    const Attrs* a = std::get_if<Attrs>(&n_.attrs);
    if (a == nullptr)
      Fail("SHAPE002", std::string(ToString(n_.op)) +
                           " carries the wrong attribute record");
    return a;
  }

  [[nodiscard]] const TensorShape& In(std::size_t i) const {
    return g_.tensor(n_.inputs[i]).shape;
  }
  [[nodiscard]] const TensorShape& Weight(std::size_t i) const {
    return g_.tensor(n_.weights[i]).shape;
  }

  void Constraint(bool cond, const std::string& what) {
    if (!cond) Fail("SHAPE003", what);
  }

  void RequireWeightShape(std::size_t i, const TensorShape& expected,
                          const std::string& role) {
    if (!(Weight(i) == expected))
      Fail("SHAPE004", role + " weight '" + g_.tensor(n_.weights[i]).name +
                           "' has shape " + Weight(i).ToString() +
                           ", expected " + expected.ToString());
  }

  // Final stage: recorded output shape vs the inferred one.
  void Infer(const TensorShape& expected) {
    if (!ok_) return;
    const TensorShape& recorded = g_.tensor(n_.output).shape;
    if (!(recorded == expected))
      Fail("SHAPE001", "recorded output shape " + recorded.ToString() +
                           " disagrees with inferred " + expected.ToString());
  }

 private:
  void Fail(std::string_view code, std::string what) {
    ok_ = false;
    de_.Report(code, src_, std::move(what));
  }

  const Graph& g_;
  const Node& n_;
  DiagnosticEngine& de_;
  SourceRef src_;
  bool ok_ = true;
};

// ConvOutDim without the throwing preconditions; nullopt = infeasible.
std::optional<std::int64_t> SafeConvOutDim(std::int64_t in, int kernel,
                                           int stride, int dilation,
                                           Padding pad) {
  if (in <= 0 || kernel <= 0 || stride <= 0 || dilation <= 0)
    return std::nullopt;
  const std::int64_t eff_k =
      static_cast<std::int64_t>(dilation) * (kernel - 1) + 1;
  if (pad == Padding::kSame) return (in + stride - 1) / stride;
  if (in < eff_k) return std::nullopt;
  return (in - eff_k) / stride + 1;
}

void CheckConv2d(NodeChecker& c) {
  const auto* a = c.RequireAttrs<graph::Conv2dAttrs>();
  if (a == nullptr || !c.RequireArity(1, 2)) return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() == 4, "Conv2d input must be NHWC, got rank " +
                                   std::to_string(in.rank()));
  c.Constraint(a->out_channels > 0 && a->kernel_h > 0 && a->kernel_w > 0 &&
                   a->stride > 0 && a->dilation > 0,
               "Conv2d attributes must be positive");
  if (!c.ok()) return;
  const auto oh = SafeConvOutDim(in.height(), a->kernel_h, a->stride,
                                 a->dilation, a->padding);
  const auto ow = SafeConvOutDim(in.width(), a->kernel_w, a->stride,
                                 a->dilation, a->padding);
  c.Constraint(oh.has_value() && ow.has_value(),
               "valid padding requires input >= effective kernel");
  if (!c.ok()) return;
  c.RequireWeightShape(0,
                       TensorShape({a->out_channels, a->kernel_h, a->kernel_w,
                                    in.channels()}),
                       "kernel");
  c.RequireWeightShape(1, TensorShape({a->out_channels}), "bias");
  c.Infer(TensorShape({in.batch(), *oh, *ow, a->out_channels}));
}

void CheckDepthwiseConv2d(NodeChecker& c) {
  const auto* a = c.RequireAttrs<graph::DepthwiseConv2dAttrs>();
  if (a == nullptr || !c.RequireArity(1, 2)) return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() == 4, "DepthwiseConv2d input must be NHWC, got rank " +
                                   std::to_string(in.rank()));
  c.Constraint(a->kernel_h > 0 && a->kernel_w > 0 && a->stride > 0 &&
                   a->dilation > 0,
               "DepthwiseConv2d attributes must be positive");
  if (!c.ok()) return;
  const auto oh = SafeConvOutDim(in.height(), a->kernel_h, a->stride,
                                 a->dilation, a->padding);
  const auto ow = SafeConvOutDim(in.width(), a->kernel_w, a->stride,
                                 a->dilation, a->padding);
  c.Constraint(oh.has_value() && ow.has_value(),
               "valid padding requires input >= effective kernel");
  if (!c.ok()) return;
  c.RequireWeightShape(
      0, TensorShape({in.channels(), a->kernel_h, a->kernel_w}), "kernel");
  c.RequireWeightShape(1, TensorShape({in.channels()}), "bias");
  c.Infer(TensorShape({in.batch(), *oh, *ow, in.channels()}));
}

void CheckFullyConnected(NodeChecker& c) {
  const auto* a = c.RequireAttrs<graph::FullyConnectedAttrs>();
  if (a == nullptr || !c.RequireArity(1, 2)) return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() >= 1, "FullyConnected input must have rank >= 1");
  c.Constraint(a->out_features > 0,
               "FullyConnected out_features must be positive");
  if (!c.ok()) return;
  const std::int64_t in_features = in.dim(in.rank() - 1);
  c.RequireWeightShape(0, TensorShape({a->out_features, in_features}),
                       "kernel");
  c.RequireWeightShape(1, TensorShape({a->out_features}), "bias");
  std::vector<std::int64_t> dims = in.dims();
  dims.back() = a->out_features;
  c.Infer(TensorShape(std::move(dims)));
}

void CheckElementwiseBinary(NodeChecker& c) {
  if (!c.RequireArity(2, 0)) return;
  c.Constraint(c.In(0) == c.In(1),
               "elementwise operands must have equal shapes, got " +
                   c.In(0).ToString() + " vs " + c.In(1).ToString());
  if (!c.ok()) return;
  c.Infer(c.In(0));
}

void CheckGlobalAvgPool(NodeChecker& c) {
  if (!c.RequireArity(1, 0)) return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() == 4, "GlobalAvgPool input must be NHWC");
  if (!c.ok()) return;
  c.Infer(TensorShape({in.batch(), 1, 1, in.channels()}));
}

void CheckResize(NodeChecker& c) {
  const auto* a = c.RequireAttrs<graph::ResizeAttrs>();
  if (a == nullptr || !c.RequireArity(1, 0)) return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() == 4, "ResizeBilinear input must be NHWC");
  c.Constraint(a->out_h > 0 && a->out_w > 0,
               "resize target must be positive");
  if (!c.ok()) return;
  c.Infer(TensorShape({in.batch(), a->out_h, a->out_w, in.channels()}));
}

void CheckConcat(NodeChecker& c, const Node& n) {
  const auto* a = c.RequireAttrs<graph::ConcatAttrs>();
  if (a == nullptr) return;
  if (n.inputs.empty() || !n.weights.empty()) {
    c.RequireArity(n.inputs.empty() ? 1 : n.inputs.size(), 0);
    return;
  }
  const TensorShape& first = c.In(0);
  const auto rank = static_cast<int>(first.rank());
  c.Constraint(a->axis >= -rank && a->axis < rank,
               "Concat axis " + std::to_string(a->axis) +
                   " out of range for rank " + std::to_string(rank));
  if (!c.ok()) return;
  const auto ax =
      static_cast<std::size_t>(a->axis >= 0 ? a->axis : rank + a->axis);
  std::vector<std::int64_t> dims = first.dims();
  std::int64_t cat = 0;
  for (std::size_t i = 0; i < n.inputs.size(); ++i) {
    const TensorShape& s = c.In(i);
    c.Constraint(s.rank() == first.rank(),
                 "Concat operand " + std::to_string(i) + " has rank " +
                     std::to_string(s.rank()) + ", expected " +
                     std::to_string(first.rank()));
    if (!c.ok()) return;
    for (std::size_t d = 0; d < first.rank(); ++d)
      if (d != ax)
        c.Constraint(s.dim(d) == first.dim(d),
                     "Concat operand " + std::to_string(i) +
                         " differs on non-axis dim " + std::to_string(d));
    if (!c.ok()) return;
    cat += s.dim(ax);
  }
  dims[ax] = cat;
  c.Infer(TensorShape(std::move(dims)));
}

void CheckReshape(NodeChecker& c) {
  const auto* a = c.RequireAttrs<graph::ReshapeAttrs>();
  if (a == nullptr || !c.RequireArity(1, 0)) return;
  std::int64_t elements = 1;
  bool positive = true;
  for (const std::int64_t d : a->new_dims) {
    if (d <= 0) positive = false;
    elements *= d;
  }
  c.Constraint(positive, "Reshape dims must be positive");
  if (!c.ok()) return;
  c.Constraint(elements == c.In(0).elements(),
               "Reshape must preserve element count (" +
                   std::to_string(c.In(0).elements()) + " -> " +
                   std::to_string(elements) + ")");
  if (!c.ok()) return;
  c.Infer(TensorShape(a->new_dims));
}

void CheckActivation(NodeChecker& c) {
  if (c.RequireAttrs<graph::ActivationAttrs>() == nullptr ||
      !c.RequireArity(1, 0))
    return;
  c.Infer(c.In(0));
}

void CheckLayerNorm(NodeChecker& c) {
  if (c.RequireAttrs<graph::LayerNormAttrs>() == nullptr ||
      !c.RequireArity(1, 2))
    return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() >= 1, "LayerNorm input must have rank >= 1");
  if (!c.ok()) return;
  const TensorShape feat({in.dim(in.rank() - 1)});
  c.RequireWeightShape(0, feat, "gamma");
  c.RequireWeightShape(1, feat, "beta");
  c.Infer(in);
}

void CheckEmbedding(NodeChecker& c) {
  const auto* a = c.RequireAttrs<graph::EmbeddingAttrs>();
  if (a == nullptr || !c.RequireArity(1, 1)) return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() == 1, "EmbeddingLookup expects [seq_len] token ids");
  c.Constraint(a->vocab_size > 0 && a->embed_dim > 0,
               "EmbeddingLookup dims must be positive");
  if (!c.ok()) return;
  c.RequireWeightShape(0, TensorShape({a->vocab_size, a->embed_dim}),
                       "table");
  c.Infer(TensorShape({in.dim(0), a->embed_dim}));
}

void CheckAttention(NodeChecker& c) {
  const auto* a = c.RequireAttrs<graph::AttentionAttrs>();
  if (a == nullptr || !c.RequireArity(1, 4)) return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() == 2,
               "MultiHeadAttention expects [seq_len, model_dim]");
  c.Constraint(a->num_heads > 0 && a->head_dim > 0,
               "attention dims must be positive");
  if (!c.ok()) return;
  const std::int64_t model_dim = in.dim(1);
  c.Constraint(static_cast<std::int64_t>(a->num_heads) * a->head_dim ==
                   model_dim,
               "heads*head_dim (" +
                   std::to_string(static_cast<std::int64_t>(a->num_heads) *
                                  a->head_dim) +
                   ") must equal model dim (" + std::to_string(model_dim) +
                   ")");
  if (!c.ok()) return;
  const TensorShape proj({model_dim, model_dim});
  const char* roles[] = {"wq", "wk", "wv", "wo"};
  for (std::size_t i = 0; i < 4; ++i) c.RequireWeightShape(i, proj, roles[i]);
  c.Infer(in);
}

void CheckLstm(NodeChecker& c) {
  const auto* a = c.RequireAttrs<graph::LstmAttrs>();
  if (a == nullptr || !c.RequireArity(1, 3)) return;
  const TensorShape& in = c.In(0);
  c.Constraint(in.rank() == 2, "Lstm expects [seq_len, features]");
  c.Constraint(a->hidden_dim > 0, "Lstm hidden dim must be positive");
  if (!c.ok()) return;
  const std::int64_t h = a->hidden_dim;
  c.RequireWeightShape(0, TensorShape({4 * h, in.dim(1)}), "wx");
  c.RequireWeightShape(1, TensorShape({4 * h, h}), "wh");
  c.RequireWeightShape(2, TensorShape({4 * h}), "bias");
  c.Infer(TensorShape({in.dim(0), h}));
}

}  // namespace

void CheckShapeDataflow(const Graph& g, DiagnosticEngine& de) {
  for (std::size_t ni = 0; ni < g.nodes().size(); ++ni) {
    const Node& n = g.nodes()[ni];
    NodeChecker c(g, n, ni, de);
    switch (n.op) {
      case OpType::kInput:
        de.Report("SHAPE003", NodeSource(n.name, static_cast<std::int32_t>(ni)),
                  "Input is a tensor marker, not an executable node");
        break;
      case OpType::kConv2d: CheckConv2d(c); break;
      case OpType::kDepthwiseConv2d: CheckDepthwiseConv2d(c); break;
      case OpType::kFullyConnected: CheckFullyConnected(c); break;
      case OpType::kAdd: CheckElementwiseBinary(c); break;
      case OpType::kGlobalAvgPool: CheckGlobalAvgPool(c); break;
      case OpType::kResizeBilinear: CheckResize(c); break;
      case OpType::kConcat: CheckConcat(c, n); break;
      case OpType::kReshape: CheckReshape(c); break;
      case OpType::kActivation: CheckActivation(c); break;
      case OpType::kLayerNorm: CheckLayerNorm(c); break;
      case OpType::kEmbeddingLookup: CheckEmbedding(c); break;
      case OpType::kMultiHeadAttention: CheckAttention(c); break;
      case OpType::kLstm: CheckLstm(c); break;
    }
  }
}

}  // namespace mlpm::analysis
