#include "graph/graph.h"

#include <algorithm>
#include <sstream>

namespace mlpm::graph {

std::string TensorShape::ToString() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) os << 'x';
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

std::string_view ToString(OpType t) {
  switch (t) {
    case OpType::kInput: return "Input";
    case OpType::kConv2d: return "Conv2d";
    case OpType::kDepthwiseConv2d: return "DepthwiseConv2d";
    case OpType::kFullyConnected: return "FullyConnected";
    case OpType::kAdd: return "Add";
    case OpType::kGlobalAvgPool: return "GlobalAvgPool";
    case OpType::kResizeBilinear: return "ResizeBilinear";
    case OpType::kConcat: return "Concat";
    case OpType::kReshape: return "Reshape";
    case OpType::kActivation: return "Activation";
    case OpType::kLayerNorm: return "LayerNorm";
    case OpType::kEmbeddingLookup: return "EmbeddingLookup";
    case OpType::kMultiHeadAttention: return "MultiHeadAttention";
    case OpType::kLstm: return "Lstm";
  }
  return "?";
}

std::string_view ToString(OpClass c) {
  switch (c) {
    case OpClass::kConvDense: return "conv-dense";
    case OpClass::kConvDepthwise: return "conv-depthwise";
    case OpClass::kGemm: return "gemm";
    case OpClass::kAttention: return "attention";
    case OpClass::kElementwise: return "elementwise";
    case OpClass::kMemory: return "memory";
  }
  return "?";
}

OpClass ClassOf(OpType t) {
  switch (t) {
    case OpType::kConv2d:
      return OpClass::kConvDense;
    case OpType::kDepthwiseConv2d:
      return OpClass::kConvDepthwise;
    case OpType::kFullyConnected:
    case OpType::kLstm:
      return OpClass::kGemm;
    case OpType::kMultiHeadAttention:
      return OpClass::kAttention;
    case OpType::kReshape:
    case OpType::kConcat:
    case OpType::kEmbeddingLookup:
      return OpClass::kMemory;
    case OpType::kInput:
    case OpType::kAdd:
    case OpType::kGlobalAvgPool:
    case OpType::kResizeBilinear:
    case OpType::kActivation:
    case OpType::kLayerNorm:
      return OpClass::kElementwise;
  }
  return OpClass::kElementwise;
}

const TensorInfo& Graph::tensor(TensorId id) const {
  Expects(id >= 0 && static_cast<std::size_t>(id) < tensors_.size(),
          "tensor id out of range");
  return tensors_[static_cast<std::size_t>(id)];
}

std::int64_t Graph::ParameterCount() const {
  std::int64_t n = 0;
  for (const auto& t : tensors_)
    if (t.kind == TensorKind::kWeight) n += t.shape.elements();
  return n;
}

std::int64_t ConvOutDim(std::int64_t in, int kernel, int stride, int dilation,
                        Padding pad) {
  Expects(in > 0 && kernel > 0 && stride > 0 && dilation > 0,
          "conv dims must be positive");
  const std::int64_t eff_k = static_cast<std::int64_t>(dilation) *
                                 (kernel - 1) +
                             1;
  if (pad == Padding::kSame) return (in + stride - 1) / stride;
  Expects(in >= eff_k, "valid padding requires input >= effective kernel");
  return (in - eff_k) / stride + 1;
}

GraphBuilder::GraphBuilder(std::string graph_name) {
  g_.name_ = std::move(graph_name);
}

const TensorShape& GraphBuilder::ShapeOf(TensorId id) const {
  return g_.tensor(id).shape;
}

TensorId GraphBuilder::AddTensor(std::string name, TensorShape shape,
                                 TensorKind kind) {
  g_.tensors_.emplace_back(std::move(name), std::move(shape), kind,
                           /*producer=*/-1);
  return static_cast<TensorId>(g_.tensors_.size() - 1);
}

std::string GraphBuilder::AutoName(OpType op, const std::string& given) {
  if (!given.empty()) return given;
  std::ostringstream os;
  os << ToString(op) << '_' << op_counter_;
  return os.str();
}

TensorId GraphBuilder::AddNode(OpType op, OpAttrs attrs,
                               std::vector<TensorId> inputs,
                               std::vector<TensorId> weights,
                               TensorShape out_shape,
                               const std::string& name) {
  const std::string node_name = AutoName(op, name);
  const TensorId out =
      AddTensor(node_name + ":0", std::move(out_shape),
                TensorKind::kActivation);
  Node n;
  n.name = node_name;
  n.op = op;
  n.attrs = std::move(attrs);
  n.inputs = std::move(inputs);
  n.weights = std::move(weights);
  n.output = out;
  g_.tensors_[static_cast<std::size_t>(out)].producer =
      static_cast<std::int32_t>(g_.nodes_.size());
  g_.nodes_.push_back(std::move(n));
  ++op_counter_;
  return out;
}

TensorId GraphBuilder::Input(const std::string& name, TensorShape shape) {
  const TensorId t = AddTensor(name, std::move(shape),
                               TensorKind::kActivation);
  g_.inputs_.push_back(t);
  return t;
}

TensorId GraphBuilder::Conv2d(TensorId in, std::int64_t out_channels,
                              int kernel, int stride, Activation act,
                              Padding pad, int dilation,
                              const std::string& name) {
  const TensorShape s = ShapeOf(in);
  Expects(s.rank() == 4, "Conv2d input must be NHWC");
  Expects(out_channels > 0, "Conv2d needs positive out_channels");
  Conv2dAttrs a;
  a.out_channels = out_channels;
  a.kernel_h = a.kernel_w = kernel;
  a.stride = stride;
  a.dilation = dilation;
  a.padding = pad;
  a.activation = act;
  const std::string node_name = AutoName(OpType::kConv2d, name);
  const TensorId w = AddTensor(
      node_name + "/w",
      TensorShape({out_channels, kernel, kernel, s.channels()}),
      TensorKind::kWeight);
  const TensorId b = AddTensor(node_name + "/b", TensorShape({out_channels}),
                               TensorKind::kWeight);
  TensorShape out({s.batch(),
                   ConvOutDim(s.height(), kernel, stride, dilation, pad),
                   ConvOutDim(s.width(), kernel, stride, dilation, pad),
                   out_channels});
  return AddNode(OpType::kConv2d, a, {in}, {w, b}, std::move(out), node_name);
}

TensorId GraphBuilder::DepthwiseConv2d(TensorId in, int kernel, int stride,
                                       Activation act, Padding pad,
                                       int dilation,
                                       const std::string& name) {
  const TensorShape s = ShapeOf(in);
  Expects(s.rank() == 4, "DepthwiseConv2d input must be NHWC");
  DepthwiseConv2dAttrs a;
  a.kernel_h = a.kernel_w = kernel;
  a.stride = stride;
  a.dilation = dilation;
  a.padding = pad;
  a.activation = act;
  const std::string node_name = AutoName(OpType::kDepthwiseConv2d, name);
  const TensorId w =
      AddTensor(node_name + "/w",
                TensorShape({s.channels(), kernel, kernel}),
                TensorKind::kWeight);
  const TensorId b =
      AddTensor(node_name + "/b", TensorShape({s.channels()}),
                TensorKind::kWeight);
  TensorShape out({s.batch(),
                   ConvOutDim(s.height(), kernel, stride, dilation, pad),
                   ConvOutDim(s.width(), kernel, stride, dilation, pad),
                   s.channels()});
  return AddNode(OpType::kDepthwiseConv2d, a, {in}, {w, b}, std::move(out),
                 node_name);
}

TensorId GraphBuilder::FullyConnected(TensorId in, std::int64_t out_features,
                                      Activation act,
                                      const std::string& name) {
  const TensorShape s = ShapeOf(in);
  Expects(s.rank() >= 1, "FullyConnected input must have rank >= 1");
  Expects(out_features > 0, "FullyConnected needs positive out_features");
  const std::int64_t in_features = s.dim(s.rank() - 1);
  FullyConnectedAttrs a;
  a.out_features = out_features;
  a.activation = act;
  const std::string node_name = AutoName(OpType::kFullyConnected, name);
  const TensorId w =
      AddTensor(node_name + "/w", TensorShape({out_features, in_features}),
                TensorKind::kWeight);
  const TensorId b = AddTensor(node_name + "/b", TensorShape({out_features}),
                               TensorKind::kWeight);
  std::vector<std::int64_t> dims = s.dims();
  dims.back() = out_features;
  return AddNode(OpType::kFullyConnected, a, {in}, {w, b},
                 TensorShape(std::move(dims)), node_name);
}

TensorId GraphBuilder::Add(TensorId a, TensorId b, const std::string& name) {
  Expects(ShapeOf(a) == ShapeOf(b), "Add requires equal shapes");
  return AddNode(OpType::kAdd, EmptyAttrs{}, {a, b}, {}, ShapeOf(a), name);
}

TensorId GraphBuilder::GlobalAvgPool(TensorId in, const std::string& name) {
  const TensorShape s = ShapeOf(in);
  Expects(s.rank() == 4, "GlobalAvgPool input must be NHWC");
  return AddNode(OpType::kGlobalAvgPool, EmptyAttrs{}, {in}, {},
                 TensorShape({s.batch(), 1, 1, s.channels()}), name);
}

TensorId GraphBuilder::ResizeBilinear(TensorId in, std::int64_t out_h,
                                      std::int64_t out_w,
                                      const std::string& name) {
  const TensorShape s = ShapeOf(in);
  Expects(s.rank() == 4, "ResizeBilinear input must be NHWC");
  Expects(out_h > 0 && out_w > 0, "resize target must be positive");
  ResizeAttrs a{out_h, out_w};
  return AddNode(OpType::kResizeBilinear, a, {in}, {},
                 TensorShape({s.batch(), out_h, out_w, s.channels()}), name);
}

TensorId GraphBuilder::Concat(std::vector<TensorId> ins, int axis,
                              const std::string& name) {
  Expects(!ins.empty(), "Concat needs at least one input");
  const TensorShape first = ShapeOf(ins.front());
  const std::size_t rank = first.rank();
  Expects(axis >= -static_cast<int>(rank) && axis < static_cast<int>(rank),
          "Concat axis out of range");
  const std::size_t ax = axis >= 0
                             ? static_cast<std::size_t>(axis)
                             : static_cast<std::size_t>(
                                   static_cast<int>(rank) + axis);
  Expects(ax < rank, "Concat axis out of range");
  std::vector<std::int64_t> dims = first.dims();
  std::int64_t cat = 0;
  for (TensorId t : ins) {
    const TensorShape s = ShapeOf(t);
    Expects(s.rank() == rank, "Concat rank mismatch");
    for (std::size_t d = 0; d < rank; ++d)
      if (d != ax)
        Expects(s.dim(d) == first.dim(d), "Concat non-axis dim mismatch");
    cat += s.dim(ax);
  }
  dims[ax] = cat;
  ConcatAttrs a{static_cast<int>(ax)};
  return AddNode(OpType::kConcat, a, std::move(ins), {},
                 TensorShape(std::move(dims)), name);
}

TensorId GraphBuilder::Reshape(TensorId in, std::vector<std::int64_t> dims,
                               const std::string& name) {
  TensorShape out(dims);
  Expects(out.elements() == ShapeOf(in).elements(),
          "Reshape must preserve element count");
  ReshapeAttrs a{std::move(dims)};
  return AddNode(OpType::kReshape, std::move(a), {in}, {}, std::move(out),
                 name);
}

TensorId GraphBuilder::Activate(TensorId in, Activation act,
                                const std::string& name) {
  ActivationAttrs a{act};
  return AddNode(OpType::kActivation, a, {in}, {}, ShapeOf(in), name);
}

TensorId GraphBuilder::LayerNorm(TensorId in, const std::string& name) {
  const TensorShape s = ShapeOf(in);
  const std::int64_t features = s.dim(s.rank() - 1);
  const std::string node_name = AutoName(OpType::kLayerNorm, name);
  const TensorId gamma = AddTensor(node_name + "/gamma",
                                   TensorShape({features}),
                                   TensorKind::kWeight);
  const TensorId beta = AddTensor(node_name + "/beta", TensorShape({features}),
                                  TensorKind::kWeight);
  return AddNode(OpType::kLayerNorm, LayerNormAttrs{}, {in}, {gamma, beta},
                 ShapeOf(in), node_name);
}

TensorId GraphBuilder::Embedding(TensorId token_ids, std::int64_t vocab,
                                 std::int64_t dim, const std::string& name) {
  const TensorShape s = ShapeOf(token_ids);
  Expects(s.rank() == 1, "Embedding expects [seq_len] token ids");
  Expects(vocab > 0 && dim > 0, "Embedding dims must be positive");
  EmbeddingAttrs a{vocab, dim};
  const std::string node_name = AutoName(OpType::kEmbeddingLookup, name);
  const TensorId table = AddTensor(
      node_name + "/table", TensorShape({vocab, dim}), TensorKind::kWeight);
  return AddNode(OpType::kEmbeddingLookup, a, {token_ids}, {table},
                 TensorShape({s.dim(0), dim}), node_name);
}

TensorId GraphBuilder::MultiHeadAttention(TensorId in, int num_heads,
                                          std::int64_t head_dim,
                                          const std::string& name) {
  const TensorShape s = ShapeOf(in);
  Expects(s.rank() == 2, "Attention expects [seq_len, model_dim]");
  const std::int64_t model_dim = s.dim(1);
  Expects(num_heads > 0 && head_dim > 0, "attention dims must be positive");
  Expects(num_heads * head_dim == model_dim,
          "heads*head_dim must equal model dim");
  AttentionAttrs a{num_heads, head_dim};
  const std::string node_name = AutoName(OpType::kMultiHeadAttention, name);
  std::vector<TensorId> ws;
  for (const char* suffix : {"/wq", "/wk", "/wv", "/wo"})
    ws.push_back(AddTensor(node_name + suffix,
                           TensorShape({model_dim, model_dim}),
                           TensorKind::kWeight));
  return AddNode(OpType::kMultiHeadAttention, a, {in}, std::move(ws),
                 ShapeOf(in), node_name);
}

TensorId GraphBuilder::Lstm(TensorId in, std::int64_t hidden_dim,
                            const std::string& name) {
  const TensorShape s = ShapeOf(in);
  Expects(s.rank() == 2, "Lstm expects [seq_len, features]");
  Expects(hidden_dim > 0, "Lstm hidden dim must be positive");
  const std::int64_t input_dim = s.dim(1);
  LstmAttrs a{hidden_dim};
  const std::string node_name = AutoName(OpType::kLstm, name);
  const TensorId wx = AddTensor(node_name + "/wx",
                                TensorShape({4 * hidden_dim, input_dim}),
                                TensorKind::kWeight);
  const TensorId wh = AddTensor(node_name + "/wh",
                                TensorShape({4 * hidden_dim, hidden_dim}),
                                TensorKind::kWeight);
  const TensorId b = AddTensor(node_name + "/b",
                               TensorShape({4 * hidden_dim}),
                               TensorKind::kWeight);
  return AddNode(OpType::kLstm, a, {in}, {wx, wh, b},
                 TensorShape({s.dim(0), hidden_dim}), node_name);
}

void GraphBuilder::MarkOutput(TensorId id) {
  Expects(id >= 0 && static_cast<std::size_t>(id) < g_.tensors_.size(),
          "MarkOutput: bad tensor id");
  g_.outputs_.push_back(id);
}

Graph GraphBuilder::Build() && {
  Expects(!g_.inputs_.empty(), "graph has no inputs");
  Expects(!g_.outputs_.empty(), "graph has no outputs");
  return std::move(g_);
}

}  // namespace mlpm::graph
