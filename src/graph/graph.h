// Graph IR: a static dataflow graph of tensors and nodes.
//
// A Graph is immutable once built (paper §5.1: submissions must start from
// the frozen reference graph).  Construction goes through GraphBuilder, which
// performs shape inference eagerly so any malformed model fails at build
// time.
//
// Weights are *described* in the graph (shape, dtype, parameter count) but
// their values live in a WeightStore owned by the executor layer; the timing
// simulator never touches values.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/ops.h"
#include "graph/shape.h"

namespace mlpm::graph {

// Index of a tensor within its Graph.
using TensorId = std::int32_t;
inline constexpr TensorId kInvalidTensor = -1;

enum class TensorKind : std::uint8_t { kActivation, kWeight };

struct TensorInfo {
  std::string name;
  TensorShape shape;
  TensorKind kind = TensorKind::kActivation;
  // Producing node (kInvalidNode for graph inputs and weights).
  std::int32_t producer = -1;
};

struct Node {
  std::string name;
  OpType op = OpType::kInput;
  OpAttrs attrs;
  std::vector<TensorId> inputs;   // activation inputs
  std::vector<TensorId> weights;  // weight tensors (kernel, bias, ...)
  TensorId output = kInvalidTensor;
};

class Graph {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<TensorInfo>& tensors() const {
    return tensors_;
  }
  [[nodiscard]] const TensorInfo& tensor(TensorId id) const;
  [[nodiscard]] const std::vector<TensorId>& input_ids() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<TensorId>& output_ids() const {
    return outputs_;
  }

  // Total trainable parameter count (elements of all weight tensors).
  [[nodiscard]] std::int64_t ParameterCount() const;

 private:
  friend class GraphBuilder;
  friend Graph ParseGraphUnchecked(const std::string& text);
  std::string name_;
  std::vector<Node> nodes_;  // already in topological (construction) order
  std::vector<TensorInfo> tensors_;
  std::vector<TensorId> inputs_;
  std::vector<TensorId> outputs_;
};

// Builds graphs with eager shape inference.  All builder methods return the
// TensorId of the op's output.  Layer names are auto-generated (op type +
// ordinal) unless given.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::string graph_name);

  TensorId Input(const std::string& name, TensorShape shape);

  TensorId Conv2d(TensorId in, std::int64_t out_channels, int kernel,
                  int stride, Activation act = Activation::kNone,
                  Padding pad = Padding::kSame, int dilation = 1,
                  const std::string& name = {});
  TensorId DepthwiseConv2d(TensorId in, int kernel, int stride,
                           Activation act = Activation::kNone,
                           Padding pad = Padding::kSame, int dilation = 1,
                           const std::string& name = {});
  TensorId FullyConnected(TensorId in, std::int64_t out_features,
                          Activation act = Activation::kNone,
                          const std::string& name = {});
  TensorId Add(TensorId a, TensorId b, const std::string& name = {});
  TensorId GlobalAvgPool(TensorId in, const std::string& name = {});
  TensorId ResizeBilinear(TensorId in, std::int64_t out_h, std::int64_t out_w,
                          const std::string& name = {});
  TensorId Concat(std::vector<TensorId> ins, int axis,
                  const std::string& name = {});
  TensorId Reshape(TensorId in, std::vector<std::int64_t> dims,
                   const std::string& name = {});
  TensorId Activate(TensorId in, Activation act,
                    const std::string& name = {});
  TensorId LayerNorm(TensorId in, const std::string& name = {});
  TensorId Embedding(TensorId token_ids, std::int64_t vocab,
                     std::int64_t dim, const std::string& name = {});
  TensorId MultiHeadAttention(TensorId in, int num_heads,
                              std::int64_t head_dim,
                              const std::string& name = {});
  // Fused LSTM layer over a [seq_len, features] sequence; output
  // [seq_len, hidden].  Weights: wx [4H, D], wh [4H, H], bias [4H]
  // (gate order: input, forget, cell, output).
  TensorId Lstm(TensorId in, std::int64_t hidden_dim,
                const std::string& name = {});

  // Marks a tensor as a graph output (callable multiple times).
  void MarkOutput(TensorId id);

  // Finalizes the graph.  The builder is left empty.
  [[nodiscard]] Graph Build() &&;

  // Shape of an intermediate tensor (handy while building models).  The
  // reference points into the builder's tensor table and is invalidated by
  // the next AddTensor/op call — copy it if you add tensors before using it.
  [[nodiscard]] const TensorShape& ShapeOf(TensorId id) const;

 private:
  TensorId AddTensor(std::string name, TensorShape shape, TensorKind kind);
  TensorId AddNode(OpType op, OpAttrs attrs, std::vector<TensorId> inputs,
                   std::vector<TensorId> weights, TensorShape out_shape,
                   const std::string& name);
  [[nodiscard]] std::string AutoName(OpType op, const std::string& given);

  Graph g_;
  std::int32_t op_counter_ = 0;
};

// Output spatial size for a conv window in one dimension.
[[nodiscard]] std::int64_t ConvOutDim(std::int64_t in, int kernel, int stride,
                                      int dilation, Padding pad);

}  // namespace mlpm::graph
