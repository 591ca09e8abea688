// Operator vocabulary of the graph IR.
//
// The set covers what the five MLPerf Mobile reference models need (paper
// §3.2): inverted-bottleneck CNNs (MobileNetEdgeTPU, MobileNet v2, MobileDet),
// SSDLite detection heads, DeepLab v3+ ASPP/decoder, and MobileBERT
// transformer blocks.  Attention is a fused op — the executor and the cost
// model both understand its internal structure, which keeps the IR free of
// generic transpose/batched-matmul plumbing the models don't otherwise need.
#pragma once

#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

namespace mlpm::graph {

enum class OpType : std::uint8_t {
  kInput,
  kConv2d,
  kDepthwiseConv2d,
  kFullyConnected,
  kAdd,            // elementwise, used for residual connections
  kGlobalAvgPool,
  kResizeBilinear,
  kConcat,
  kReshape,
  kActivation,     // standalone activation
  kLayerNorm,
  kEmbeddingLookup,
  kMultiHeadAttention,
  kLstm,  // fused unidirectional LSTM layer over a sequence
};

// Activations that may be fused into conv / fc nodes (TFLite-style).
enum class Activation : std::uint8_t {
  kNone,
  kRelu,
  kRelu6,
  kSigmoid,
  kTanh,
  kGelu,
};

// Coarse operator classes the SoC cost model keys its efficiency tables on.
// (A DSP is great at dense INT8 conv but poor at attention; a GPU is the
// reverse — paper §7.5.)
enum class OpClass : std::uint8_t {
  kConvDense,      // regular convolution / pointwise 1x1
  kConvDepthwise,  // depthwise convolution (bandwidth-bound)
  kGemm,           // fully connected / attention projections
  kAttention,      // softmax(QK^T)V core
  kElementwise,    // add/activation/norm/resize/global pool
  kMemory,         // reshape/concat/embedding (pure data movement)
};

enum class Padding : std::uint8_t { kSame, kValid };

struct Conv2dAttrs {
  std::int64_t out_channels = 0;
  int kernel_h = 1;
  int kernel_w = 1;
  int stride = 1;
  int dilation = 1;
  Padding padding = Padding::kSame;
  Activation activation = Activation::kNone;
};

struct DepthwiseConv2dAttrs {
  int kernel_h = 3;
  int kernel_w = 3;
  int stride = 1;
  int dilation = 1;
  Padding padding = Padding::kSame;
  Activation activation = Activation::kNone;
};

struct FullyConnectedAttrs {
  std::int64_t out_features = 0;
  Activation activation = Activation::kNone;
};

struct ResizeAttrs {
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;
};

struct ConcatAttrs {
  int axis = -1;  // negative axes count from the back
};

struct ReshapeAttrs {
  std::vector<std::int64_t> new_dims;
};

struct ActivationAttrs {
  Activation activation = Activation::kRelu;
};

struct LayerNormAttrs {
  double epsilon = 1e-6;
};

struct EmbeddingAttrs {
  std::int64_t vocab_size = 0;
  std::int64_t embed_dim = 0;
};

struct AttentionAttrs {
  int num_heads = 1;
  std::int64_t head_dim = 0;  // per-head dimension; model dim = heads*head_dim
};

struct LstmAttrs {
  std::int64_t hidden_dim = 0;
};

struct EmptyAttrs {};

using OpAttrs =
    std::variant<EmptyAttrs, Conv2dAttrs, DepthwiseConv2dAttrs,
                 FullyConnectedAttrs, ResizeAttrs, ConcatAttrs, ReshapeAttrs,
                 ActivationAttrs, LayerNormAttrs, EmbeddingAttrs,
                 AttentionAttrs, LstmAttrs>;

[[nodiscard]] std::string_view ToString(OpType t);
[[nodiscard]] std::string_view ToString(OpClass c);

// The coarse class an op belongs to for cost-model purposes.  Depthwise and
// dense convolutions are split because their arithmetic intensity differs by
// an order of magnitude.
[[nodiscard]] OpClass ClassOf(OpType t);

}  // namespace mlpm::graph
