#include "infer/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <variant>

#include "common/fp16.h"
#include "common/thread_pool.h"
#include "graph/bounds.h"
#include "infer/node_runner.h"
#include "infer/op_math.h"
#include "infer/tiled_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlpm::infer {
namespace {

using graph::Activation;
using graph::Graph;
using graph::Node;
using graph::OpType;
using graph::TensorId;
using graph::TensorShape;

void RunFullyConnected(const graph::FullyConnectedAttrs& a, const Tensor& in,
                       const Tensor& w, const Tensor& bias, Tensor& out,
                       const kernels::KernelTable& kt) {
  const TensorShape& is = in.shape();
  const std::int64_t in_f = is.dim(is.rank() - 1);
  const std::int64_t out_f = a.out_features;
  const std::int64_t rows = is.elements() / in_f;
  const float* __restrict ip = in.data();
  const float* __restrict wp = w.data();  // [out_f, in_f]
  const float* __restrict bp = bias.data();
  float* __restrict op = out.data();
  // Rows go in pairs through the table's conv block entry (one tap at
  // offset 0), so four features share each input load and two rows each
  // weight load; the scalar table keeps the original per-element order
  // (bias first, then i ascending).  The out_f % 4 remainder features run
  // in the per-element loop below, and then the activation runs over the
  // pair's two contiguous rows at once.
  static constexpr std::int64_t kNoOffset = 0;
  const std::int64_t o_mid =
      out_f / kernels::kF32RowBlock * kernels::kF32RowBlock;
  for (std::int64_t r = 0; r < rows; r += 2) {
    const std::int64_t count = std::min<std::int64_t>(2, rows - r);
    const float* x0 = ip + r * in_f;
    const float* x1 = x0 + in_f;
    kt.conv_block_f32(&x0, count == 2 ? &x1 : nullptr, &kNoOffset, 1, wp,
                      in_f, in_f, o_mid, bp, op + r * out_f,
                      count == 2 ? op + (r + 1) * out_f : nullptr);
    for (std::int64_t q = r; q < r + count; ++q) {
      const float* row = ip + q * in_f;
      float* out_row = op + q * out_f;
      for (std::int64_t o = o_mid; o < out_f; ++o) {
        const float* wrow = wp + o * in_f;
        float acc = bp[o];
        for (std::int64_t i = 0; i < in_f; ++i) acc += row[i] * wrow[i];
        out_row[o] = acc;
      }
    }
    ApplyActivationInPlace(op + r * out_f, count * out_f, a.activation, kt);
  }
}

void RunGlobalAvgPool(const Tensor& in, Tensor& out) {
  const TensorShape& is = in.shape();
  const std::int64_t N = is.batch(), H = is.height(), W = is.width(),
                     C = is.channels();
  const float* ip = in.data();
  float* op = out.data();
  for (std::int64_t b = 0; b < N; ++b) {
    for (std::int64_t c = 0; c < C; ++c) {
      double acc = 0.0;
      for (std::int64_t h = 0; h < H; ++h)
        for (std::int64_t w = 0; w < W; ++w)
          acc += ip[((b * H + h) * W + w) * C + c];
      op[b * C + c] = static_cast<float>(acc / static_cast<double>(H * W));
    }
  }
}

void RunConcat(const Node& n, const std::vector<const Tensor*>& ins,
               Tensor& out) {
  const auto& a = std::get<graph::ConcatAttrs>(n.attrs);
  const TensorShape& os = out.shape();
  const auto rank = static_cast<int>(os.rank());
  const int ax = a.axis >= 0 ? a.axis : rank + a.axis;
  // outer = product of dims before axis; inner = product after.
  std::int64_t outer = 1, inner = 1;
  for (int d = 0; d < ax; ++d) outer *= os.dim(static_cast<std::size_t>(d));
  for (int d = ax + 1; d < rank; ++d)
    inner *= os.dim(static_cast<std::size_t>(d));

  float* op = out.data();
  std::int64_t axis_offset = 0;
  for (const Tensor* t : ins) {
    const std::int64_t t_axis = t->shape().dim(static_cast<std::size_t>(ax));
    const float* ip = t->data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const std::int64_t src = o * t_axis * inner;
      const std::int64_t dst =
          (o * os.dim(static_cast<std::size_t>(ax)) + axis_offset) * inner;
      std::copy_n(ip + src, t_axis * inner, op + dst);
    }
    axis_offset += t_axis;
  }
}

void RunLayerNorm(const graph::LayerNormAttrs& a, const Tensor& in,
                  const Tensor& gamma, const Tensor& beta, Tensor& out) {
  const TensorShape& s = in.shape();
  const std::int64_t d = s.dim(s.rank() - 1);
  const std::int64_t rows = s.elements() / d;
  const float* ip = in.data();
  const float* gp = gamma.data();
  const float* bp = beta.data();
  float* op = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = ip + r * d;
    double mean = 0.0;
    for (std::int64_t i = 0; i < d; ++i) mean += row[i];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::int64_t i = 0; i < d; ++i) {
      const double x = row[i] - mean;
      var += x * x;
    }
    var /= static_cast<double>(d);
    const double inv = 1.0 / std::sqrt(var + a.epsilon);
    float* orow = op + r * d;
    for (std::int64_t i = 0; i < d; ++i)
      orow[i] = static_cast<float>((row[i] - mean) * inv) * gp[i] + bp[i];
  }
}

void RunEmbedding(const graph::EmbeddingAttrs& a, const Tensor& ids,
                  const Tensor& table, Tensor& out) {
  const std::int64_t seq = ids.shape().dim(0);
  const float* tp = table.data();
  float* op = out.data();
  for (std::int64_t s = 0; s < seq; ++s) {
    auto id = static_cast<std::int64_t>(ids.data()[s]);
    id = std::clamp<std::int64_t>(id, 0, a.vocab_size - 1);
    std::copy_n(tp + id * a.embed_dim, a.embed_dim, op + s * a.embed_dim);
  }
}

// Multi-head self-attention over [S, D].  The four projections and both
// per-head products run on the table's matmul_f32, which sums every output
// in the scalar order; softmax and exp stay scalar.  The projection weights
// arrive prepacked as [in, out] (Executor::PackedWeightFor).
void RunAttention(const graph::AttentionAttrs& a, const Tensor& in,
                  const Tensor& wq, const Tensor& wk, const Tensor& wv,
                  const Tensor& wo, Tensor& out,
                  const kernels::KernelTable& kt) {
  const std::int64_t S = in.shape().dim(0);
  const std::int64_t D = in.shape().dim(1);
  const std::int64_t H = a.num_heads;
  const std::int64_t hd = a.head_dim;

  // r = x . W over the [S, D] input.
  const auto project = [&](const float* x, const Tensor& w, float* r) {
    kt.matmul_f32(x, D, w.data(), D, r, D, S, D, D);
  };
  const auto size = static_cast<std::size_t>(S * D);
  std::vector<float> q(size), k(size), v(size);
  project(in.data(), wq, q.data());
  project(in.data(), wk, k.data());
  project(in.data(), wv, v.data());
  // K transposed to [D, S]: head h's K^T is rows [h * hd, (h + 1) * hd).
  std::vector<float> k_t(size);
  for (std::int64_t j = 0; j < S; ++j)
    for (std::int64_t c = 0; c < D; ++c)
      k_t[static_cast<std::size_t>(c * S + j)] =
          k[static_cast<std::size_t>(j * D + c)];

  // Head by head, each writing its own ctx columns, through one S-row
  // scores and normalizer buffer.
  std::vector<float> ctx(size);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<float> scores(static_cast<std::size_t>(S * S));
  std::vector<float> inv(static_cast<std::size_t>(S));
  for (std::int64_t h = 0; h < H; ++h) {
    const std::int64_t off = h * hd;
    // scores_ij = q_i . k_j / sqrt(hd), softmaxed over j.
    kt.matmul_f32(q.data() + off, D, k_t.data() + off * S, S, scores.data(), S,
                  S, S, hd);
    for (std::int64_t r = 0; r < S; ++r) {
      float* row = scores.data() + r * S;
      float m = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < S; ++j) {
        row[j] *= inv_sqrt;
        m = std::max(m, row[j]);
      }
      double sum = 0.0;
      for (std::int64_t j = 0; j < S; ++j) {
        row[j] = std::exp(row[j] - m);
        sum += row[j];
      }
      inv[static_cast<std::size_t>(r)] = static_cast<float>(1.0 / sum);
    }
    float* c = ctx.data() + off;
    kt.matmul_f32(scores.data(), S, v.data() + off, D, c, D, S, hd, S);
    for (std::int64_t r = 0; r < S; ++r)
      for (std::int64_t d = 0; d < hd; ++d)
        c[r * D + d] *= inv[static_cast<std::size_t>(r)];
  }

  project(ctx.data(), wo, out.data());
}

void RunLstm(const graph::LstmAttrs& a, const Tensor& in, const Tensor& wx,
             const Tensor& wh, const Tensor& bias, Tensor& out) {
  const std::int64_t seq = in.shape().dim(0);
  const std::int64_t d = in.shape().dim(1);
  const std::int64_t h = a.hidden_dim;
  const float* xp = in.data();
  const float* wxp = wx.data();  // [4H, D]
  const float* whp = wh.data();  // [4H, H]
  const float* bp = bias.data();
  float* op = out.data();

  std::vector<float> hidden(static_cast<std::size_t>(h), 0.0f);
  std::vector<float> cell(static_cast<std::size_t>(h), 0.0f);
  std::vector<float> gates(static_cast<std::size_t>(4 * h));
  const auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };

  for (std::int64_t t = 0; t < seq; ++t) {
    const float* x = xp + t * d;
    for (std::int64_t g = 0; g < 4 * h; ++g) {
      float acc = bp[g];
      const float* wx_row = wxp + g * d;
      for (std::int64_t i = 0; i < d; ++i) acc += wx_row[i] * x[i];
      const float* wh_row = whp + g * h;
      for (std::int64_t i = 0; i < h; ++i)
        acc += wh_row[i] * hidden[static_cast<std::size_t>(i)];
      gates[static_cast<std::size_t>(g)] = acc;
    }
    // Gate order: input, forget, cell candidate, output.
    for (std::int64_t i = 0; i < h; ++i) {
      const float ig = sigmoid(gates[static_cast<std::size_t>(i)]);
      const float fg = sigmoid(gates[static_cast<std::size_t>(h + i)]);
      const float gg =
          kernels::TanhF32(gates[static_cast<std::size_t>(2 * h + i)]);
      const float og = sigmoid(gates[static_cast<std::size_t>(3 * h + i)]);
      auto& c = cell[static_cast<std::size_t>(i)];
      c = fg * c + ig * gg;
      const float hv = og * kernels::TanhF32(c);
      hidden[static_cast<std::size_t>(i)] = hv;
      op[t * h + i] = hv;
    }
  }
}

// Symmetric per-channel (or per-tensor) weight fake quantization; channel ==
// first dimension, matching the [out, ...] weight layouts used here.
void FakeQuantWeights(Tensor& t, bool per_channel, int bits) {
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);  // e.g. 127
  const std::int64_t channels =
      per_channel && t.shape().rank() > 1 ? t.shape().dim(0) : 1;
  const std::int64_t stride = static_cast<std::int64_t>(t.size()) / channels;
  float* p = t.data();
  for (std::int64_t c = 0; c < channels; ++c) {
    float* chan = p + c * stride;
    float amax = 0.0f;
    for (std::int64_t i = 0; i < stride; ++i)
      amax = std::max(amax, std::abs(chan[i]));
    if (amax == 0.0f) continue;
    const float scale = amax / qmax;
    for (std::int64_t i = 0; i < stride; ++i) {
      const float q = std::clamp(std::round(chan[i] / scale), -qmax, qmax);
      chan[i] = q * scale;
    }
  }
}

// The asymmetric uint grid FakeQuantActivation rounds onto, nudged so zero
// is exactly representable (TFLite requirement; keeps zero-padding exact).
// nullopt for a degenerate range, which passes values through unchanged.
struct ActivationGrid {
  float scale = 1.0f;
  float zp = 0.0f;
  float qmax = 0.0f;
};

std::optional<ActivationGrid> ActivationGridFor(const TensorRange& r,
                                                int bits) {
  const float lo = std::min(r.min, 0.0f);
  const float hi = std::max(r.max, 0.0f);
  if (hi - lo < 1e-12f) return std::nullopt;
  ActivationGrid g;
  g.qmax = static_cast<float>((1 << bits) - 1);  // 255
  g.scale = (hi - lo) / g.qmax;
  g.zp = std::round(-lo / g.scale);
  return g;
}

}  // namespace

float FakeQuantActivation(float v, const TensorRange& r, int bits) {
  const std::optional<ActivationGrid> g = ActivationGridFor(r, bits);
  if (!g) return v;
  const float q = std::clamp(std::round(v / g->scale) + g->zp, 0.0f, g->qmax);
  return (q - g->zp) * g->scale;
}

Executor::Executor(const Graph& graph, const WeightStore& weights,
                   NumericsMode mode, const QuantParams* quant,
                   kernels::KernelIsa isa, const TileOptions& tiling)
    : graph_(graph),
      mode_(mode),
      tile_plan_(BuildTilePlan(graph, tiling)),
      plan_(MemoryPlan::Build(graph,
                              tile_plan_.empty() ? nullptr : &tile_plan_)),
      kernels_(&kernels::KernelRegistry::Global().Select(isa)) {
  if (mode_ == NumericsMode::kInt8) {
    Expects(quant != nullptr, "INT8 execution requires QuantParams");
    quant_ = *quant;
  }
  prepared_weights_.resize(graph_.tensors().size());
  for (graph::TensorId id = 0;
       id < static_cast<graph::TensorId>(graph_.tensors().size()); ++id) {
    const auto& info = graph_.tensor(id);
    if (info.kind != graph::TensorKind::kWeight) continue;
    auto t = std::make_unique<Tensor>(weights.Get(info.name));
    const bool is_bias_like = info.shape.rank() == 1;
    switch (mode_) {
      case NumericsMode::kFp32:
        break;
      case NumericsMode::kFp16:
        for (float& v : t->values()) v = RoundToHalf(v);
        break;
      case NumericsMode::kInt8:
        // Biases stay high precision (INT32 accumulators on real hardware).
        if (!is_bias_like)
          FakeQuantWeights(*t, quant_.per_channel_weights, quant_.weight_bits);
        break;
    }
    prepared_weights_[static_cast<std::size_t>(id)] = std::move(t);
  }
  // Prepack after the numerics transform, so values are the prepared ones;
  // a pure layout change — every table reads the same values.  Depthwise
  // weights go [C,KH,KW] -> [KH,KW,C] (channel-contiguous taps); attention
  // projections go [out, in] -> [in, out] (matmul_f32's row-major b).
  packed_weights_.resize(graph_.tensors().size());
  const auto pack = [&](TensorId wid, const TensorShape& packed_shape,
                        std::int64_t rows, std::int64_t cols,
                        const auto& index) {
    auto& slot = packed_weights_[static_cast<std::size_t>(wid)];
    if (slot != nullptr) return;
    const Tensor& src = WeightFor(wid);
    slot = std::make_unique<Tensor>(packed_shape);
    const float* sp = src.data();
    float* dp = slot->data();
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < cols; ++c)
        dp[index(r, c)] = sp[r * cols + c];
  };
  for (const Node& n : graph_.nodes()) {
    if (n.op == OpType::kDepthwiseConv2d) {
      const auto& a = std::get<graph::DepthwiseConv2dAttrs>(n.attrs);
      const std::int64_t taps = a.kernel_h * a.kernel_w;
      const std::int64_t c =
          static_cast<std::int64_t>(WeightFor(n.weights[0]).size()) / taps;
      pack(n.weights[0], TensorShape({a.kernel_h, a.kernel_w, c}), c, taps,
           [&](std::int64_t ch, std::int64_t t) { return t * c + ch; });
    } else if (n.op == OpType::kMultiHeadAttention) {
      for (const TensorId wid : n.weights) {
        const std::int64_t d = WeightFor(wid).shape().dim(0);
        pack(wid, TensorShape({d, d}), d, d,
             [&](std::int64_t o, std::int64_t i) { return i * d + o; });
      }
    }
  }
}

KernelDispatchCounts Executor::dispatch_counts() const {
  KernelDispatchCounts counts;
  counts.conv2d = dispatch_counts_[0].load(std::memory_order_relaxed);
  counts.depthwise_conv2d = dispatch_counts_[1].load(std::memory_order_relaxed);
  counts.fully_connected = dispatch_counts_[2].load(std::memory_order_relaxed);
  return counts;
}

const Tensor& Executor::WeightFor(TensorId id) const {
  const auto& p = prepared_weights_[static_cast<std::size_t>(id)];
  Expects(p != nullptr, "missing prepared weight");
  return *p;
}

const Tensor& Executor::PackedWeightFor(TensorId id) const {
  const auto& p = packed_weights_[static_cast<std::size_t>(id)];
  Expects(p != nullptr, "missing packed weight");
  return *p;
}

namespace {

// The whole-op form of a row-band kernel: every batch image of the output
// shape `s` is one full-height band.  `kernel(image, band)` fills output
// rows [band.origin, band.origin + band.rows) of that image.
template <typename Kernel>
void RunBands(float* out, const TensorShape& s, const Kernel& kernel) {
  const std::int64_t h = s.height();
  const std::int64_t image_elems = h * s.width() * s.channels();
  for (std::int64_t b = 0; b < s.batch(); ++b)
    kernel(b, MutableRowBand{out + b * image_elems, 0, h, h, s.width(),
                             s.channels()});
}

// A tensor of any rank viewed as one image of single-element rows, so the
// elementwise band kernels run over it as one flat loop.
RowBand FlatBand(const Tensor& t) {
  const auto n = static_cast<std::int64_t>(t.size());
  return RowBand{t.data(), 0, n, n, 1, 1};
}

// Simulates a node's output numerics in place over `vals` — a whole tensor
// or one tile band: fp16 rounding, or activation fake-quantization where
// calibration recorded a range, on the table's scalar-order entries (the
// same bits as RoundToHalf / FakeQuantActivation on every table).  Both are
// elementwise, so a tile band gets the values the whole tensor would.
void ApplyOutputNumerics(NumericsMode mode, const QuantParams& quant,
                         TensorId output_id, std::span<float> vals,
                         const kernels::KernelTable& kt) {
  if (mode == NumericsMode::kFp32) return;
  std::optional<ActivationGrid> grid;
  if (mode == NumericsMode::kInt8) {
    const auto it = quant.activation_ranges.find(output_id);
    if (it == quant.activation_ranges.end()) return;
    grid = ActivationGridFor(it->second, quant.activation_bits);
    if (!grid) return;
  }
  const auto n = static_cast<std::int64_t>(vals.size());
  if (grid) {
    kt.fake_quant_f32(vals.data(), n, grid->scale, grid->zp, grid->qmax);
  } else {
    kt.round_half_f32(vals.data(), n);
  }
}

// Per-node tracing: one complete span per executed node on the calling
// thread's lane, guarded by a single relaxed atomic load when disabled
// (bit-identical outputs either way — tracing only reads timestamps, never
// tensors).
void TraceNode(obs::TraceRecorder& rec, const Graph& graph, const Node& node,
               const Tensor& out, double t0_us, double t1_us,
               const MemoryPlan& plan) {
  std::vector<obs::TraceArg> args;
  args.reserve(3);
  args.push_back(obs::Arg("tensor", graph.tensor(node.output).name));
  args.push_back(obs::Arg("bytes", out.size() * sizeof(float)));
  const TensorPlacement& p =
      plan.placements()[static_cast<std::size_t>(node.output)];
  if (p.kind != PlacementKind::kUnplanned)
    args.push_back(obs::Arg("arena_offset", p.offset * sizeof(float)));
  rec.AddComplete(obs::Domain::kHost, {},
                  std::string(graph::ToString(node.op)), t0_us,
                  t1_us - t0_us, std::move(args), "node");
}

}  // namespace

namespace internal {

void NodeRunner::CountDispatch(const Executor& exec, OpType op) {
  std::size_t family = 0;
  switch (op) {
    case OpType::kConv2d: family = 0; break;
    case OpType::kDepthwiseConv2d: family = 1; break;
    case OpType::kFullyConnected: family = 2; break;
    default: return;
  }
  exec.dispatch_counts_[family].fetch_add(1, std::memory_order_relaxed);
}

void NodeRunner::RunBand(const Executor& exec, const Node& n,
                         const RowBand& in, const RowBand& y,
                         const MutableRowBand& out) {
  const kernels::KernelTable& kt = *exec.kernels_;
  switch (n.op) {
    case OpType::kConv2d:
      RunConv2dRows(std::get<graph::Conv2dAttrs>(n.attrs), in,
                    exec.WeightFor(n.weights[0]), exec.WeightFor(n.weights[1]),
                    out, kt);
      break;
    case OpType::kDepthwiseConv2d:
      RunDepthwiseConv2dRows(std::get<graph::DepthwiseConv2dAttrs>(n.attrs),
                             in, exec.PackedWeightFor(n.weights[0]),
                             exec.WeightFor(n.weights[1]), out, kt);
      break;
    case OpType::kAdd:
      RunAddRows(in, y, out);
      break;
    case OpType::kActivation:
      RunActivationRows(std::get<graph::ActivationAttrs>(n.attrs).activation,
                        in, out, kt);
      break;
    case OpType::kResizeBilinear:
      RunResizeBilinearRows(in, out);
      break;
    default:
      Expects(false, "op has no row-band kernel");
  }
}

void NodeRunner::Run(const Executor& exec, const Node& n,
                     const TensorFetch& fetch, Tensor& out,
                     const NodeObserver& observer) {
  CountDispatch(exec, n.op);
  const auto weight = [&](std::size_t k) -> const Tensor& {
    return exec.WeightFor(n.weights[k]);
  };

  switch (n.op) {
    case OpType::kInput:
      break;
    case OpType::kConv2d:
    case OpType::kDepthwiseConv2d:
    case OpType::kResizeBilinear: {
      const Tensor& in = fetch(n.inputs[0]);
      RunBands(out.data(), out.shape(),
               [&](std::int64_t image, const MutableRowBand& band) {
                 RunBand(exec, n, FullBand(in, image), {}, band);
               });
      break;
    }
    case OpType::kAdd:
    case OpType::kActivation: {
      const RowBand x = FlatBand(fetch(n.inputs[0]));
      const RowBand y = n.op == OpType::kActivation
                            ? RowBand{}
                            : FlatBand(fetch(n.inputs[1]));
      const auto size = static_cast<std::int64_t>(out.size());
      RunBand(exec, n, x, y, MutableRowBand{out.data(), 0, size, size, 1, 1});
      break;
    }
    case OpType::kFullyConnected:
      RunFullyConnected(std::get<graph::FullyConnectedAttrs>(n.attrs),
                        fetch(n.inputs[0]), weight(0), weight(1), out,
                        *exec.kernels_);
      break;
    case OpType::kGlobalAvgPool:
      RunGlobalAvgPool(fetch(n.inputs[0]), out);
      break;
    case OpType::kConcat: {
      std::vector<const Tensor*> ins;
      ins.reserve(n.inputs.size());
      for (TensorId t : n.inputs) ins.push_back(&fetch(t));
      RunConcat(n, ins, out);
      break;
    }
    case OpType::kReshape: {
      const Tensor& x = fetch(n.inputs[0]);
      // Aliased reshape: the output *is* the input buffer.
      if (x.data() != out.data())
        std::copy_n(x.data(), x.size(), out.data());
      break;
    }
    case OpType::kLayerNorm:
      RunLayerNorm(std::get<graph::LayerNormAttrs>(n.attrs),
                   fetch(n.inputs[0]), weight(0), weight(1), out);
      break;
    case OpType::kEmbeddingLookup:
      RunEmbedding(std::get<graph::EmbeddingAttrs>(n.attrs),
                   fetch(n.inputs[0]), weight(0), out);
      break;
    case OpType::kMultiHeadAttention:
      RunAttention(std::get<graph::AttentionAttrs>(n.attrs),
                   fetch(n.inputs[0]), exec.PackedWeightFor(n.weights[0]),
                   exec.PackedWeightFor(n.weights[1]),
                   exec.PackedWeightFor(n.weights[2]),
                   exec.PackedWeightFor(n.weights[3]), out, *exec.kernels_);
      break;
    case OpType::kLstm:
      RunLstm(std::get<graph::LstmAttrs>(n.attrs), fetch(n.inputs[0]),
              weight(0), weight(1), weight(2), out);
      break;
  }
  if (observer) observer(n.output, out);
  ApplyOutputNumerics(exec.mode_, exec.quant_, n.output, out.values(),
                      *exec.kernels_);
}

// The segment's output rows are cut into row bands, and each band is
// produced by walking the chain front-to-back through one slab that holds
// only the tile-sized slice of every interior tensor.  Input row ranges
// come from graph::InferInputBounds walked tail-to-head, so every band
// reads exactly the rows it needs — bit-identical to untiled execution
// because each output element sees the identical kernel calls on identical
// data (tiled_ops.h).
void NodeRunner::RunSegment(const Executor& exec, std::size_t seg_idx,
                            const TensorFetch& fetch, Tensor& seg_out) {
  const Graph& g = exec.graph_;
  const TileSegment& s = exec.tile_plan_.segments[seg_idx];
  const int n_nodes = static_cast<int>(s.last_node - s.first_node + 1);
  // Dispatch counters tick once per node per run (not per tile), matching
  // untiled execution so profiles stay comparable.
  for (std::int32_t m = s.first_node; m <= s.last_node; ++m)
    CountDispatch(exec, g.nodes()[static_cast<std::size_t>(m)].op);

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  // One slab for every tile: each interior tensor's tile slice, packed at
  // the planner's aligned offsets.
  std::vector<float> slab(s.slab_elements);
  std::vector<graph::Interval> out_rows(static_cast<std::size_t>(n_nodes));
  for (std::int64_t t = 0; t < s.tile_count(); ++t) {
    const bool traced = rec.enabled();
    const double t0_us = traced ? rec.NowUs() : 0.0;
    const std::int64_t r0 = t * s.tile_rows;
    const std::int64_t r1 = std::min(r0 + s.tile_rows, s.out_rows);
    // Tail-to-head bounds inference: node j must produce the rows node
    // j+1 consumes.
    out_rows[static_cast<std::size_t>(n_nodes - 1)] = {r0, r1};
    for (int j = n_nodes - 1; j > 0; --j) {
      const Node& n = g.nodes()[static_cast<std::size_t>(s.first_node + j)];
      const graph::TensorShape& ish = g.tensor(n.inputs[0]).shape;
      const graph::TensorShape& osh = g.tensor(n.output).shape;
      graph::Box crop = graph::Box::FromShape(osh);
      crop.dims[1] = out_rows[static_cast<std::size_t>(j)];
      out_rows[static_cast<std::size_t>(j - 1)] =
          graph::InferInputBounds(n, ish, osh, crop).dims[1];
    }
    // Head-to-tail execution over the inferred bands.
    for (int j = 0; j < n_nodes; ++j) {
      const Node& n = g.nodes()[static_cast<std::size_t>(s.first_node + j)];
      const graph::TensorShape& osh = g.tensor(n.output).shape;
      const graph::Interval rows = out_rows[static_cast<std::size_t>(j)];
      RowBand in_band;
      if (j == 0) {
        in_band = FullBand(fetch(n.inputs[0]));
      } else {
        const graph::TensorShape& ish = g.tensor(n.inputs[0]).shape;
        const graph::Interval in_rows =
            out_rows[static_cast<std::size_t>(j - 1)];
        in_band = RowBand{slab.data() + s.slab_offsets[j - 1],
                          in_rows.begin, in_rows.length(), ish.height(),
                          ish.width(), ish.channels()};
      }
      MutableRowBand out_band;
      if (j == n_nodes - 1) {
        out_band = MutableRowBand{
            seg_out.data() + rows.begin * osh.width() * osh.channels(),
            rows.begin, rows.length(), osh.height(), osh.width(),
            osh.channels()};
      } else {
        Expects(rows.length() <= s.slab_rows[static_cast<std::size_t>(j)],
                "tile band exceeds planned slab rows");
        out_band = MutableRowBand{slab.data() + s.slab_offsets[j],
                                  rows.begin, rows.length(), osh.height(),
                                  osh.width(), osh.channels()};
      }
      // An add's second operand is exterior to the segment and fully
      // materialized.
      RunBand(exec, n, in_band,
              n.op == OpType::kAdd ? FullBand(fetch(n.inputs[1])) : RowBand{},
              out_band);
      ApplyOutputNumerics(
          exec.mode_, exec.quant_, n.output,
          {out_band.data, static_cast<std::size_t>(
                              out_band.rows * osh.width() * osh.channels())},
          *exec.kernels_);
    }
    if (traced) {
      std::vector<obs::TraceArg> args;
      args.reserve(2);
      args.push_back(obs::Arg("segment", static_cast<int>(seg_idx)));
      args.push_back(
          obs::Arg("rows", std::to_string(r0) + ":" + std::to_string(r1)));
      rec.AddComplete(obs::Domain::kHost, {}, "tile", t0_us,
                      rec.NowUs() - t0_us, std::move(args), "tile");
    }
  }
}

}  // namespace internal

ExecutionContext::ExecutionContext(const Executor& executor)
    : plan_(&executor.memory_plan()),
      arena_(plan_->arena_elements(), 0.0f),
      slots_(executor.graph().tensors().size()),
      external_(executor.graph().tensors().size(), nullptr) {
  obs::MetricsRegistry::Global().MaxGauge(
      "infer.arena_bytes", static_cast<double>(plan_->peak_arena_bytes()));
  const Graph& g = executor.graph();
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    const TensorPlacement& p = plan_->placements()[id];
    // Tile-slab tensors have no arena storage: the tiled executor
    // materializes them band-by-band in a per-run slab.
    if (p.kind == PlacementKind::kUnplanned ||
        p.kind == PlacementKind::kTileSlab)
      continue;
    slots_[id] = Tensor::View(g.tensor(static_cast<TensorId>(id)).shape,
                              arena_.data() + p.offset);
  }
}

std::vector<Tensor> Executor::Run(std::span<const Tensor> inputs) const {
  ExecutionContext ctx(*this);
  return Run(inputs, ctx);
}

std::vector<Tensor> Executor::Run(std::span<const Tensor> inputs,
                                  ExecutionContext& ctx,
                                  const NodeObserver& observer) const {
  Expects(ctx.plan_ == &plan_,
          "execution context belongs to a different executor");
  Expects(inputs.size() == graph_.input_ids().size(),
          "wrong number of graph inputs");
  // Tiled segments never materialize their interiors, so an observer
  // (calibration) could not see every node output.
  Expects(!observer || !tiled(),
          "a node observer requires an executor built without tiling");
  std::fill(ctx.external_.begin(), ctx.external_.end(), nullptr);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const TensorId id = graph_.input_ids()[i];
    Expects(inputs[i].shape() == graph_.tensor(id).shape, [&] {
      return "input shape mismatch for " + graph_.tensor(id).name;
    });
    ctx.external_[static_cast<std::size_t>(id)] = &inputs[i];
  }

  const internal::TensorFetch fetch = [&](TensorId id) -> const Tensor& {
    if (const Tensor* ext = ctx.external_[static_cast<std::size_t>(id)])
      return *ext;
    const Tensor& slot = ctx.slots_[static_cast<std::size_t>(id)];
    Expects(slot.is_view(), [&] {
      return "use of unplanned tensor " + graph_.tensor(id).name;
    });
    return slot;
  };

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const auto& nodes = graph_.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.op == OpType::kInput) continue;
    const bool traced = rec.enabled();
    const double t0_us = traced ? rec.NowUs() : 0.0;
    const std::int32_t seg = tiled() ? tile_plan_.segment_of_node[i] : -1;
    if (seg >= 0) {
      // Segment head: run the whole fused chain tile-by-tile, then jump
      // past its tail (interiors never execute as standalone nodes).
      const TileSegment& s =
          tile_plan_.segments[static_cast<std::size_t>(seg)];
      const Node& tail = nodes[static_cast<std::size_t>(s.last_node)];
      internal::NodeRunner::RunSegment(
          *this, static_cast<std::size_t>(seg), fetch,
          ctx.slots_[static_cast<std::size_t>(tail.output)]);
      if (traced) {
        std::vector<obs::TraceArg> args;
        args.reserve(3);
        args.push_back(obs::Arg("tensor", graph_.tensor(tail.output).name));
        args.push_back(obs::Arg(
            "nodes", static_cast<int>(s.last_node - s.first_node + 1)));
        args.push_back(obs::Arg("tiles", static_cast<int>(s.tile_count())));
        rec.AddComplete(obs::Domain::kHost, {}, "tiled_segment", t0_us,
                        rec.NowUs() - t0_us, std::move(args), "node");
      }
      i = static_cast<std::size_t>(s.last_node);
      continue;
    }
    Tensor& out = ctx.slots_[static_cast<std::size_t>(n.output)];
    internal::NodeRunner::Run(*this, n, fetch, out, observer);
    if (traced) TraceNode(rec, graph_, n, out, t0_us, rec.NowUs(), plan_);
  }

  // Detach outputs from the arena: the caller keeps them, the arena is
  // overwritten by the next sample.
  std::vector<Tensor> outputs;
  outputs.reserve(graph_.output_ids().size());
  for (TensorId id : graph_.output_ids()) outputs.push_back(fetch(id).Clone());
  return outputs;
}

std::vector<std::vector<Tensor>> RunSamplesParallel(
    const Executor& executor, std::size_t count,
    const std::function<SampleInputs(std::size_t)>& inputs_for,
    const ThreadPool* pool) {
  std::vector<std::vector<Tensor>> results(count);
  // One arena context per lane: each lane allocates its arena once and
  // reuses it for every sample it claims, so the steady state does no
  // per-sample activation allocation.
  ParallelForEachItem(pool, count, [&](ItemClaims& next) {
    ExecutionContext ctx = executor.CreateContext();
    while (const std::optional<std::size_t> i = next()) {
      const SampleInputs inputs = inputs_for(*i);
      results[*i] = executor.Run(
          std::visit(
              [](const auto& v) { return std::span<const Tensor>(v); },
              inputs),
          ctx);
    }
  });
  return results;
}

}  // namespace mlpm::infer
