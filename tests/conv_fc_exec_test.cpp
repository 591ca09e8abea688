// Conv and fully-connected nodes through Executor::Run against the engine's
// loops as they were before the kernel table's `conv_block_f32` entry:
// one `dot4_f32` call per output pixel or row, per block of four output
// channels and per tap, with the OC % 4 remainder in scalar order.  The
// entry promises exactly those bits (DESIGN.md §13), so every case below
// compares bit patterns, on the scalar table and on the host's best one,
// untiled and tiled.
//
// CI also runs this binary from a tree built whole with -mavx2 -mfma, where
// the reference below is compiled with other code than the engine's own.
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "graph/bounds.h"
#include "graph/graph.h"
#include "infer/executor.h"
#include "infer/kernels/registry.h"
#include "infer/op_math.h"
#include "infer/weights.h"

namespace mlpm {
namespace {

using graph::Activation;
using graph::Padding;
using infer::Tensor;
using infer::kernels::KernelIsa;
using infer::kernels::KernelTable;

constexpr Activation kActivations[] = {
    Activation::kNone,    Activation::kRelu, Activation::kRelu6,
    Activation::kSigmoid, Activation::kTanh, Activation::kGelu};

// The per-tap conv loop over whole NHWC tensors, image by image.
void ReferenceConv2d(const graph::Conv2dAttrs& a, const Tensor& in,
                     const Tensor& w, const Tensor& bias, Tensor& out,
                     const KernelTable& kt) {
  const graph::TensorShape& is = in.shape();
  const graph::TensorShape& os = out.shape();
  const std::int64_t IH = is.height(), IW = is.width(), IC = is.channels();
  const std::int64_t OH = os.height(), OW = os.width(), OC = os.channels();
  const std::int64_t ph =
      graph::SamePadBegin(IH, OH, a.kernel_h, a.stride, a.dilation, a.padding);
  const std::int64_t pw =
      graph::SamePadBegin(IW, OW, a.kernel_w, a.stride, a.dilation, a.padding);
  const float* wp = w.data();
  const float* bp = bias.data();
  for (std::int64_t n = 0; n < is.batch(); ++n) {
    const float* ip = in.data() + n * IH * IW * IC;
    float* op = out.data() + n * OH * OW * OC;
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        float* out_px = op + (oh * OW + ow) * OC;
        std::int64_t oc = 0;
        for (; oc + 4 <= OC; oc += 4) {
          float acc[4] = {bp[oc], bp[oc + 1], bp[oc + 2], bp[oc + 3]};
          for (int kh = 0; kh < a.kernel_h; ++kh) {
            const std::int64_t ih = oh * a.stride - ph +
                                    static_cast<std::int64_t>(kh) * a.dilation;
            if (ih < 0 || ih >= IH) continue;
            for (int kw = 0; kw < a.kernel_w; ++kw) {
              const std::int64_t iw =
                  ow * a.stride - pw +
                  static_cast<std::int64_t>(kw) * a.dilation;
              if (iw < 0 || iw >= IW) continue;
              const float* in_px = ip + (ih * IW + iw) * IC;
              const std::int64_t woff =
                  (static_cast<std::int64_t>(kh) * a.kernel_w + kw) * IC;
              const std::int64_t wstride =
                  static_cast<std::int64_t>(a.kernel_h) * a.kernel_w * IC;
              const float* w0 = wp + oc * wstride + woff;
              kt.dot4_f32(in_px, w0, w0 + wstride, w0 + 2 * wstride,
                          w0 + 3 * wstride, IC, acc);
            }
          }
          for (int r = 0; r < 4; ++r)
            out_px[oc + r] = infer::ApplyActivation(acc[r], a.activation);
        }
        for (; oc < OC; ++oc) {
          float acc = bp[oc];
          for (int kh = 0; kh < a.kernel_h; ++kh) {
            const std::int64_t ih = oh * a.stride - ph +
                                    static_cast<std::int64_t>(kh) * a.dilation;
            if (ih < 0 || ih >= IH) continue;
            for (int kw = 0; kw < a.kernel_w; ++kw) {
              const std::int64_t iw =
                  ow * a.stride - pw +
                  static_cast<std::int64_t>(kw) * a.dilation;
              if (iw < 0 || iw >= IW) continue;
              const float* in_px = ip + (ih * IW + iw) * IC;
              const float* w_px =
                  wp + ((oc * a.kernel_h + kh) * a.kernel_w + kw) * IC;
              for (std::int64_t ic = 0; ic < IC; ++ic)
                acc += in_px[ic] * w_px[ic];
            }
          }
          out_px[oc] = infer::ApplyActivation(acc, a.activation);
        }
      }
    }
  }
}

// The per-row FC loop: one dot4 call per row and block of four features.
void ReferenceFullyConnected(const graph::FullyConnectedAttrs& a,
                             const Tensor& in, const Tensor& w,
                             const Tensor& bias, Tensor& out,
                             const KernelTable& kt) {
  const graph::TensorShape& is = in.shape();
  const std::int64_t in_f = is.dim(is.rank() - 1);
  const std::int64_t out_f = a.out_features;
  const std::int64_t rows = is.elements() / in_f;
  const float* wp = w.data();
  const float* bp = bias.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = in.data() + r * in_f;
    float* out_row = out.data() + r * out_f;
    std::int64_t o = 0;
    for (; o + 4 <= out_f; o += 4) {
      const float* w0 = wp + o * in_f;
      float acc[4] = {bp[o], bp[o + 1], bp[o + 2], bp[o + 3]};
      kt.dot4_f32(row, w0, w0 + in_f, w0 + 2 * in_f, w0 + 3 * in_f, in_f,
                  acc);
      for (int k = 0; k < 4; ++k)
        out_row[o + k] = infer::ApplyActivation(acc[k], a.activation);
    }
    for (; o < out_f; ++o) {
      const float* wrow = wp + o * in_f;
      float acc = bp[o];
      for (std::int64_t i = 0; i < in_f; ++i) acc += row[i] * wrow[i];
      out_row[o] = infer::ApplyActivation(acc, a.activation);
    }
  }
}

// Runs every node of a conv/FC-only graph through the references above.
Tensor RunReference(const graph::Graph& g, const infer::WeightStore& ws,
                    const Tensor& input, const KernelTable& kt) {
  std::vector<Tensor> values(g.tensors().size());
  values[static_cast<std::size_t>(g.input_ids()[0])] = input.Clone();
  for (const graph::Node& n : g.nodes()) {
    if (n.op == graph::OpType::kInput) continue;
    const Tensor& in = values[static_cast<std::size_t>(n.inputs[0])];
    const Tensor& w = ws.Get(g.tensor(n.weights[0]).name);
    const Tensor& b = ws.Get(g.tensor(n.weights[1]).name);
    Tensor out(g.tensor(n.output).shape);
    if (n.op == graph::OpType::kConv2d) {
      ReferenceConv2d(std::get<graph::Conv2dAttrs>(n.attrs), in, w, b, out,
                      kt);
    } else {
      Expects(n.op == graph::OpType::kFullyConnected,
              "the reference runs conv and FC nodes only");
      ReferenceFullyConnected(std::get<graph::FullyConnectedAttrs>(n.attrs),
                              in, w, b, out, kt);
    }
    values[static_cast<std::size_t>(n.output)] = std::move(out);
  }
  return std::move(values[static_cast<std::size_t>(g.output_ids()[0])]);
}

Tensor RandomInput(const graph::Graph& g, std::uint64_t seed,
                   double range) {
  Tensor t(g.tensor(g.input_ids()[0]).shape);
  Rng rng(seed);
  for (float& v : t.values())
    v = static_cast<float>(rng.NextUniform(-range, range));
  return t;
}

void ExpectSameBits(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want.at(i)),
              std::bit_cast<std::uint32_t>(got.at(i)))
        << what << " element " << i;
}

// Runs `g` at kScalar and kAuto against the reference on the executor's
// own table, on inputs drawn from [-input_range, input_range].
void ExpectExecutorMatchesReference(const graph::Graph& g,
                                    std::uint64_t seed,
                                    const infer::TileOptions& tiling,
                                    const std::string& what,
                                    double input_range = 1.0) {
  const infer::WeightStore ws = infer::InitializeWeights(g, seed);
  const Tensor input = RandomInput(g, seed + 1, input_range);
  const std::vector<Tensor> inputs = {input.Clone()};
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAuto}) {
    const infer::Executor exec(g, ws, infer::NumericsMode::kFp32, nullptr,
                               isa, tiling);
    if (tiling.enabled) {
      ASSERT_TRUE(exec.tiled()) << what;
    }
    const std::string at = what + " on " + exec.kernels().name;
    const Tensor want = RunReference(g, ws, input, exec.kernels());
    infer::ExecutionContext ctx = exec.CreateContext();
    ExpectSameBits(want, exec.Run(inputs, ctx)[0], at);
  }
}

// One conv node per case: kernels 1x1, 3x3 and 5x5 (and one 7x7, 49 taps),
// stride and dilation 1 and 2, same and valid padding, odd and even widths,
// IC 3, 8, 12 and 16 (the AVX2 entry pairs positions only at IC % 8 == 0),
// OC 4, 12 and 16, every activation, batch 1 and 2.
TEST(ConvFcExecution, ConvMatchesPerTapReference) {
  int index = 0;
  for (const int kernel : {1, 3, 5})
    for (const int stride : {1, 2})
      for (const int dilation : {1, 2})
        for (const Padding pad : {Padding::kSame, Padding::kValid})
          for (const std::int64_t width : {9, 10})
            for (const std::int64_t ic : {3, 8, 12, 16})
              for (const std::int64_t oc : {4, 12, 16}) {
                ++index;
                const Activation act = kActivations[index % 6];
                const std::int64_t batch = 1 + (index / 7) % 2;
                graph::GraphBuilder b("conv");
                const auto in =
                    b.Input("in", graph::TensorShape({batch, 11, width, ic}));
                b.MarkOutput(b.Conv2d(in, oc, kernel, stride, act, pad,
                                      dilation));
                std::ostringstream what;
                what << "k" << kernel << " s" << stride << " d" << dilation
                     << (pad == Padding::kSame ? " same" : " valid") << " w"
                     << width << " ic" << ic << " oc" << oc << " act"
                     << static_cast<int>(act) << " n" << batch;
                ASSERT_NO_FATAL_FAILURE(ExpectExecutorMatchesReference(
                    std::move(b).Build(), static_cast<std::uint64_t>(index),
                    {}, what.str()));
              }
  graph::GraphBuilder b("conv7");
  const auto in = b.Input("in", graph::TensorShape({1, 9, 8, 8}));
  b.MarkOutput(b.Conv2d(in, 12, 7, 1, Activation::kRelu));
  ExpectExecutorMatchesReference(std::move(b).Build(), 7, {}, "k7");
}

// A fusable conv chain runs band by band through the tile slabs; each band
// boundary splits pixel pairs differently than a whole-op run does.
TEST(ConvFcExecution, TiledConvChainMatchesPerTapReference) {
  for (const std::int64_t ic : {3, 8, 12}) {
    graph::GraphBuilder b("chain");
    auto x = b.Input("in", graph::TensorShape({1, 13, 11, ic}));
    x = b.Conv2d(x, 16, 3, 1, Activation::kRelu);
    x = b.Conv2d(x, 12, 3, 2, Activation::kRelu6, Padding::kSame, 2);
    x = b.Conv2d(x, 13, 1, 1, Activation::kNone);
    b.MarkOutput(x);
    const graph::Graph g = std::move(b).Build();
    for (const std::int64_t rows : {std::int64_t{-1}, std::int64_t{3}}) {
      infer::TileOptions tiling;
      tiling.enabled = true;
      tiling.rows = rows;
      ASSERT_NO_FATAL_FAILURE(ExpectExecutorMatchesReference(
          g, static_cast<std::uint64_t>(ic), tiling,
          "ic" + std::to_string(ic) + " rows" + std::to_string(rows)));
    }
  }
}

// FC: a single-row head, and 2, 3 and 48 row sequences (run in row pairs),
// with out_f a multiple of 4 and not, and in_f a multiple of 8 and not.
TEST(ConvFcExecution, FullyConnectedMatchesPerRowReference) {
  int index = 0;
  for (const std::int64_t rows : {1, 2, 3, 48})
    for (const std::int64_t in_f : {5, 16, 24, 36})
      for (const std::int64_t out_f : {4, 13, 30}) {
        ++index;
        graph::GraphBuilder b("fc");
        const auto in = b.Input(
            "in", rows == 1 ? graph::TensorShape({1, in_f})
                            : graph::TensorShape({1, rows, in_f}));
        b.MarkOutput(b.FullyConnected(in, out_f, kActivations[index % 6]));
        ASSERT_NO_FATAL_FAILURE(ExpectExecutorMatchesReference(
            std::move(b).Build(), static_cast<std::uint64_t>(index), {},
            "rows" + std::to_string(rows) + " in" + std::to_string(in_f) +
                " out" + std::to_string(out_f)));
      }
}

// FC with GELU, the mini MobileBERT FFN's activation: the table's gelu_f32
// runs over each row pair after the out_f % 4 remainder is summed, and it
// must give the scalar GELU of the per-row reference on both tables.  Rows
// 1, 2 and 3 (a lone row, a pair, a pair and a lone row); out_f with
// remainders 1-3 and widths that leave gelu_f32 a ragged 8-lane tail.
// Inputs span [-8, 8], so the sums reach every tanh branch: |x| < 1,
// |x| >= 1 and saturation at |x| >= 22.
TEST(ConvFcExecution, GeluFullyConnectedIsBitExactAtScalarAndAuto) {
  int index = 0;
  for (const std::int64_t rows : {1, 2, 3})
    for (const std::int64_t out_f : {5, 13, 30, 67}) {
      ++index;
      graph::GraphBuilder b("fc_gelu");
      const auto in = b.Input("in", graph::TensorShape({1, rows, 24}));
      b.MarkOutput(b.FullyConnected(in, out_f, Activation::kGelu));
      ASSERT_NO_FATAL_FAILURE(ExpectExecutorMatchesReference(
          std::move(b).Build(), static_cast<std::uint64_t>(100 + index), {},
          "gelu rows" + std::to_string(rows) + " out" +
              std::to_string(out_f),
          8.0));
    }
}

}  // namespace
}  // namespace mlpm
