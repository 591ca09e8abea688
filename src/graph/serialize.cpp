#include "graph/serialize.h"

#include <sstream>
#include <string_view>
#include <unordered_map>
#include <variant>

#include "common/line_tokens.h"

namespace mlpm::graph {
namespace {

OpType OpFromToken(const std::string& s) {
  static const std::unordered_map<std::string, OpType> map = {
      {"input_op", OpType::kInput},
      {"conv2d", OpType::kConv2d},
      {"dwconv2d", OpType::kDepthwiseConv2d},
      {"fc", OpType::kFullyConnected},
      {"add", OpType::kAdd},
      {"gap", OpType::kGlobalAvgPool},
      {"resize", OpType::kResizeBilinear},
      {"concat", OpType::kConcat},
      {"reshape", OpType::kReshape},
      {"act", OpType::kActivation},
      {"layernorm", OpType::kLayerNorm},
      {"embedding", OpType::kEmbeddingLookup},
      {"mha", OpType::kMultiHeadAttention},
      {"lstm", OpType::kLstm},
  };
  const auto it = map.find(s);
  Expects(it != map.end(), [&] { return "unknown op token: " + s; });
  return it->second;
}

Activation ActFromInt(int v) {
  Expects(v >= 0 && v <= static_cast<int>(Activation::kGelu),
          "bad activation code");
  return static_cast<Activation>(v);
}

// Key=value attribute scanner.
class AttrScanner {
 public:
  explicit AttrScanner(LineTokens& attrs) : attrs_(attrs) {}

  // Reads "key=value"; throws if the key differs.
  std::int64_t Expect(const std::string& key) {
    const std::string_view tok = attrs_.Next("attr " + key);
    const auto eq = tok.find('=');
    Expects(eq != std::string_view::npos && tok.substr(0, eq) == key, [&] {
      return "expected attr " + key + ", got " + std::string(tok);
    });
    return ParseInteger<std::int64_t>(tok.substr(eq + 1), "attr " + key);
  }

  // Reads "key=n" where n counts the attrs that follow.
  std::size_t Count(const std::string& key) {
    const std::int64_t n = Expect(key);
    Expects(n >= 0, [&] { return "negative attr " + key; });
    return attrs_.Bound(static_cast<std::size_t>(n), "attr " + key);
  }

 private:
  LineTokens& attrs_;
};

OpAttrs ReadAttrs(OpType op, LineTokens& attrs) {
  AttrScanner scan(attrs);
  switch (op) {
    case OpType::kConv2d: {
      Conv2dAttrs a;
      a.out_channels = scan.Expect("oc");
      a.kernel_h = a.kernel_w = static_cast<int>(scan.Expect("k"));
      a.stride = static_cast<int>(scan.Expect("s"));
      a.dilation = static_cast<int>(scan.Expect("d"));
      a.padding = scan.Expect("p") == 1 ? Padding::kSame : Padding::kValid;
      a.activation = ActFromInt(static_cast<int>(scan.Expect("a")));
      return a;
    }
    case OpType::kDepthwiseConv2d: {
      DepthwiseConv2dAttrs a;
      a.kernel_h = a.kernel_w = static_cast<int>(scan.Expect("k"));
      a.stride = static_cast<int>(scan.Expect("s"));
      a.dilation = static_cast<int>(scan.Expect("d"));
      a.padding = scan.Expect("p") == 1 ? Padding::kSame : Padding::kValid;
      a.activation = ActFromInt(static_cast<int>(scan.Expect("a")));
      return a;
    }
    case OpType::kFullyConnected: {
      FullyConnectedAttrs a;
      a.out_features = scan.Expect("of");
      a.activation = ActFromInt(static_cast<int>(scan.Expect("a")));
      return a;
    }
    case OpType::kResizeBilinear: {
      ResizeAttrs a;
      a.out_h = scan.Expect("h");
      a.out_w = scan.Expect("w");
      return a;
    }
    case OpType::kConcat:
      return ConcatAttrs{static_cast<int>(scan.Expect("axis"))};
    case OpType::kReshape: {
      ReshapeAttrs a;
      const std::size_t rank = scan.Count("rank");
      for (std::size_t i = 0; i < rank; ++i)
        a.new_dims.push_back(scan.Expect("dim"));
      return a;
    }
    case OpType::kActivation:
      return ActivationAttrs{
          ActFromInt(static_cast<int>(scan.Expect("a")))};
    case OpType::kEmbeddingLookup: {
      EmbeddingAttrs a;
      a.vocab_size = scan.Expect("vocab");
      a.embed_dim = scan.Expect("dim");
      return a;
    }
    case OpType::kMultiHeadAttention: {
      AttentionAttrs a;
      a.num_heads = static_cast<int>(scan.Expect("heads"));
      a.head_dim = scan.Expect("hd");
      return a;
    }
    case OpType::kLstm:
      return LstmAttrs{scan.Expect("hidden")};
    case OpType::kLayerNorm:
      return LayerNormAttrs{};  // the builder's epsilon; the text has none
    case OpType::kInput:
    case OpType::kAdd:
    case OpType::kGlobalAvgPool:
      return EmptyAttrs{};
  }
  return EmptyAttrs{};
}

}  // namespace

Graph ParseGraphUnchecked(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  Expects(static_cast<bool>(std::getline(is, line)) &&
              line == "mlpm_graph v1",
          "unknown graph format");

  Graph g;
  while (std::getline(is, line)) {
    LineTokens ls(line);
    if (ls.left() == 0) continue;
    const std::string_view tag = ls.Next("line tag");
    if (tag == "name") {
      if (ls.left() > 0) g.name_ = ls.Next("graph name");
    } else if (tag == "tensor") {
      Expects(ls.Int<std::size_t>("tensor id") == g.tensors_.size(),
              "tensor ids must be dense");
      const std::string_view kind = ls.Next("tensor kind");
      Expects(kind == "w" || kind == "a",
              [&] { return "malformed tensor line: " + line; });
      std::vector<std::int64_t> dims(ls.Count("tensor rank"));
      for (auto& d : dims) d = ls.Int<std::int64_t>("tensor dim");
      TensorInfo info;
      info.name = ls.Next("tensor name");
      info.shape = TensorShape(std::move(dims));
      info.kind = kind == "w" ? TensorKind::kWeight : TensorKind::kActivation;
      g.tensors_.push_back(std::move(info));
    } else if (tag == "node") {
      Node n;
      n.name = ls.Next("node name");
      const std::string_view op = ls.Next("op");
      n.op = OpFromToken(std::string(op));
      // Attrs live between the brackets; splice them out.
      const std::string_view rest =
          std::string_view(line).substr(op.data() + op.size() - line.data());
      const auto open = rest.find('[');
      const auto close = rest.find(']');
      Expects(open != std::string_view::npos &&
                  close != std::string_view::npos && open < close,
              [&] { return "malformed node line: " + line; });
      LineTokens attrs(rest.substr(open + 1, close - open - 1));
      n.attrs = ReadAttrs(n.op, attrs);
      LineTokens tail(rest.substr(close + 1));
      Expects(tail.Next("node inputs") == "in", "malformed node inputs");
      n.inputs.resize(tail.Count("node input count"));
      for (auto& id : n.inputs) id = tail.Int<TensorId>("node input");
      Expects(tail.Next("node weights") == "w", "malformed node weights");
      n.weights.resize(tail.Count("node weight count"));
      for (auto& id : n.weights) id = tail.Int<TensorId>("node weight");
      Expects(tail.Next("node output") == "out", "malformed node output");
      n.output = tail.Int<TensorId>("node output");
      if (n.output >= 0 &&
          static_cast<std::size_t>(n.output) < g.tensors_.size())
        g.tensors_[static_cast<std::size_t>(n.output)].producer =
            static_cast<std::int32_t>(g.nodes_.size());
      g.nodes_.push_back(std::move(n));
    } else if (tag == "graph_input") {
      g.inputs_.push_back(ls.Int<TensorId>("graph input"));
    } else if (tag == "graph_output") {
      g.outputs_.push_back(ls.Int<TensorId>("graph output"));
    } else {
      Expects(false, [&] { return "unknown line tag: " + std::string(tag); });
    }
  }
  return g;
}

}  // namespace mlpm::graph
