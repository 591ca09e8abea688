#include "infer/weights.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/line_tokens.h"
#include "common/rng.h"

namespace mlpm::infer {

const Tensor& WeightStore::Get(const std::string& name) const {
  const auto it = store_.find(name);
  Expects(it != store_.end(), [&] { return "weight not found: " + name; });
  return it->second;
}

bool WeightStore::Contains(const std::string& name) const {
  return store_.contains(name);
}

void WeightStore::Put(std::string name, Tensor t) {
  store_.insert_or_assign(std::move(name), std::move(t));
}

WeightStore InitializeWeights(const graph::Graph& g, std::uint64_t seed) {
  WeightStore ws;
  const Rng base(seed);
  std::uint64_t tag = 0;
  for (const auto& info : g.tensors()) {
    ++tag;
    if (info.kind != graph::TensorKind::kWeight) continue;
    Rng rng = base.Split(tag);
    Tensor t(info.shape);

    const bool is_bias = info.shape.rank() == 1;
    const bool is_norm_param = info.name.ends_with("/gamma") ||
                               info.name.ends_with("/beta");
    if (is_norm_param) {
      const float v = info.name.ends_with("/gamma") ? 1.0f : 0.0f;
      for (auto& x : t.values()) x = v;
      ws.Put(info.name, std::move(t));
      continue;
    }
    if (is_bias) {
      // Small biases; zero-mean so quantization zero-points stay sane.
      rng.FillGaussianF32(t.values(), 0.01);
      ws.Put(info.name, std::move(t));
      continue;
    }

    // Fan-in = product of all dims except the first (output) dim.
    std::int64_t fan_in = 1;
    for (std::size_t d = 1; d < info.shape.rank(); ++d)
      fan_in *= info.shape.dim(d);
    if (fan_in == 0) fan_in = 1;
    const double scale = std::sqrt(2.0 / static_cast<double>(fan_in));
    rng.FillGaussianF32(t.values(), scale);
    ws.Put(info.name, std::move(t));
  }
  return ws;
}

std::string SerializeWeights(const WeightStore& store) {
  // Deterministic output: tensors sorted by name.
  std::map<std::string, const Tensor*> sorted;
  for (const auto& [name, tensor] : store.raw()) sorted[name] = &tensor;

  std::ostringstream os;
  os << "mlpm_weights v1\n";
  char buf[64];
  for (const auto& [name, tensor] : sorted) {
    os << "tensor " << tensor->shape().rank();
    for (auto d : tensor->shape().dims()) os << ' ' << d;
    os << ' ' << name << '\n';
    for (std::size_t i = 0; i < tensor->size(); ++i) {
      // Hexfloat: exact binary round-trip.
      std::snprintf(buf, sizeof buf, "%a",
                    static_cast<double>(tensor->data()[i]));
      os << buf << (i + 1 == tensor->size() ? '\n' : ' ');
    }
  }
  return os.str();
}

WeightStore ParseWeights(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  Expects(static_cast<bool>(std::getline(is, line)) &&
              line == "mlpm_weights v1",
          "unknown weights format");
  WeightStore store;
  while (std::getline(is, line)) {
    LineTokens header(line);
    if (header.left() == 0) continue;
    Expects(header.Next("weight header") == "tensor",
            [&] { return "malformed weight header: " + line; });
    std::vector<std::int64_t> dims(header.Count("weight rank"));
    // Element count, checked for overflow before anything is allocated.
    std::size_t count = 1;
    for (auto& d : dims) {
      d = header.Int<std::int64_t>("weight dim");
      const auto extent = static_cast<std::size_t>(d);
      Expects(d >= 0 && (extent == 0 || count <= SIZE_MAX / extent),
              [&] { return "weight shape out of range: " + line; });
      count *= extent;
    }
    const std::string name(header.Next("weight name"));

    Expects(static_cast<bool>(std::getline(is, line)),
            [&] { return "missing values for weight " + name; });
    LineTokens values(line);
    Expects(values.left() >= count,
            [&] { return "too few values for weight " + name; });
    Expects(values.left() == count,
            [&] { return "too many values for weight " + name; });
    Tensor t{graph::TensorShape(std::move(dims))};
    for (float& v : t.values())
      v = std::strtof(std::string(values.Next("weight value")).c_str(),
                      nullptr);
    store.Put(name, std::move(t));
  }
  return store;
}

}  // namespace mlpm::infer
