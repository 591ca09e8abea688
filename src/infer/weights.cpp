#include "infer/weights.h"

#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace mlpm::infer {

const Tensor& WeightStore::Get(const std::string& name) const {
  const auto it = store_.find(name);
  Expects(it != store_.end(), [&] { return "weight not found: " + name; });
  return it->second;
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

}  // namespace mlpm::infer
