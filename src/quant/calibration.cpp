#include "quant/calibration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace mlpm::quant {
namespace {

infer::TensorRange RangeOf(const infer::Tensor& t) {
  infer::TensorRange r{std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (float v : t.values()) r.Update(v);
  if (r.min > r.max) r = {0.0f, 0.0f};  // empty tensor
  return r;
}

}  // namespace

infer::QuantParams CalibratePtq(const graph::Graph& graph,
                                const infer::WeightStore& weights,
                                std::span<const CalibrationSample> samples,
                                const CalibrationConfig& config,
                                const ThreadPool* pool) {
  Expects(!samples.empty(), "calibration requires at least one sample");
  const obs::TraceRecorder::Span span(obs::TraceRecorder::Global(),
                                      "quant.calibrate", {}, "phase");
  infer::QuantParams params;
  params.per_channel_weights = config.per_channel_weights;
  params.activation_bits = config.activation_bits;
  params.weight_bits = config.weight_bits;

  // Each sample's node-output ranges, in the order the executor observed
  // them.  Samples are independent, so they run on any thread.
  using Observed = std::vector<std::pair<graph::TensorId, infer::TensorRange>>;
  std::vector<Observed> observed(samples.size());
  const infer::Executor fp32(graph, weights, infer::NumericsMode::kFp32);
  ParallelForEachItem(pool, samples.size(), [&](ItemClaims& next) {
    infer::ExecutionContext ctx(fp32);
    while (const std::optional<std::size_t> s = next()) {
      Observed& out = observed[*s];
      (void)fp32.Run(samples[*s], ctx,
                     [&](graph::TensorId id, const infer::Tensor& t) {
                       out.emplace_back(id, RangeOf(t));
                     });
    }
  });

  // The fold runs in sample order on this thread, exactly as a serial
  // pass would have applied each observation.
  for (const Observed& sample : observed) {
    for (const auto& [id, r] : sample) {
      auto [it, inserted] = params.activation_ranges.try_emplace(id, r);
      if (inserted) continue;
      switch (config.method) {
        case RangeMethod::kMinMax:
          it->second.Merge(r);
          break;
        case RangeMethod::kMovingAverage: {
          const auto d = static_cast<float>(config.ema_decay);
          it->second.min = d * it->second.min + (1 - d) * r.min;
          it->second.max = d * it->second.max + (1 - d) * r.max;
          break;
        }
      }
    }
  }
  return params;
}

infer::WeightStore RefineWeightsMseOptimal(const graph::Graph& graph,
                                           const infer::WeightStore& weights,
                                           int weight_bits) {
  infer::WeightStore refined;
  const float qmax = static_cast<float>((1 << (weight_bits - 1)) - 1);

  for (const auto& info : graph.tensors()) {
    if (info.kind != graph::TensorKind::kWeight) continue;
    infer::Tensor t = weights.Get(info.name);  // copy
    // Skip 1-D params (biases, norm scales) — they stay high precision.
    if (t.shape().rank() > 1) {
      const std::int64_t channels = t.shape().dim(0);
      const std::int64_t stride =
          static_cast<std::int64_t>(t.size()) / channels;
      for (std::int64_t c = 0; c < channels; ++c) {
        float* chan = t.data() + c * stride;
        float amax = 0.0f;
        for (std::int64_t i = 0; i < stride; ++i)
          amax = std::max(amax, std::abs(chan[i]));
        if (amax == 0.0f) continue;

        // Search clipping thresholds in [0.5, 1.0] * amax for the one that
        // minimizes quantization MSE, then clip the channel to it.  This is
        // the training-free core of what QAT achieves for weights.
        float best_clip = amax;
        double best_mse = std::numeric_limits<double>::infinity();
        for (int step = 0; step <= 20; ++step) {
          const float clip =
              amax * (0.5f + 0.025f * static_cast<float>(step));
          const float scale = clip / qmax;
          double mse = 0.0;
          for (std::int64_t i = 0; i < stride; ++i) {
            const float q =
                std::clamp(std::round(chan[i] / scale), -qmax, qmax) * scale;
            const double e = static_cast<double>(q) - chan[i];
            mse += e * e;
          }
          if (mse < best_mse) {
            best_mse = mse;
            best_clip = clip;
          }
        }
        for (std::int64_t i = 0; i < stride; ++i)
          chan[i] = std::clamp(chan[i], -best_clip, best_clip);
      }
    }
    refined.Put(info.name, std::move(t));
  }
  return refined;
}

}  // namespace mlpm::quant
