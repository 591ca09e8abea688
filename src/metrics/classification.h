// Top-1 classification accuracy (ImageNet task metric, Table 1).
#pragma once

#include <cstdint>
#include <span>

namespace mlpm::metrics {

// Index of the maximum logit (ties broken toward the lower index).
[[nodiscard]] int ArgMax(std::span<const float> logits);

// Fraction of samples whose prediction equals the label.
[[nodiscard]] double TopOneAccuracy(std::span<const int> predictions,
                                    std::span<const int> labels);

}  // namespace mlpm::metrics
