#include "metrics/classification.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace mlpm::metrics {

int ArgMax(std::span<const float> logits) {
  Expects(!logits.empty(), "ArgMax of empty logits");
  return static_cast<int>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

double TopOneAccuracy(std::span<const int> predictions,
                      std::span<const int> labels) {
  Expects(predictions.size() == labels.size(), "size mismatch");
  Expects(!predictions.empty(), "empty prediction set");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i)
    if (predictions[i] == labels[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(predictions.size());
}

}  // namespace mlpm::metrics
