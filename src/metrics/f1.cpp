#include "metrics/f1.h"

#include <algorithm>

#include "common/check.h"

namespace mlpm::metrics {

double SpanF1(const TokenSpan& prediction, const TokenSpan& truth) {
  const int overlap_start = std::max(prediction.start, truth.start);
  const int overlap_end = std::min(prediction.end, truth.end);
  const int overlap =
      overlap_end >= overlap_start ? overlap_end - overlap_start + 1 : 0;
  if (overlap == 0) return 0.0;
  const double p =
      static_cast<double>(overlap) / std::max(prediction.length(), 1);
  const double r = static_cast<double>(overlap) / std::max(truth.length(), 1);
  return 2.0 * p * r / (p + r);
}

double MeanSpanF1(std::span<const TokenSpan> predictions,
                  std::span<const TokenSpan> truths) {
  Expects(predictions.size() == truths.size(), "size mismatch");
  Expects(!predictions.empty(), "empty evaluation set");
  double sum = 0.0;
  for (std::size_t i = 0; i < predictions.size(); ++i)
    sum += SpanF1(predictions[i], truths[i]);
  return sum / static_cast<double>(predictions.size());
}

TokenSpan BestSpan(std::span<const float> start_logits,
                   std::span<const float> end_logits, int max_length) {
  Expects(start_logits.size() == end_logits.size(), "logit size mismatch");
  Expects(!start_logits.empty(), "empty logits");
  const int n = static_cast<int>(start_logits.size());
  TokenSpan best{0, 0};
  float best_score = start_logits[0] + end_logits[0];
  for (int s = 0; s < n; ++s) {
    const int last = std::min(n - 1, s + max_length - 1);
    for (int e = s; e <= last; ++e) {
      const float score = start_logits[static_cast<std::size_t>(s)] +
                          end_logits[static_cast<std::size_t>(e)];
      if (score > best_score) {
        best_score = score;
        best = TokenSpan{s, e};
      }
    }
  }
  return best;
}

}  // namespace mlpm::metrics
