// SQuAD-style span F1 (question-answering task metric).
//
// Predicted and ground-truth answers are token spans [start, end]
// (inclusive); F1 is the harmonic mean of token-level precision and recall,
// averaged over the evaluation set — the standard SQuAD v1.1 protocol
// applied to span indices.
#pragma once

#include <span>

namespace mlpm::metrics {

struct TokenSpan {
  int start = 0;
  int end = 0;  // inclusive

  [[nodiscard]] int length() const { return end >= start ? end - start + 1 : 0; }
};

// Token-overlap F1 between a prediction and one ground-truth span.
[[nodiscard]] double SpanF1(const TokenSpan& prediction,
                            const TokenSpan& truth);

// Mean F1 over a set (SQuAD "dev F1", as a fraction in [0,1]).
[[nodiscard]] double MeanSpanF1(std::span<const TokenSpan> predictions,
                                std::span<const TokenSpan> truths);

// Picks the best (start, end) span from per-position start/end logits with
// the standard constraints: end >= start, span length <= max_length.
// `start_logits` / `end_logits` have one entry per sequence position.
[[nodiscard]] TokenSpan BestSpan(std::span<const float> start_logits,
                                 std::span<const float> end_logits,
                                 int max_length = 30);

}  // namespace mlpm::metrics
