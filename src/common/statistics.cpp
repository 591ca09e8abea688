#include "common/statistics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"

namespace mlpm {

double PercentileOfSorted(std::span<const double> sorted, double p) {
  Expects(!sorted.empty(), "Percentile of empty sample set");
  Expects(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // The top order statistic.  `+ 0.0` reads a tie of -0.0 and +0.0 as
  // +0.0, whichever of the two the sort (or a selection) put last; the
  // interpolation below already does.
  if (lo + 1 >= sorted.size()) return sorted.back() + 0.0;
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double Percentile(std::span<const double> values, double p) {
  return Percentiles(values, std::span<const double>(&p, 1)).front();
}

std::vector<double> Percentiles(std::span<const double> values,
                                std::span<const double> ps) {
  std::vector<double> v(values.begin(), values.end());
  return PercentilesInPlace(v, ps);
}

std::vector<double> PercentilesInPlace(std::span<double> values,
                                       std::span<const double> ps) {
  Expects(!values.empty(), "Percentiles of empty sample set");
  // The ranks PercentileOfSorted reads: `lo` and, below the top, `lo + 1`.
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * ps.size());
  const std::size_t n = values.size();
  for (const double p : ps) {
    Expects(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
    const auto lo =
        static_cast<std::size_t>(p / 100.0 * static_cast<double>(n - 1));
    ranks.push_back(lo);
    if (lo + 1 < n) ranks.push_back(lo + 1);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());

  // Everything from `first` on is >= every order statistic placed so far,
  // so each selection only needs the rest of the range.  A rank right
  // after the previous one is the minimum of the rest.
  auto first = values.begin();
  for (const std::size_t r : ranks) {
    const auto at = values.begin() + static_cast<std::ptrdiff_t>(r);
    if (at == first)
      std::iter_swap(at, std::min_element(at, values.end()));
    else
      std::nth_element(first, at, values.end());
    first = at + 1;
  }

  // Every position PercentileOfSorted reads now holds its order statistic.
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) out.push_back(PercentileOfSorted(values, p));
  return out;
}

double GeometricMean(std::span<const double> values) {
  Expects(!values.empty(), "GeometricMean of empty sample set");
  double log_sum = 0.0;
  for (double v : values) {
    Expects(v > 0.0, "GeometricMean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace mlpm
