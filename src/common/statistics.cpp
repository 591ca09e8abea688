#include "common/statistics.h"

#include <algorithm>
#include <cmath>

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
  Expects(!values.empty(), "Percentile of empty sample set");
  Expects(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  // PercentileOfSorted reads only the order statistics at `lo` and
  // `lo + 1`: select those two into place instead of sorting the copy.
  std::vector<double> v(values.begin(), values.end());
  const auto lo =
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size() - 1));
  const auto at_lo = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), at_lo, v.end());
  if (at_lo + 1 != v.end())
    std::iter_swap(at_lo + 1, std::min_element(at_lo + 1, v.end()));
  return PercentileOfSorted(v, p);
}

std::vector<double> Percentiles(std::span<const double> values,
                                std::span<const double> ps) {
  Expects(!values.empty(), "Percentiles of empty sample set");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(PercentileOfSorted(sorted, p));
  return out;
}

SampleStats Summarize(std::span<const double> values) {
  Expects(!values.empty(), "Summarize of empty sample set");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());

  SampleStats s;
  s.count = sorted.size();
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(s.count);
  double var = 0.0;
  for (double v : sorted) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(s.count));

  s.p50 = PercentileOfSorted(sorted, 50.0);
  s.p90 = PercentileOfSorted(sorted, 90.0);
  s.p97 = PercentileOfSorted(sorted, 97.0);
  s.p99 = PercentileOfSorted(sorted, 99.0);
  return s;
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
