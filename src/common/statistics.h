// Descriptive statistics used by the LoadGen result summariser and the
// benchmark report generators (90th-percentile latency is the paper's
// single-stream metric, §6.1).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mlpm {

// Summary of a latency (or any scalar) sample set.
struct SampleStats {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  // population standard deviation
  double p50 = 0.0;
  double p90 = 0.0;
  double p97 = 0.0;
  double p99 = 0.0;
};

// Percentile with linear interpolation between closest ranks; `p` in [0,100].
// The input need not be sorted: a copy is partitioned around the two order
// statistics the interpolation reads (O(n)), never fully sorted.  Empty
// input throws CheckError.
[[nodiscard]] double Percentile(std::span<const double> values, double p);

// As Percentile, but `sorted` must already be in ascending order — no copy,
// no sort.  The building block for multi-percentile extraction.
[[nodiscard]] double PercentileOfSorted(std::span<const double> sorted,
                                        double p);

// Several percentiles from one sort: copies and sorts `values` once, then
// reads each requested percentile off the sorted data.  Returns one value
// per entry of `ps`, in order.  Report tables want p50/p90/p97/p99 of the
// same latency vector; calling Percentile four times would sort four times.
[[nodiscard]] std::vector<double> Percentiles(std::span<const double> values,
                                              std::span<const double> ps);

// Full summary in one pass over a copy (values need not be sorted).
[[nodiscard]] SampleStats Summarize(std::span<const double> values);

// Geometric mean; all values must be positive.
[[nodiscard]] double GeometricMean(std::span<const double> values);

}  // namespace mlpm
