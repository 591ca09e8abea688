// Descriptive statistics used by the LoadGen result summariser and the
// benchmark report generators (90th-percentile latency is the paper's
// single-stream metric, §6.1).
#pragma once

#include <span>
#include <vector>

namespace mlpm {

// Percentile with linear interpolation between closest ranks; `p` in [0,100].
// The input need not be sorted: a copy is partitioned around the two order
// statistics the interpolation reads (O(n)), never fully sorted.  Empty
// input throws CheckError.
[[nodiscard]] double Percentile(std::span<const double> values, double p);

// As Percentile, but `sorted` must already be in ascending order — no copy,
// no sort.  The building block for multi-percentile extraction.
[[nodiscard]] double PercentileOfSorted(std::span<const double> sorted,
                                        double p);

// Several percentiles of one sample set, one value per entry of `ps`, in
// order; `ps` may be unsorted and may repeat a p.  Bit-identical to
// PercentileOfSorted on a sorted copy, but nothing is sorted: the order
// statistics the interpolations read (`lo` and `lo + 1` of each p) are
// selected in ascending rank order, each selection confined to the part
// above the previous one.  Percentiles works on a copy of `values`;
// PercentilesInPlace permutes `values` itself and allocates no copy, for a
// caller that owns a large scratch buffer (the fleet's merged latencies).
[[nodiscard]] std::vector<double> Percentiles(std::span<const double> values,
                                              std::span<const double> ps);
[[nodiscard]] std::vector<double> PercentilesInPlace(
    std::span<double> values, std::span<const double> ps);

// Geometric mean; all values must be positive.
[[nodiscard]] double GeometricMean(std::span<const double> values);

}  // namespace mlpm
