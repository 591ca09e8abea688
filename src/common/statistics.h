// Descriptive statistics used by the LoadGen result summariser and the
// benchmark report generators (90th-percentile latency is the paper's
// single-stream metric, §6.1).
#pragma once

#include <span>
#include <vector>

namespace mlpm {

class ThreadPool;

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
// selected on a copy of `values` in ascending rank order, each selection
// confined to the part above the previous one.
[[nodiscard]] std::vector<double> Percentiles(std::span<const double> values,
                                              std::span<const double> ps);

// Percentiles of the concatenation of `runs` (empty runs allowed), bit for
// bit what Percentiles returns on that concatenation, without building it.
// A count pass over the runs buckets every value by the top 16 bits of an
// order-preserving key; a gather pass copies out only the values of the
// buckets that hold the ranks the interpolations read, and the ranks are
// selected among those.  Both passes claim runs on `pool` (null runs
// inline); the lanes fold nothing but integer counts.  Scratch memory stays
// within 8 bytes per value, the cost of the concatenation, at any pool
// size.  All runs empty throws CheckError.
[[nodiscard]] std::vector<double> PercentilesOfRuns(
    std::span<const std::span<const double>> runs, std::span<const double> ps,
    const ThreadPool* pool);

// Geometric mean; all values must be positive.
[[nodiscard]] double GeometricMean(std::span<const double> values);

}  // namespace mlpm
