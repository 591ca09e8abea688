#include "common/statistics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "common/check.h"
#include "common/thread_pool.h"

namespace mlpm {
namespace {

// The ranks PercentileOfSorted reads of `n` values for each p: `lo` and,
// below the top, `lo + 1`; ascending, without repeats.
[[nodiscard]] std::vector<std::size_t> RanksRead(std::size_t n,
                                                 std::span<const double> ps) {
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * ps.size());
  for (const double p : ps) {
    Expects(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
    const auto lo =
        static_cast<std::size_t>(p / 100.0 * static_cast<double>(n - 1));
    ranks.push_back(lo);
    if (lo + 1 < n) ranks.push_back(lo + 1);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

// Puts the order statistic of each of `ranks` (ascending) at that position
// of `values`.  Everything from `first` on is >= every order statistic
// placed so far, so each selection only needs the rest of the range.  A
// rank right after the previous one is the minimum of the rest.
void SelectRanks(std::span<double> values, std::span<const std::size_t> ranks) {
  auto first = values.begin();
  for (const std::size_t r : ranks) {
    const auto at = values.begin() + static_cast<std::ptrdiff_t>(r);
    if (at == first)
      std::iter_swap(at, std::min_element(at, values.end()));
    else
      std::nth_element(first, at, values.end());
    first = at + 1;
  }
}

// The p-th percentile of `n` values whose order statistic of rank r is
// `at(r)`; reads only the ranks RanksRead names for p.
template <class At>
[[nodiscard]] double Interpolate(std::size_t n, double p, const At& at) {
  if (n == 1) return at(0);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // The top order statistic.  `+ 0.0` reads a tie of -0.0 and +0.0 as
  // +0.0, whichever of the two the sort (or a selection) put last; the
  // interpolation below already does.
  if (lo + 1 >= n) return at(n - 1) + 0.0;
  return at(lo) + frac * (at(lo + 1) - at(lo));
}

// Buckets of an order-preserving 64-bit key of each double: keys compare as
// the doubles do, except that -0.0 comes below +0.0, a tie Interpolate
// reads the same either way.
constexpr int kBucketBits = 16;
constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
constexpr std::size_t kHistogramBytes = kBuckets * sizeof(std::uint32_t);

[[nodiscard]] std::uint32_t Bucket(double v) {
  const auto u = std::bit_cast<std::uint64_t>(v);
  const std::uint64_t key = (u >> 63) != 0 ? ~u : u | (std::uint64_t{1} << 63);
  return static_cast<std::uint32_t>(key >> (64 - kBucketBits));
}

// The number of values of `runs` (`n` in all) in each bucket.  Each
// counting lane keeps a histogram of its own, and only as many lanes count
// as there are histograms in the 8 bytes per value that a concatenation
// would take; the other lanes return without claiming a run.
[[nodiscard]] std::vector<std::uint32_t> CountBuckets(
    std::span<const std::span<const double>> runs, std::size_t n,
    const ThreadPool* pool) {
  Expects(n <= std::numeric_limits<std::uint32_t>::max(),
          "too many values for one percentile selection");
  const std::size_t max_lanes = n * sizeof(double) / kHistogramBytes;
  Expects(max_lanes > 0, "no room for a histogram");
  std::atomic<std::size_t> lanes{0};
  std::mutex total_mu;
  std::vector<std::uint32_t> total;  // guarded by total_mu
  ParallelForEachItem(pool, runs.size(), [&](ItemClaims& next) {
    if (lanes.fetch_add(1, std::memory_order_relaxed) >= max_lanes) return;
    std::vector<std::uint32_t> counts(kBuckets);
    while (const std::optional<std::size_t> i = next())
      for (const double v : runs[*i]) ++counts[Bucket(v)];
    std::scoped_lock lock(total_mu);
    if (total.empty()) {
      total = std::move(counts);
    } else {
      for (std::size_t b = 0; b < kBuckets; ++b) total[b] += counts[b];
    }
  });
  return total;
}

// A bucket that holds at least one rank to select, and where its values
// go in the gather buffer.
struct Target {
  std::size_t below = 0;  // values in lower buckets
  std::size_t count = 0;  // values in this bucket
  std::size_t start = 0;  // its first position in the gather buffer
  std::vector<std::size_t> ranks;  // its ranks, counted from `below`
};

// The buckets that hold `ranks` (ascending), ascending, packed one after
// another in the gather buffer.  Turns `counts` into the map from a bucket
// to 1 + the index of its target, 0 where the bucket holds no rank.
[[nodiscard]] std::vector<Target> TargetBuckets(
    std::vector<std::uint32_t>& counts, std::span<const std::size_t> ranks) {
  std::vector<Target> targets;
  std::size_t below = 0;
  std::size_t start = 0;
  auto r = ranks.begin();
  for (std::uint32_t& bucket : counts) {
    const std::size_t count = bucket;
    bucket = 0;
    if (r != ranks.end() && *r < below + count) {
      Target& t = targets.emplace_back();
      t.below = below;
      t.count = count;
      t.start = start;
      for (; r != ranks.end() && *r < below + count; ++r)
        t.ranks.push_back(*r - below);
      start += count;
      bucket = static_cast<std::uint32_t>(targets.size());
    }
    below += count;
  }
  return targets;
}

}  // namespace

double PercentileOfSorted(std::span<const double> sorted, double p) {
  Expects(!sorted.empty(), "Percentile of empty sample set");
  Expects(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  return Interpolate(sorted.size(), p,
                     [&](std::size_t r) { return sorted[r]; });
}

double Percentile(std::span<const double> values, double p) {
  return Percentiles(values, std::span<const double>(&p, 1)).front();
}

std::vector<double> Percentiles(std::span<const double> values,
                                std::span<const double> ps) {
  Expects(!values.empty(), "Percentiles of empty sample set");
  const std::vector<std::size_t> ranks = RanksRead(values.size(), ps);
  std::vector<double> v(values.begin(), values.end());
  SelectRanks(v, ranks);
  // Every position PercentileOfSorted reads now holds its order statistic.
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) out.push_back(PercentileOfSorted(v, p));
  return out;
}

std::vector<double> PercentilesOfRuns(
    std::span<const std::span<const double>> runs, std::span<const double> ps,
    const ThreadPool* pool) {
  std::size_t n = 0;
  for (const std::span<const double> run : runs) n += run.size();
  Expects(n > 0, "Percentiles of empty sample set");
  const std::vector<std::size_t> ranks = RanksRead(n, ps);

  // Only the buckets that hold a rank are gathered, while they and the
  // bucket map (the histogram, rewritten) fit in the 8 bytes per value a
  // concatenation takes.  Otherwise every value is gathered, as one
  // target, and no map is kept.
  std::vector<std::uint32_t> to_target;
  std::vector<Target> targets;
  if (n * sizeof(double) >= kHistogramBytes) {
    to_target = CountBuckets(runs, n, pool);
    targets = TargetBuckets(to_target, ranks);
    const Target& last = targets.back();
    if ((last.start + last.count) * sizeof(double) + kHistogramBytes >
        n * sizeof(double)) {
      targets.clear();
      to_target = {};
    }
  }
  if (targets.empty()) {
    Target& all = targets.emplace_back();
    all.count = n;
    all.ranks = ranks;
  }

  // Each run reserves a range of each target's region per claim and fills
  // it; the order of the values within a region follows claim order, which
  // no selection below depends on.
  const std::size_t gather_count = targets.back().start + targets.back().count;
  const std::unique_ptr<double[]> buffer =
      std::make_unique_for_overwrite<double[]>(gather_count);
  const std::span<double> gathered(buffer.get(), gather_count);
  std::vector<std::atomic<std::size_t>> free_at(targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k)
    free_at[k].store(targets[k].start, std::memory_order_relaxed);
  ParallelForEachItem(pool, runs.size(), [&](ItemClaims& next) {
    // Indexed by the values of `to_target` (1 + a target's index).
    std::vector<std::size_t> hits(targets.size() + 1);
    std::vector<double*> out(targets.size() + 1);
    while (const std::optional<std::size_t> i = next()) {
      const std::span<const double> run = runs[*i];
      if (to_target.empty()) {
        const std::size_t at =
            free_at[0].fetch_add(run.size(), std::memory_order_relaxed);
        std::copy(run.begin(), run.end(),
                  gathered.begin() + static_cast<std::ptrdiff_t>(at));
        continue;
      }
      // Most values fall in no target, so these branches predict well,
      // where a branch-free store for every miss would chain each
      // iteration through one slot.
      std::fill(hits.begin(), hits.end(), 0);
      for (const double v : run) {
        const std::uint32_t k = to_target[Bucket(v)];
        if (k != 0) ++hits[k];
      }
      for (std::size_t k = 1; k <= targets.size(); ++k)
        if (hits[k] != 0)
          out[k] = gathered.data() + free_at[k - 1].fetch_add(
                                         hits[k], std::memory_order_relaxed);
      for (const double v : run) {
        const std::uint32_t k = to_target[Bucket(v)];
        if (k != 0) *out[k]++ = v;
      }
    }
  });
  for (std::size_t k = 0; k < targets.size(); ++k)
    Ensures(free_at[k].load() == targets[k].start + targets[k].count,
            "gathered count differs from the histogram");

  ParallelForEachItem(pool, targets.size(), [&](ItemClaims& next) {
    while (const std::optional<std::size_t> k = next()) {
      const Target& t = targets[*k];
      SelectRanks(gathered.subspan(t.start, t.count), t.ranks);
    }
  });

  const auto at = [&](std::size_t r) {
    const Target& t = *std::find_if(
        targets.begin(), targets.end(),
        [r](const Target& c) { return r < c.below + c.count; });
    return gathered[t.start + (r - t.below)];
  };
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) out.push_back(Interpolate(n, p, at));
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
