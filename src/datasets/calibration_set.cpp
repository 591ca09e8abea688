#include "datasets/calibration_set.h"

#include <algorithm>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace mlpm::datasets {

std::vector<std::size_t> ApprovedCalibrationIndices(std::size_t pool_size,
                                                    std::size_t count,
                                                    std::uint64_t official_seed) {
  Expects(count <= pool_size, "calibration count exceeds pool");
  Rng rng(official_seed);
  std::vector<std::size_t> idx = rng.SampleWithoutReplacement(pool_size, count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::vector<quant::CalibrationSample> GatherCalibrationSamples(
    const TaskDataset& dataset, std::span<const std::size_t> indices,
    const ThreadPool* pool) {
  std::vector<quant::CalibrationSample> samples(indices.size());
  ParallelForRange(pool, 0, static_cast<std::int64_t>(indices.size()),
                   [&](std::int64_t lo, std::int64_t hi) {
                     for (std::int64_t s = lo; s < hi; ++s) {
                       const auto slot = static_cast<std::size_t>(s);
                       samples[slot] =
                           dataset.CalibrationInputsFor(indices[slot]);
                     }
                   });
  return samples;
}

}  // namespace mlpm::datasets
