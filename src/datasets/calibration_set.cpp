#include "datasets/calibration_set.h"

#include <algorithm>
#include <optional>

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
  ParallelForEachItem(pool, indices.size(), [&](ItemClaims& next) {
    while (const std::optional<std::size_t> slot = next())
      samples[*slot] = dataset.CalibrationInputsFor(indices[*slot]);
  });
  return samples;
}

}  // namespace mlpm::datasets
