#include "core/dataset_qsl.h"

#include <optional>

#include "common/thread_pool.h"

namespace mlpm::loadgen {

DatasetQsl::DatasetQsl(const datasets::TaskDataset& dataset,
                       std::size_t performance_sample_count,
                       const ThreadPool* pool)
    : dataset_(dataset),
      performance_sample_count_(performance_sample_count == 0
                                    ? dataset.size()
                                    : performance_sample_count),
      pool_(pool) {}

std::size_t DatasetQsl::TotalSampleCount() const { return dataset_.size(); }

std::size_t DatasetQsl::PerformanceSampleCount() const {
  return performance_sample_count_;
}

void DatasetQsl::LoadSamplesToRam(std::span<const std::size_t> indices) {
  std::vector<std::size_t> missing;
  for (const std::size_t i : indices)
    if (!loaded_.contains(i)) missing.push_back(i);
  std::vector<std::vector<infer::Tensor>> staged(missing.size());
  ParallelForEachItem(pool_, missing.size(), [&](ItemClaims& next) {
    while (const std::optional<std::size_t> k = next())
      staged[*k] = dataset_.InputsFor(missing[*k]);
  });
  for (std::size_t k = 0; k < missing.size(); ++k)
    loaded_.try_emplace(missing[k], std::move(staged[k]));
}

void DatasetQsl::UnloadSamplesFromRam(std::span<const std::size_t> indices) {
  for (std::size_t i : indices) loaded_.erase(i);
}

const std::vector<infer::Tensor>& DatasetQsl::Loaded(std::size_t index) const {
  const auto it = loaded_.find(index);
  Expects(it != loaded_.end(), [&] {
    return "sample " + std::to_string(index) + " not staged in RAM";
  });
  return it->second;
}

}  // namespace mlpm::loadgen
