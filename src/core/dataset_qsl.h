// QuerySampleLibrary adapter over a TaskDataset: stages sample inputs into
// RAM on LoadSamplesToRam so input generation never lands inside the timed
// region (paper Fig. 4 — the app "queries input samples for the task, loads
// them to memory").  With a pool the samples are built on its lanes.
#pragma once

#include <unordered_map>

#include "core/query.h"
#include "datasets/task_dataset.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::loadgen {

class DatasetQsl final : public QuerySampleLibrary {
 public:
  // `dataset` and `pool` must outlive the QSL.  `performance_sample_count`
  // of 0 means the whole data set fits.  A null `pool` stages on the
  // calling thread.
  explicit DatasetQsl(const datasets::TaskDataset& dataset,
                      std::size_t performance_sample_count = 0,
                      const ThreadPool* pool = nullptr);

  [[nodiscard]] std::string_view name() const override { return "dataset_qsl"; }
  [[nodiscard]] std::size_t TotalSampleCount() const override;
  [[nodiscard]] std::size_t PerformanceSampleCount() const override;
  // Builds the inputs of every index not yet staged, on the pool, and
  // inserts them in index order; a staged sample keeps its tensors.
  void LoadSamplesToRam(std::span<const std::size_t> indices) override;
  void UnloadSamplesFromRam(std::span<const std::size_t> indices) override;

  // Staged inputs for a loaded sample; throws if the sample is not loaded
  // (catches SUT/LoadGen protocol violations in tests).
  [[nodiscard]] const std::vector<infer::Tensor>& Loaded(
      std::size_t index) const;

 private:
  const datasets::TaskDataset& dataset_;
  std::size_t performance_sample_count_;
  const ThreadPool* pool_;
  std::unordered_map<std::size_t, std::vector<infer::Tensor>> loaded_;
};

}  // namespace mlpm::loadgen
