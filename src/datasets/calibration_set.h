// The approved calibration set (paper §5.1): a fixed ~500-sample subset of
// the training split that is the only data submitters may use for PTQ.
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/task_dataset.h"
#include "quant/calibration.h"

namespace mlpm::datasets {

// The officially approved calibration indices: a seeded, fixed selection.
// All submitters (and the audit) derive the identical set.
[[nodiscard]] std::vector<std::size_t> ApprovedCalibrationIndices(
    std::size_t pool_size, std::size_t count, std::uint64_t official_seed);

// Materializes calibration samples from a dataset for the given indices,
// filling the slots on `pool`'s threads when given (the samples are the
// same for any pool size; CalibrationInputsFor must be safe to call
// concurrently).
[[nodiscard]] std::vector<quant::CalibrationSample> GatherCalibrationSamples(
    const TaskDataset& dataset, std::span<const std::size_t> indices,
    const ThreadPool* pool = nullptr);

}  // namespace mlpm::datasets
