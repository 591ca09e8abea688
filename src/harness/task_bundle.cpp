#include "harness/task_bundle.h"

#include <string>

#include "datasets/calibration_set.h"
#include "datasets/classification_dataset.h"
#include "datasets/detection_dataset.h"
#include "datasets/qa_dataset.h"
#include "datasets/segmentation_dataset.h"
#include "models/deeplab.h"
#include "models/mobilebert.h"
#include "models/mobilenet_edgetpu.h"
#include "quant/calibration.h"

namespace mlpm::harness {
namespace {

double ScoreOn(const datasets::TaskDataset& ds,
               const infer::Executor& executor, const ThreadPool* pool) {
  std::vector<std::vector<infer::Tensor>> outputs = infer::RunSamplesParallel(
      executor, ds.size(), [&](std::size_t i) { return ds.InputsFor(i); },
      pool);
  return ds.ScoreOutputs(outputs);
}

}  // namespace

double Fp32ReferenceScore(const datasets::TaskDataset& ds,
                          const graph::Graph& graph,
                          const infer::WeightStore& weights,
                          const ThreadPool* pool,
                          infer::kernels::KernelIsa isa) {
  const infer::kernels::KernelRegistry& reg =
      infer::kernels::KernelRegistry::Global();
  if (reg.Resolve(isa) == reg.Resolve(infer::kernels::KernelIsa::kAuto)) {
    if (const std::optional<double> teacher = ds.teacher_score())
      return *teacher;
  }
  const infer::Executor fp32(graph, weights, infer::NumericsMode::kFp32,
                             nullptr, isa);
  return ScoreOn(ds, fp32, pool);
}

const std::vector<std::size_t>& OfficialCalibrationIndices() {
  static const std::vector<std::size_t> indices =
      datasets::ApprovedCalibrationIndices(
          kCalibrationPoolSize, kCalibrationSetSize, kCalibrationSeed);
  return indices;
}

std::unique_ptr<TaskBundle> TaskBundle::Create(
    const models::BenchmarkEntry& e, models::SuiteVersion version,
    std::uint64_t weight_seed) {
  auto b = std::unique_ptr<TaskBundle>(new TaskBundle());
  b->entry_ = e;
  b->version_ = version;
  b->weight_seed_ = weight_seed;

  // Each case builds the graph now and leaves the weights to weights() and
  // the labelling to dataset(); the size comes from the same config the
  // labelling uses.
  const TaskBundle* self = b.get();
  switch (e.task) {
    case models::TaskType::kImageClassification: {
      b->owned_graph_ = std::make_unique<graph::Graph>(
          models::BuildMobileNetEdgeTpu(models::ModelScale::kMini));
      b->graph_ = b->owned_graph_.get();
      const datasets::ClassificationDatasetConfig cfg;
      b->dataset_size_ = cfg.num_samples;
      b->make_dataset_ = [self, cfg](const ThreadPool* pool) {
        return std::make_unique<datasets::ClassificationDataset>(
            *self->graph_, self->weights(), cfg, pool);
      };
      break;
    }
    case models::TaskType::kObjectDetection: {
      b->detection_model_ = std::make_unique<models::DetectionModel>(
          version == models::SuiteVersion::kV0_7
              ? models::BuildSsdMobileNetV2(models::ModelScale::kMini)
              : models::BuildMobileDetSsd(models::ModelScale::kMini));
      b->graph_ = &b->detection_model_->graph;
      const datasets::DetectionDatasetConfig cfg;
      b->dataset_size_ = cfg.num_samples;
      b->make_dataset_ = [self, cfg](const ThreadPool* pool) {
        return std::make_unique<datasets::DetectionDataset>(
            *self->detection_model_, self->weights(), cfg, pool);
      };
      break;
    }
    case models::TaskType::kImageSegmentation: {
      b->owned_graph_ = std::make_unique<graph::Graph>(
          models::BuildDeepLabV3Plus(models::ModelScale::kMini));
      b->graph_ = b->owned_graph_.get();
      const datasets::SegmentationDatasetConfig cfg;
      b->dataset_size_ = cfg.num_samples;
      b->make_dataset_ = [self, cfg](const ThreadPool* pool) {
        return std::make_unique<datasets::SegmentationDataset>(
            *self->graph_, self->weights(), cfg, pool);
      };
      break;
    }
    case models::TaskType::kQuestionAnswering: {
      const models::MobileBertConfig model_cfg =
          models::MiniMobileBertConfig();
      b->owned_graph_ = std::make_unique<graph::Graph>(
          models::BuildMobileBert(model_cfg));
      b->graph_ = b->owned_graph_.get();
      const datasets::QaDatasetConfig cfg;
      b->dataset_size_ = cfg.num_samples;
      b->make_dataset_ = [self, model_cfg, cfg](const ThreadPool* pool) {
        return std::make_unique<datasets::QaDataset>(
            *self->graph_, self->weights(), model_cfg, cfg, pool);
      };
      break;
    }
  }
  return b;
}

const infer::WeightStore& TaskBundle::weights() const {
  if (!weights_) weights_ = infer::InitializeWeights(*graph_, weight_seed_);
  return *weights_;
}

const datasets::TaskDataset& TaskBundle::dataset(
    const ThreadPool* pool) const {
  if (!dataset_) {
    dataset_ = make_dataset_(pool);
    Ensures(dataset_->size() == dataset_size_, [&] {
      return entry_.id + ": labelled data set size differs from its config";
    });
  }
  return *dataset_;
}

TaskBundle::PreparedModel TaskBundle::Prepare(
    infer::NumericsMode mode, bool use_qat_weights,
    infer::kernels::KernelIsa isa, bool transform,
    const infer::TileOptions& tiling, const ThreadPool* pool) const {
  Expects(!transform, "the graph-transform stage was removed");
  const auto key = std::make_tuple(mode, use_qat_weights, isa,
                                   tiling.enabled ? tiling.rows : -2);
  if (const auto it = prepared_cache_.find(key); it != prepared_cache_.end())
    return it->second;

  PreparedModel p;
  const infer::WeightStore* store = &weights();
  if (use_qat_weights) {
    if (!qat_weights_)
      qat_weights_ = quant::RefineWeightsMseOptimal(*graph_, *store);
    store = &*qat_weights_;
  }
  if (mode == infer::NumericsMode::kInt8) {
    p.calibration_indices = OfficialCalibrationIndices();
    const std::vector<quant::CalibrationSample> samples =
        datasets::GatherCalibrationSamples(dataset(pool),
                                           p.calibration_indices, pool);
    const infer::QuantParams qp =
        quant::CalibratePtq(*graph_, *store, samples, {}, pool);
    p.model = std::make_shared<infer::Executor>(*graph_, *store, mode, &qp,
                                                isa, tiling);
  } else {
    p.model = std::make_shared<infer::Executor>(*graph_, *store, mode,
                                                nullptr, isa, tiling);
  }
  p.executor = p.model.get();
  prepared_cache_.emplace(key, p);
  return p;
}

double TaskBundle::ScoreAccuracy(const infer::Executor& executor,
                                 const ThreadPool* pool) const {
  // Labels (on first use) here, before the samples fan out over the pool.
  return ScoreOn(dataset(pool), executor, pool);
}

double TaskBundle::Fp32Score(const ThreadPool* pool,
                             infer::kernels::KernelIsa isa) const {
  const int key = static_cast<int>(isa);
  if (const auto it = fp32_scores_.find(key); it != fp32_scores_.end())
    return it->second;
  const double score =
      Fp32ReferenceScore(dataset(pool), *graph_, weights(), pool, isa);
  fp32_scores_.emplace(key, score);
  return score;
}

}  // namespace mlpm::harness
