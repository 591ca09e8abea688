#include "datasets/labelled_dataset.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "infer/executor.h"
#include "obs/trace.h"

namespace mlpm::datasets {

const std::uint64_t LabelledDataset::kValidationSpace = 0;
const std::uint64_t LabelledDataset::kCalibrationSpace = 1'000'000;

float TopTwoGap(std::span<const float> logits) {
  float top1 = -1e30f, top2 = -1e30f;
  for (float v : logits) {
    if (v > top1) {
      top2 = top1;
      top1 = v;
    } else if (v > top2) {
      top2 = v;
    }
  }
  return top1 - top2;
}

void LabelledDataset::LabelWithTeacher(const graph::Graph& graph,
                                       const infer::WeightStore& weights,
                                       std::size_t count,
                                       const Accept& accept,
                                       const ThreadPool* pool) {
  Expects(count > 0, "dataset must be non-empty");
  const obs::TraceRecorder::Span span(obs::TraceRecorder::Global(),
                                      "datasets.label", {}, "phase");
  const infer::Executor teacher(graph, weights, infer::NumericsMode::kFp32);
  const std::size_t lanes = pool != nullptr ? pool->thread_count() : 1;
  indices_.reserve(count);
  teacher_outputs_.reserve(count);
  // Cap candidate generation so a too-strict filter cannot loop forever.
  const std::size_t max_candidates = count * 64;
  for (std::size_t i = 0; indices_.size() < count;) {
    Expects(i < max_candidates,
            "teacher filter too strict: candidate pool exhausted");
    // Every candidate up to the number still needed is evaluated by the
    // serial loop too; only the lanes beyond it are speculative.
    const std::size_t chunk = std::min(
        std::max(count - indices_.size(), lanes), max_candidates - i);
    std::vector<std::vector<infer::Tensor>> outputs =
        infer::RunSamplesParallel(
            teacher, chunk,
            [&](std::size_t k) {
              std::vector<infer::Tensor> in;
              in.push_back(MakeInput(kValidationSpace, i + k));
              return in;
            },
            pool);
    for (std::size_t k = 0; k < chunk && indices_.size() < count; ++k)
      if (accept(outputs[k])) {
        indices_.push_back(i + k);
        teacher_outputs_.push_back(std::move(outputs[k]));
      }
    i += chunk;
  }
}

void LabelledDataset::UseFirst(std::size_t count) {
  Expects(count > 0, "dataset must be non-empty");
  indices_.resize(count);
  for (std::size_t i = 0; i < count; ++i) indices_[i] = i;
}

std::vector<infer::Tensor> LabelledDataset::InputsFor(
    std::size_t index) const {
  Expects(index < indices_.size(), "sample index out of range");
  std::vector<infer::Tensor> v;
  v.push_back(MakeInput(kValidationSpace, indices_[index]));
  return v;
}

std::optional<double> LabelledDataset::teacher_score() const {
  if (!teacher_score_ && !teacher_outputs_.empty()) {
    teacher_score_ = ScoreOutputs(teacher_outputs_);
    teacher_outputs_ = {};
  }
  return teacher_score_;
}

std::vector<infer::Tensor> LabelledDataset::CalibrationInputsFor(
    std::size_t index) const {
  std::vector<infer::Tensor> v;
  v.push_back(MakeInput(kCalibrationSpace, index));
  return v;
}

void LabelledDataset::ExpectCovers(
    std::span<const std::vector<infer::Tensor>> outputs) const {
  Expects(outputs.size() == indices_.size(),
          "output count does not cover the dataset");
  for (const auto& out : outputs) Expects(!out.empty(), "missing model output");
}

}  // namespace mlpm::datasets
