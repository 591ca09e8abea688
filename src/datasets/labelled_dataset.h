// The one place ground truth is made (DESIGN.md §1).  Every task dataset
// draws its samples from a seeded generator in two disjoint namespaces —
// validation and calibration — and keeps, per accepted validation sample,
// the generator index that backs it.  Teacher-labelled datasets run the
// FP32 reference model over candidates 0, 1, 2, ... and let a per-task
// rule accept each one (recording its label) or skip it.  The teacher may
// run ahead on a thread pool; the rule still sees candidates one by one,
// in order, so the labelled set is the same for every pool size.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "datasets/task_dataset.h"
#include "graph/graph.h"
#include "infer/weights.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::datasets {

// Top-1 minus top-2 of `logits` (how decisively the teacher chose).
[[nodiscard]] float TopTwoGap(std::span<const float> logits);

class LabelledDataset : public TaskDataset {
 public:
  // Seed namespaces so validation / calibration samples never collide.
  static const std::uint64_t kValidationSpace;
  static const std::uint64_t kCalibrationSpace;

  [[nodiscard]] std::size_t size() const final { return indices_.size(); }
  [[nodiscard]] std::vector<infer::Tensor> InputsFor(
      std::size_t index) const final;
  [[nodiscard]] std::vector<infer::Tensor> CalibrationInputsFor(
      std::size_t index) const final;
  // On the first call, scores the outputs LabelWithTeacher kept and frees
  // them; nullopt for a set built by UseFirst.
  [[nodiscard]] std::optional<double> teacher_score() const final;

 protected:
  // The graph input for generator sample `index` of `name_space`.
  [[nodiscard]] virtual infer::Tensor MakeInput(std::uint64_t name_space,
                                                std::size_t index) const = 0;

  // Runs the FP32 teacher (kernel ISA kAuto, untiled) over validation
  // candidates in order until `accept` has taken `count` of them.  `accept`
  // sees each candidate's outputs on the calling thread, in candidate
  // order, and returns whether the candidate enters the set (recording its
  // ground truth if so); the outputs of accepted candidates are kept for
  // teacher_score().
  // Throws CheckError after 64 x `count` candidates.  With `pool`, the
  // teacher (and MakeInput) evaluate chunks of candidates on the pool's
  // threads, so MakeInput must be safe to call concurrently; a chunk is at
  // most max(still needed, lanes) candidates, which bounds the speculative
  // work to lanes - 1 candidates.
  using Accept = std::function<bool(const std::vector<infer::Tensor>&)>;
  void LabelWithTeacher(const graph::Graph& graph,
                        const infer::WeightStore& weights, std::size_t count,
                        const Accept& accept, const ThreadPool* pool);

  // Validation samples 0..count-1, for ground truth that needs no teacher.
  void UseFirst(std::size_t count);

  // Throws unless `outputs` holds one non-empty output per sample.
  void ExpectCovers(
      std::span<const std::vector<infer::Tensor>> outputs) const;

 private:
  std::vector<std::size_t> indices_;  // generator index per sample
  // The teacher's outputs per sample, until teacher_score() scores them.
  mutable std::vector<std::vector<infer::Tensor>> teacher_outputs_;
  mutable std::optional<double> teacher_score_;
};

}  // namespace mlpm::datasets
