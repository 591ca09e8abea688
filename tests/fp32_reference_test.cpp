// The FP32 reference score comes from the labelling pass (DESIGN.md §1):
// `TaskBundle::Fp32Score` returns the teacher's own score when the kernel
// ISA resolves to the teacher's table, and runs a fresh FP32 executor
// otherwise.  The oracle here is that fresh executor — the computation the
// reuse replaces — and the reuse must equal it exactly, at every pool size.
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datasets/superres_dataset.h"
#include "harness/task_bundle.h"
#include "infer/executor.h"
#include "infer/kernels/registry.h"
#include "models/superres.h"
#include "models/zoo.h"

namespace mlpm::harness {
namespace {

using infer::kernels::KernelIsa;

// The fresh FP32 executor's score over the bundle's validation set.
double ExecutorScore(const TaskBundle& bundle, const ThreadPool* pool,
                     KernelIsa isa) {
  const infer::Executor fp32(bundle.mini_graph(), bundle.weights(),
                             infer::NumericsMode::kFp32, nullptr, isa);
  return bundle.ScoreAccuracy(fp32, pool);
}

struct Case {
  models::SuiteVersion version;
  models::TaskType task;
  std::size_t threads;
};

std::string Describe(const Case& c) {
  return std::string(c.version == models::SuiteVersion::kV0_7 ? "v07_"
                                                               : "v10_") +
         std::string(models::ToString(c.task)) + "_threads" +
         std::to_string(c.threads);
}

// gtest names the case by its parameter; print it instead of its bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << Describe(c); }

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  return Describe(info.param);
}

std::unique_ptr<TaskBundle> BundleFor(const Case& c) {
  for (const models::BenchmarkEntry& e : models::SuiteFor(c.version))
    if (e.task == c.task) return TaskBundle::Create(e, c.version);
  ADD_FAILURE() << "no suite entry for " << models::ToString(c.task);
  return nullptr;
}

class Fp32Reference : public testing::TestWithParam<Case> {};

TEST_P(Fp32Reference, AutoIsTheTeacherScoreAndEqualsAFreshExecutor) {
  const Case& c = GetParam();
  const std::unique_ptr<TaskBundle> bundle = BundleFor(c);
  ASSERT_NE(bundle, nullptr);
  ThreadPool threads(c.threads);
  const ThreadPool* pool = c.threads > 1 ? &threads : nullptr;

  const double reused = bundle->Fp32Score(pool, KernelIsa::kAuto);
  // Fp32Score already scored and freed the kept outputs; the score stays.
  const std::optional<double> teacher = bundle->dataset().teacher_score();
  ASSERT_TRUE(teacher.has_value());
  EXPECT_EQ(reused, *teacher);
  EXPECT_EQ(reused, ExecutorScore(*bundle, pool, KernelIsa::kAuto));
}

TEST_P(Fp32Reference, ScalarEqualsAScalarExecutor) {
  const Case& c = GetParam();
  const std::unique_ptr<TaskBundle> bundle = BundleFor(c);
  ASSERT_NE(bundle, nullptr);
  ThreadPool threads(c.threads);
  const ThreadPool* pool = c.threads > 1 ? &threads : nullptr;

  EXPECT_EQ(bundle->Fp32Score(pool, KernelIsa::kScalar),
            ExecutorScore(*bundle, pool, KernelIsa::kScalar));
}

INSTANTIATE_TEST_SUITE_P(
    Tasks, Fp32Reference,
    testing::Values(
        Case{models::SuiteVersion::kV1_0,
             models::TaskType::kImageClassification, 1},
        Case{models::SuiteVersion::kV1_0,
             models::TaskType::kImageClassification, 4},
        Case{models::SuiteVersion::kV1_0, models::TaskType::kObjectDetection,
             1},
        Case{models::SuiteVersion::kV1_0, models::TaskType::kObjectDetection,
             4},
        Case{models::SuiteVersion::kV1_0,
             models::TaskType::kImageSegmentation, 1},
        Case{models::SuiteVersion::kV1_0,
             models::TaskType::kImageSegmentation, 4},
        Case{models::SuiteVersion::kV1_0,
             models::TaskType::kQuestionAnswering, 1},
        Case{models::SuiteVersion::kV1_0,
             models::TaskType::kQuestionAnswering, 4},
        Case{models::SuiteVersion::kV0_7, models::TaskType::kObjectDetection,
             1},
        Case{models::SuiteVersion::kV0_7, models::TaskType::kObjectDetection,
             4}),
    CaseName);

// Forwards to a real data set but reports a teacher score no executor
// can produce, so a test can tell which path Fp32ReferenceScore took.
class MarkedTeacherDataset final : public datasets::TaskDataset {
 public:
  MarkedTeacherDataset(const datasets::TaskDataset& inner, double marker)
      : inner_(inner), marker_(marker) {}
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::vector<infer::Tensor> InputsFor(
      std::size_t index) const override {
    return inner_.InputsFor(index);
  }
  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const override {
    return inner_.ScoreOutputs(outputs);
  }
  [[nodiscard]] std::string_view metric_name() const override {
    return inner_.metric_name();
  }
  [[nodiscard]] std::vector<infer::Tensor> CalibrationInputsFor(
      std::size_t index) const override {
    return inner_.CalibrationInputsFor(index);
  }
  [[nodiscard]] std::optional<double> teacher_score() const override {
    return marker_;
  }

 private:
  const datasets::TaskDataset& inner_;
  double marker_;
};

// The teacher score is taken exactly when the ISA resolves to the
// teacher's kAuto table; any other table (kScalar on an AVX2 host) runs
// its own FP32 executor.
TEST(Fp32ReferenceScore, UsesTheTeacherScoreOnlyOnTheTeachersTable) {
  const std::unique_ptr<TaskBundle> bundle =
      BundleFor({models::SuiteVersion::kV1_0,
                 models::TaskType::kImageClassification, 1});
  ASSERT_NE(bundle, nullptr);
  constexpr double kMarker = -1.0;
  const MarkedTeacherDataset ds(bundle->dataset(), kMarker);
  const infer::kernels::KernelRegistry& reg =
      infer::kernels::KernelRegistry::Global();
  for (const KernelIsa isa : {KernelIsa::kAuto, KernelIsa::kScalar,
                              KernelIsa::kAvx2, KernelIsa::kNeon}) {
    const double got = Fp32ReferenceScore(ds, bundle->mini_graph(),
                                          bundle->weights(), nullptr, isa);
    if (reg.Resolve(isa) == reg.Resolve(KernelIsa::kAuto)) {
      EXPECT_EQ(got, kMarker) << infer::kernels::ToString(isa);
    } else {
      EXPECT_EQ(got, ExecutorScore(*bundle, nullptr, isa))
          << infer::kernels::ToString(isa);
    }
  }
}

// A set built without a teacher (UseFirst) has no teacher score, so the
// reference runs a fresh FP32 executor even on the teacher's table.
TEST(Fp32ReferenceScore, DatasetWithoutTeacherFallsBackToTheExecutor) {
  const models::SuperResConfig cfg = models::MiniSuperResConfig();
  const graph::Graph g = models::BuildSuperResolution(cfg);
  const infer::WeightStore w = models::InitializeSuperResWeights(g, 7);
  datasets::SuperResDatasetConfig dc;
  dc.lr_size = cfg.lr_size;
  dc.num_samples = 8;
  const datasets::SuperResDataset ds(dc);
  EXPECT_FALSE(ds.teacher_score().has_value());

  const infer::Executor fp32(g, w);
  std::vector<std::vector<infer::Tensor>> outputs;
  for (std::size_t i = 0; i < ds.size(); ++i)
    outputs.push_back(fp32.Run(ds.InputsFor(i)));
  ThreadPool four(4);
  for (const ThreadPool* pool : {static_cast<const ThreadPool*>(nullptr),
                                 static_cast<const ThreadPool*>(&four)})
    EXPECT_EQ(Fp32ReferenceScore(ds, g, w, pool, KernelIsa::kAuto),
              ds.ScoreOutputs(outputs));
}

}  // namespace
}  // namespace mlpm::harness
