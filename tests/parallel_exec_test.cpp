// Bit-exactness of the sample-level fan-outs: samples run in parallel
// against the serial allocate-per-node oracle (oracle.h), and the deferred
// ReferenceBackend, pooled QSL staging and threaded harness against their
// serial counterparts.  Every comparison is EXPECT_EQ on floats (or
// bytes): the engine promises bit-identical results for any thread count.
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "backends/reference_backend.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "harness/export.h"
#include "harness/report.h"
#include "harness/run_session.h"
#include "harness/task_bundle.h"
#include "infer/executor.h"
#include "infer/weights.h"
#include "models/zoo.h"
#include "obs/trace.h"
#include "oracle.h"

namespace mlpm {
namespace {

// Deterministic pseudo-random inputs for a graph (QA token ids included:
// the embedding lookup clamps, so any float is legal).
std::vector<infer::Tensor> GraphInputs(const graph::Graph& g,
                                       std::uint64_t seed) {
  std::vector<infer::Tensor> inputs;
  Rng rng(seed);
  for (const graph::TensorId id : g.input_ids()) {
    infer::Tensor t(g.tensor(id).shape);
    for (auto& v : t.values()) v = static_cast<float>(rng.NextUniform(0.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

TEST(ParallelExecutor, RunSamplesParallelMatchesSerialLoop) {
  ThreadPool pool(4);
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = models::BuildReferenceGraph(
      e, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
  const infer::WeightStore weights = infer::InitializeWeights(g, 7);
  const infer::Executor exec(g, weights);

  constexpr std::size_t kSamples = 9;
  const auto inputs_for = [&](std::size_t i) {
    return GraphInputs(g, 1000 + i);
  };
  const auto parallel =
      infer::RunSamplesParallel(exec, kSamples, inputs_for, &pool);
  ASSERT_EQ(parallel.size(), kSamples);
  for (std::size_t s = 0; s < kSamples; ++s) {
    const std::vector<infer::Tensor> serial =
        testutil::RunOracle(exec, inputs_for(s));
    ASSERT_EQ(serial.size(), parallel[s].size());
    for (std::size_t o = 0; o < serial.size(); ++o)
      for (std::size_t i = 0; i < serial[o].size(); ++i)
        EXPECT_EQ(serial[o].at(i), parallel[s][o].at(i)) << "sample " << s;
  }

  // Inputs staged beforehand and handed over as views (what the deferred
  // ReferenceBackend does with its QSL) give the same outputs.
  std::vector<std::vector<infer::Tensor>> staged;
  for (std::size_t s = 0; s < kSamples; ++s) staged.push_back(inputs_for(s));
  const auto viewed = infer::RunSamplesParallel(
      exec, kSamples,
      [&](std::size_t i) -> infer::SampleInputs {
        return std::span<const infer::Tensor>(staged[i]);
      },
      &pool);
  ASSERT_EQ(viewed.size(), kSamples);
  for (std::size_t s = 0; s < kSamples; ++s) {
    ASSERT_EQ(viewed[s].size(), parallel[s].size());
    for (std::size_t o = 0; o < viewed[s].size(); ++o)
      for (std::size_t i = 0; i < viewed[s][o].size(); ++i)
        EXPECT_EQ(viewed[s][o].at(i), parallel[s][o].at(i)) << "sample " << s;
  }
}

TEST(ReferenceBackend, DeferredAccuracyMatchesSerial) {
  ThreadPool pool(4);
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const std::unique_ptr<harness::TaskBundle> bundle =
      harness::TaskBundle::Create(e, models::SuiteVersion::kV1_0);
  const infer::Executor exec(bundle->mini_graph(), bundle->weights());

  loadgen::TestSettings acc;
  acc.mode = loadgen::TestMode::kAccuracyOnly;

  loadgen::DatasetQsl serial_qsl(bundle->dataset());
  loadgen::RealClock serial_clock;
  backends::ReferenceBackend serial_sut("serial", exec, serial_qsl);
  const loadgen::TestResult serial =
      loadgen::RunTest(serial_sut, serial_qsl, acc, serial_clock);

  loadgen::DatasetQsl par_qsl(bundle->dataset());
  loadgen::RealClock par_clock;
  backends::ReferenceBackend par_sut("deferred", exec, par_qsl, &pool);
  const loadgen::TestResult parallel =
      loadgen::RunTest(par_sut, par_qsl, acc, par_clock);

  EXPECT_TRUE(serial.invalid_reason.empty()) << serial.invalid_reason;
  EXPECT_TRUE(parallel.invalid_reason.empty()) << parallel.invalid_reason;
  ASSERT_EQ(serial.accuracy_outputs.size(), parallel.accuracy_outputs.size());
  for (std::size_t s = 0; s < serial.accuracy_outputs.size(); ++s) {
    ASSERT_EQ(serial.accuracy_outputs[s].size(),
              parallel.accuracy_outputs[s].size());
    for (std::size_t o = 0; o < serial.accuracy_outputs[s].size(); ++o)
      for (std::size_t i = 0; i < serial.accuracy_outputs[s][o].size(); ++i)
        EXPECT_EQ(serial.accuracy_outputs[s][o].at(i),
                  parallel.accuracy_outputs[s][o].at(i))
            << "sample " << s;
  }
  EXPECT_EQ(bundle->dataset().ScoreOutputs(serial.accuracy_outputs),
            bundle->dataset().ScoreOutputs(parallel.accuracy_outputs));
}

// True when `got` holds the same tensors as `want`, byte for byte.
bool SameBytes(const std::vector<infer::Tensor>& got,
               const std::vector<infer::Tensor>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t o = 0; o < got.size(); ++o)
    if (got[o].shape() != want[o].shape() ||
        std::memcmp(got[o].data(), want[o].data(),
                    got[o].size() * sizeof(float)) != 0)
      return false;
  return true;
}

std::vector<std::size_t> Indices(std::size_t begin, std::size_t end) {
  std::vector<std::size_t> v(end - begin);
  std::iota(v.begin(), v.end(), begin);
  return v;
}

TEST(DatasetQslStaging, PooledStagingEqualsInputsFor) {
  // Image classification and object detection: the two largest staged
  // sets of an accuracy submission.
  const auto& suite = models::SuiteFor(models::SuiteVersion::kV1_0);
  for (const std::size_t task : {0u, 1u}) {
    const std::unique_ptr<harness::TaskBundle> bundle =
        harness::TaskBundle::Create(suite[task], models::SuiteVersion::kV1_0);
    const datasets::TaskDataset& ds = bundle->dataset();
    const std::vector<std::size_t> all = Indices(0, ds.size());
    for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
      ThreadPool pool(threads);
      loadgen::DatasetQsl qsl(ds, 0, &pool);
      qsl.LoadSamplesToRam(all);
      for (const std::size_t i : all)
        ASSERT_TRUE(SameBytes(qsl.Loaded(i), ds.InputsFor(i)))
            << suite[task].id << ", " << threads << " threads, sample " << i;
    }
  }
}

TEST(DatasetQslStaging, RestagingKeepsStagedTensors) {
  const std::unique_ptr<harness::TaskBundle> bundle =
      harness::TaskBundle::Create(
          models::SuiteFor(models::SuiteVersion::kV1_0)[0],
          models::SuiteVersion::kV1_0);
  const datasets::TaskDataset& ds = bundle->dataset();
  ThreadPool pool(4);
  loadgen::DatasetQsl qsl(ds, 0, &pool);
  qsl.LoadSamplesToRam(Indices(0, 10));
  std::vector<const float*> first;
  for (std::size_t i = 0; i < 10; ++i) first.push_back(qsl.Loaded(i)[0].data());

  qsl.LoadSamplesToRam(Indices(5, 15));
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(qsl.Loaded(i)[0].data(), first[i]) << "sample " << i;
  for (std::size_t i = 0; i < 15; ++i)
    EXPECT_TRUE(SameBytes(qsl.Loaded(i), ds.InputsFor(i))) << "sample " << i;
  EXPECT_THROW((void)qsl.Loaded(15), CheckError);

  qsl.UnloadSamplesFromRam(Indices(0, 5));
  EXPECT_THROW((void)qsl.Loaded(0), CheckError);
  EXPECT_NO_THROW((void)qsl.Loaded(5));
}

TEST(ParallelHarness, AccuracyIdenticalAcrossThreadCounts) {
  // Full accuracy phase through RunSubmission at 1 vs 4 threads, each with
  // fresh bundles so the 4-thread run labels its data sets and calibrates
  // its INT8 models on the pool: every reported number, and the report and
  // CSV bytes, must match to the last bit.
  harness::RunOptions options;
  options.run_performance = false;
  const auto run = [&](int threads) {
    harness::SuiteBundles bundles;
    options.threads = threads;
    return harness::RunSubmission(soc::Dimensity1100(),
                                  models::SuiteVersion::kV1_0, bundles,
                                  options);
  };
  const harness::SubmissionResult serial = run(1);
  const harness::SubmissionResult threaded = run(4);

  ASSERT_EQ(serial.tasks.size(), threaded.tasks.size());
  for (std::size_t t = 0; t < serial.tasks.size(); ++t) {
    EXPECT_EQ(serial.tasks[t].accuracy, threaded.tasks[t].accuracy)
        << serial.tasks[t].entry.id;
    EXPECT_EQ(serial.tasks[t].fp32_reference,
              threaded.tasks[t].fp32_reference);
    EXPECT_EQ(serial.tasks[t].accuracy_sample_count,
              threaded.tasks[t].accuracy_sample_count);
    EXPECT_EQ(serial.tasks[t].calibration_indices,
              threaded.tasks[t].calibration_indices);
    EXPECT_EQ(serial.tasks[t].status, threaded.tasks[t].status);
  }
  EXPECT_EQ(harness::ToCsv(serial), harness::ToCsv(threaded));
  EXPECT_EQ(harness::FormatSubmission(serial),
            harness::FormatSubmission(threaded));
}

TEST(ParallelHarness, TracedRunSpansEachLabelAndCalibratePass) {
  // One datasets.label span per task whose data set the run labels (all
  // four v1.0 tasks) and one quant.calibrate span per INT8/UINT8 task.
  harness::SuiteBundles bundles;
  harness::RunOptions options;
  options.run_performance = false;
  options.threads = 4;
  options.profile = true;
  const harness::SubmissionResult result = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, bundles, options);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Disable();

  std::size_t quantized = 0;
  for (const harness::TaskRunResult& t : result.tasks)
    quantized += t.numerics == DataType::kInt8 || t.numerics == DataType::kUInt8;
  std::size_t label_spans = 0;
  std::size_t calibrate_spans = 0;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    if (e.domain != obs::Domain::kHost ||
        e.phase != obs::EventPhase::kComplete)
      continue;
    label_spans += e.name == "datasets.label";
    calibrate_spans += e.name == "quant.calibrate";
  }
  EXPECT_EQ(label_spans, result.tasks.size());
  EXPECT_GT(quantized, 0u);
  EXPECT_EQ(calibrate_spans, quantized);
}

}  // namespace
}  // namespace mlpm
