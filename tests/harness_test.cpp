// Integration tests for the harness: task bundles, the full submission
// flow, the submission checker, the audit, the result store, and the app.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <random>

#include "harness/app.h"
#include "harness/audit.h"
#include "harness/checker.h"
#include "harness/report.h"
#include "backends/vendor_policy.h"
#include "core/dataset_qsl.h"
#include "datasets/calibration_set.h"
#include "datasets/stub_dataset.h"
#include "harness/result_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"

namespace mlpm::harness {
namespace {

// Bundles are expensive (teacher labelling); share them across all tests in
// this binary.
SuiteBundles& Bundles() {
  static SuiteBundles bundles;
  return bundles;
}

RunOptions FastOptions() {
  RunOptions o;
  o.performance_settings.min_query_count = 64;
  o.performance_settings.min_duration = loadgen::Seconds{0.5};
  o.performance_settings.offline_sample_count = 2048;
  o.cooldown_s = 30.0;
  return o;
}

const SubmissionResult& CachedD1100Run() {
  static const SubmissionResult r = RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, Bundles(),
      FastOptions());
  return r;
}

TEST(TaskBundle, CreatesAllFourTasks) {
  for (const auto& e : models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const TaskBundle& b = Bundles().Get(e, models::SuiteVersion::kV1_0);
    EXPECT_GT(b.dataset().size(), 0u);
    EXPECT_GT(b.mini_graph().ParameterCount(), 0);
  }
}

TEST(TaskBundle, Fp32ScoreCachedAndStable) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const TaskBundle& b = Bundles().Get(e, models::SuiteVersion::kV1_0);
  const double a = b.Fp32Score();
  EXPECT_DOUBLE_EQ(a, b.Fp32Score());
  EXPECT_GT(a, 0.5);
}

TEST(TaskBundle, Int8PreparationUsesApprovedCalibration) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const TaskBundle& b = Bundles().Get(e, models::SuiteVersion::kV1_0);
  const TaskBundle::PreparedModel p = b.Prepare(infer::NumericsMode::kInt8);
  EXPECT_EQ(p.calibration_indices.size(), kCalibrationSetSize);
  EXPECT_NE(p.executor, nullptr);
}

TEST(TaskBundle, OfficialCalibrationIndicesMatchAFreshDraw) {
  // Drawn once per process and shared by Prepare and the checker; the
  // shared set is the one a fresh draw at the official constants gives.
  const std::vector<std::size_t>& shared = OfficialCalibrationIndices();
  EXPECT_EQ(shared, datasets::ApprovedCalibrationIndices(
                        kCalibrationPoolSize, kCalibrationSetSize,
                        kCalibrationSeed));
  EXPECT_EQ(&shared, &OfficialCalibrationIndices());
}

TEST(TaskBundle, Fp16PreparationHasNoCalibration) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const TaskBundle& b = Bundles().Get(e, models::SuiteVersion::kV1_0);
  EXPECT_TRUE(b.Prepare(infer::NumericsMode::kFp16)
                  .calibration_indices.empty());
}

// ---- the performance plane's sample source ----

TEST(TaskBundle, ConfiguredSizeIsTheLabelledSize) {
  for (const models::SuiteVersion version :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0})
    for (const auto& e : models::SuiteFor(version)) {
      const TaskBundle& b = Bundles().Get(e, version);
      EXPECT_EQ(b.dataset_size(), b.dataset().size())
          << ToString(version) << "/" << e.id;
    }
}

// One traced single-stream test: its log, its latencies, and the sample
// index of every query the LoadGen issued (from the trace's `sample` args).
struct SampledRun {
  std::string log;
  std::vector<double> latencies_s;
  std::vector<std::string> samples;
};

SampledRun RunSampled(const models::BenchmarkEntry& e,
                      const datasets::TaskDataset& source) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph full = models::BuildReferenceGraph(
      e, models::SuiteVersion::kV1_0, models::ModelScale::kFull);
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  const loadgen::TestResult r = testutil::RunSingleStreamPerformance(
      chip,
      backends::GetSubmission(chip, e.task, models::SuiteVersion::kV1_0),
      full, source, FastOptions().performance_settings);
  rec.Disable();
  SampledRun out{r.log.Serialize(), r.latencies_s, {}};
  for (const obs::TraceEvent& ev : rec.Snapshot())
    if (ev.domain == obs::Domain::kLoadGen)
      for (const obs::TraceArg& arg : ev.args)
        if (arg.key == "sample") out.samples.push_back(arg.value);
  return out;
}

TEST(RunSingleStreamPerformance, SizedStubStandsInForTheLabelledSet) {
  for (const auto& e : models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const TaskBundle& b = Bundles().Get(e, models::SuiteVersion::kV1_0);
    const SampledRun labelled = RunSampled(e, b.dataset());
    const SampledRun stub =
        RunSampled(e, datasets::StubDataset(b.dataset_size()));
    EXPECT_EQ(labelled.log, stub.log) << e.id;
    EXPECT_EQ(labelled.latencies_s, stub.latencies_s) << e.id;
    ASSERT_FALSE(labelled.samples.empty()) << e.id;
    EXPECT_EQ(labelled.samples, stub.samples) << e.id;
    // The size is what matters: one sample more draws other indices.
    EXPECT_NE(labelled.samples,
              RunSampled(e, datasets::StubDataset(b.dataset_size() + 1))
                  .samples)
        << e.id;
  }
}

TEST(RunSubmission, PerformanceOnlyRunCreatesNoExecutor) {
  // Every ExecutionContext records the infer.arena_bytes gauge, and the
  // teacher that labels a data set runs through one.  A performance-only
  // submission and its check need neither.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  SuiteBundles fresh;
  RunOptions o = FastOptions();
  o.run_accuracy = false;
  const SubmissionResult r = RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, fresh, o);
  const CheckReport check = CheckSubmission(r, o.performance_settings);
  EXPECT_TRUE(check.valid) << FormatCheckReport(check);
  const obs::MetricsRegistry::Snapshot snap = metrics.Snap();
  for (const auto& gauge : snap.gauges)
    EXPECT_NE(gauge.first, "infer.arena_bytes");
  EXPECT_GT(metrics.counter("soc.inferences"), 0u);
  metrics.Reset();
}

TEST(RunSubmission, ProducesAllTasksWithResults) {
  const SubmissionResult& r = CachedD1100Run();
  ASSERT_EQ(r.tasks.size(), 4u);
  for (const TaskRunResult& t : r.tasks) {
    EXPECT_GT(t.accuracy, 0.0);
    EXPECT_GT(t.ratio_to_fp32, 0.8);
    EXPECT_TRUE(t.quality_passed);
    ASSERT_TRUE(t.single_stream.has_value());
    EXPECT_GT(t.single_stream->percentile_latency_s, 0.0);
    EXPECT_GT(t.energy_per_inference_j, 0.0);
  }
}

TEST(RunSubmission, QualityPassesAcrossAllEightChipsets) {
  // The headline integration property: every vendor submission in both
  // rounds clears its quality target and validates.
  const SubmissionResult& r = CachedD1100Run();
  for (const TaskRunResult& t : r.tasks)
    EXPECT_TRUE(t.quality_passed) << t.entry.id;
}

TEST(RunSubmission, PerformanceOnlySkipsAccuracy) {
  RunOptions o = FastOptions();
  o.run_accuracy = false;
  const SubmissionResult r = RunSubmission(
      soc::Snapdragon888(), models::SuiteVersion::kV1_0, Bundles(), o);
  for (const TaskRunResult& t : r.tasks) {
    EXPECT_EQ(t.accuracy, 0.0);
    EXPECT_TRUE(t.single_stream.has_value());
  }
}

TEST(RunSubmission, EndToEndModeIsSlower) {
  RunOptions base = FastOptions();
  base.run_accuracy = false;
  base.run_offline = false;
  RunOptions e2e = base;
  e2e.end_to_end = true;
  const SubmissionResult a = RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, Bundles(), base);
  const SubmissionResult b = RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, Bundles(), e2e);
  for (std::size_t i = 0; i < a.tasks.size(); ++i)
    EXPECT_GT(b.tasks[i].single_stream->percentile_latency_s,
              a.tasks[i].single_stream->percentile_latency_s);
}

TEST(RunSubmission, OfflineOnlyWhereSubmitted) {
  RunOptions o = FastOptions();
  o.run_accuracy = false;
  const SubmissionResult mediatek = RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, Bundles(), o);
  EXPECT_FALSE(mediatek.tasks[0].offline.has_value());
  const SubmissionResult samsung = RunSubmission(
      soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(), o);
  ASSERT_TRUE(samsung.tasks[0].offline.has_value());
  EXPECT_EQ(samsung.tasks[0].offline->sample_count, 2048u);
}

TEST(RunSubmission, KernelDispatchCountersSumOverTasks) {
  // Each task adds its share of its cached executor's dispatch counts, so
  // kernels.dispatch.* is the run's sum over tasks, not one executor's
  // running total.  The first run builds the executors; the second reuses
  // them and is the one measured.
  RunOptions o = FastOptions();
  o.run_performance = false;
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  constexpr models::SuiteVersion kV = models::SuiteVersion::kV1_0;
  (void)RunSubmission(chip, kV, Bundles(), o);
  std::vector<const infer::Executor*> executors;
  for (const models::BenchmarkEntry& e : models::SuiteFor(kV))
    executors.push_back(
        Bundles()
            .Get(e, kV)
            .Prepare(NumericsModeFor(
                backends::GetSubmission(chip, e.task, kV).numerics))
            .executor);
  const auto task_counts = [&] {
    std::vector<infer::KernelDispatchCounts> counts;
    for (const infer::Executor* exec : executors)
      counts.push_back(exec->dispatch_counts());
    return counts;
  };
  const std::string prefix =
      "kernels.dispatch." +
      std::string(infer::kernels::ToString(executors[0]->kernel_isa())) + ".";
  obs::MetricsRegistry& mr = obs::MetricsRegistry::Global();
  const auto registry_counts = [&] {
    return std::array<std::uint64_t, 3>{
        mr.counter(prefix + "conv2d"), mr.counter(prefix + "depthwise_conv2d"),
        mr.counter(prefix + "fully_connected")};
  };

  const std::vector<infer::KernelDispatchCounts> before = task_counts();
  const std::array<std::uint64_t, 3> registry_before = registry_counts();
  (void)RunSubmission(chip, kV, Bundles(), o);
  const std::vector<infer::KernelDispatchCounts> after = task_counts();
  const std::array<std::uint64_t, 3> registry_after = registry_counts();

  std::array<std::uint64_t, 3> sum{};
  std::size_t tasks_with_conv = 0;
  for (std::size_t i = 0; i < executors.size(); ++i) {
    sum[0] += after[i].conv2d - before[i].conv2d;
    sum[1] += after[i].depthwise_conv2d - before[i].depthwise_conv2d;
    sum[2] += after[i].fully_connected - before[i].fully_connected;
    tasks_with_conv += after[i].conv2d > before[i].conv2d ? 1 : 0;
  }
  EXPECT_GE(tasks_with_conv, 2u);  // a sum, not one task's count
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_EQ(registry_after[k] - registry_before[k], sum[k]) << k;
}

// ---- checker ----

TEST(Checker, AcceptsValidSubmission) {
  const CheckReport r =
      CheckSubmission(CachedD1100Run(), FastOptions().performance_settings);
  EXPECT_TRUE(r.valid) << FormatCheckReport(r);
}

TEST(Checker, RejectsBelowQualityTarget) {
  SubmissionResult bad = CachedD1100Run();
  bad.tasks[0].quality_passed = false;
  bad.tasks[0].ratio_to_fp32 = 0.5;
  const CheckReport r =
      CheckSubmission(bad, FastOptions().performance_settings);
  EXPECT_FALSE(r.valid);
}

TEST(Checker, RejectsWrongSeed) {
  const SubmissionResult& good = CachedD1100Run();
  loadgen::TestSettings expected = FastOptions().performance_settings;
  expected.seed = 999;  // checker expects this seed; the log has the default
  const CheckReport r = CheckSubmission(good, expected);
  EXPECT_FALSE(r.valid);
}

TEST(Checker, RejectsEditedLog) {
  const SubmissionResult& good = CachedD1100Run();
  std::string log = good.tasks[0].single_stream->log.Serialize();
  // "Improve" the reported percentile: the checker recomputes from events.
  const std::string key = "field result_percentile_latency_s ";
  const auto pos = log.find(key);
  ASSERT_NE(pos, std::string::npos);
  const auto eol = log.find('\n', pos);
  log.replace(pos, eol - pos, key + "0.000001");
  loadgen::TestSettings expected = FastOptions().performance_settings;
  expected.scenario = loadgen::TestScenario::kSingleStream;
  expected.mode = loadgen::TestMode::kPerformanceOnly;
  const CheckReport r = CheckPerformanceLog(log, expected);
  EXPECT_FALSE(r.valid);
}

TEST(Checker, RejectsTruncatedLog) {
  const SubmissionResult& good = CachedD1100Run();
  std::string log = good.tasks[0].single_stream->log.Serialize();
  log.resize(log.size() / 2);
  log.resize(log.find_last_of('\n'));  // cut at a line boundary
  loadgen::TestSettings expected = FastOptions().performance_settings;
  const CheckReport r = CheckPerformanceLog(log, expected);
  EXPECT_FALSE(r.valid);
}

TEST(Checker, RejectsUnapprovedCalibration) {
  SubmissionResult bad = CachedD1100Run();
  bad.tasks[0].calibration_indices.push_back(999'999);
  const CheckReport r =
      CheckSubmission(bad, FastOptions().performance_settings);
  EXPECT_FALSE(r.valid);
}

TEST(Checker, RejectsTooShortRun) {
  const SubmissionResult& good = CachedD1100Run();
  loadgen::TestSettings expected = FastOptions().performance_settings;
  expected.min_query_count = 1'000'000;  // impossible floor
  const CheckReport r = CheckSubmission(good, expected);
  EXPECT_FALSE(r.valid);
}


TEST(Checker, ValidatesServerLogs) {
  loadgen::VirtualClock clock;
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model = models::BuildReferenceGraph(
      models::SuiteFor(models::SuiteVersion::kV1_0)[0],
      models::SuiteVersion::kV1_0, models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageClassification,
      models::SuiteVersion::kV1_0);
  backends::SimulatedBackend sut("srv", soc::SocSimulator(chip),
                                 backends::CompileSubmission(chip, sub,
                                                             model),
                                 {}, clock);
  const TaskBundle& bundle = Bundles().Get(
      models::SuiteFor(models::SuiteVersion::kV1_0)[0],
      models::SuiteVersion::kV1_0);
  loadgen::DatasetQsl qsl(bundle.dataset());
  loadgen::TestSettings s;
  s.scenario = loadgen::TestScenario::kServer;
  s.server_target_qps = 100.0;
  s.server_query_count = 256;
  s.server_latency_bound = loadgen::Seconds{0.02};
  const loadgen::TestResult r = loadgen::RunTest(sut, qsl, s, clock);
  EXPECT_TRUE(r.latency_bound_met);
  const CheckReport ok = CheckPerformanceLog(r.log.Serialize(), s);
  EXPECT_TRUE(ok.valid) << FormatCheckReport(ok);
  // An impossible bound must be flagged from the raw events.
  loadgen::TestSettings strict = s;
  strict.server_latency_bound = loadgen::Seconds{1e-6};
  EXPECT_FALSE(CheckPerformanceLog(r.log.Serialize(), strict).valid);
}


TEST(Checker, AccountsForShedQueriesInServerLogs) {
  // A server run with admission control sheds part of a 2x overload; the
  // checker must accept the log when the declared shed budget covers it
  // (completions + shed + rejected must tally to the offered count) and
  // flag it when the budget is tighter than what the run shed.
  class FixedLatencySut final : public loadgen::SystemUnderTest {
   public:
    explicit FixedLatencySut(loadgen::VirtualClock& clock) : clock_(clock) {}
    [[nodiscard]] std::string_view name() const override { return "fixed"; }
    void IssueQuery(std::span<const loadgen::QuerySample> samples,
                    loadgen::ResponseSink& sink) override {
      for (const loadgen::QuerySample& s : samples) {
        clock_.Advance(loadgen::Seconds{0.001});
        sink.Complete(loadgen::QuerySampleResponse{s.id, {}});
      }
    }

   private:
    loadgen::VirtualClock& clock_;
  };
  loadgen::VirtualClock clock;
  FixedLatencySut sut(clock);
  const TaskBundle& bundle = Bundles().Get(
      models::SuiteFor(models::SuiteVersion::kV1_0)[0],
      models::SuiteVersion::kV1_0);
  loadgen::DatasetQsl qsl(bundle.dataset());
  loadgen::TestSettings s;
  s.scenario = loadgen::TestScenario::kServer;
  s.server_target_qps = 2000.0;  // 2x the 1 ms service capacity
  s.server_query_count = 512;
  s.server_latency_bound = loadgen::Seconds{0.01};
  s.server_max_queue_depth = 8;
  s.server_max_shed_fraction = 0.6;
  const loadgen::TestResult r = loadgen::RunTest(sut, qsl, s, clock);
  ASSERT_GT(r.shed_count, 0u);
  EXPECT_TRUE(r.shed_bound_met);
  const CheckReport ok = CheckPerformanceLog(r.log.Serialize(), s);
  EXPECT_TRUE(ok.valid) << FormatCheckReport(ok);
  // The same log fails a submission that only declared a 1% shed budget.
  loadgen::TestSettings strict = s;
  strict.server_max_shed_fraction = 0.01;
  EXPECT_FALSE(CheckPerformanceLog(r.log.Serialize(), strict).valid);
}

TEST(Checker, OutOfRangeQueryIdIsAProblem) {
  // LoadGen ids run 1..N and every id has an event, so an id of 0 or one
  // past the log's event count cannot come from the LoadGen.  Each such id,
  // in each kind of event line, is reported — never thrown, and never
  // passed, as an in-order issue/complete pair once was.
  loadgen::TestSettings s;
  s.min_query_count = 2;
  s.min_duration = loadgen::Seconds{0.0};
  loadgen::TestLog base;
  base.SetField("seed", std::to_string(s.seed));
  base.SetField("scenario", std::string(ToString(s.scenario)));
  base.SetField("mode", std::string(ToString(s.mode)));
  for (std::uint64_t id = 1; id <= 2; ++id) {
    base.Record(loadgen::LogEventKind::kQueryIssued, id,
                loadgen::Seconds{0.002 * static_cast<double>(id)});
    base.Record(loadgen::LogEventKind::kQueryCompleted, id,
                loadgen::Seconds{0.002 * static_cast<double>(id) + 0.001});
  }
  const CheckReport ok = CheckPerformanceLog(base.Serialize(), s);
  ASSERT_TRUE(ok.valid) << FormatCheckReport(ok);

  using Kind = loadgen::LogEventKind;
  for (const Kind kind : {Kind::kQueryIssued, Kind::kQueryCompleted,
                          Kind::kQueryShed, Kind::kQueryRejected}) {
    // An issue comes with its completion, so that pair adds two events.
    const std::size_t added = kind == Kind::kQueryIssued ? 2 : 1;
    const std::uint64_t past_end = base.events().size() + added + 1;
    for (const std::uint64_t id :
         {std::uint64_t{0}, past_end,
          std::numeric_limits<std::uint64_t>::max()}) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                   " id " + std::to_string(id));
      loadgen::TestLog log = base;
      log.Record(kind, id, loadgen::Seconds{0.01});
      if (kind == Kind::kQueryIssued)
        log.Record(Kind::kQueryCompleted, id, loadgen::Seconds{0.011});
      CheckReport r;
      ASSERT_NO_THROW(r = CheckPerformanceLog(log.Serialize(), s));
      EXPECT_FALSE(r.valid);
      const std::string want = "query " + std::to_string(id) + " out of range";
      EXPECT_NE(std::find(r.problems.begin(), r.problems.end(), want),
                r.problems.end())
          << FormatCheckReport(r);
    }
  }
}

TEST(QualityAnchors, EveryNumericsModeClearsItsTable1Target) {
  // Covers all (task, numerics) combinations any vendor submits: vision
  // INT8 on phones and laptops, NLP FP16 on phones, NLP INT8 on laptops.
  // Samsung v0.7 + Intel v1.0 together span that set.
  const SubmissionResult samsung = RunSubmission(
      soc::Exynos990(), models::SuiteVersion::kV0_7, Bundles(),
      FastOptions());
  for (const TaskRunResult& t : samsung.tasks)
    EXPECT_TRUE(t.quality_passed)
        << "Exynos990 " << t.entry.id << " ratio " << t.ratio_to_fp32;
  RunOptions acc_only = FastOptions();
  acc_only.run_performance = false;
  const SubmissionResult intel = RunSubmission(
      soc::CoreI7_11375H(), models::SuiteVersion::kV1_0, Bundles(),
      acc_only);
  for (const TaskRunResult& t : intel.tasks)
    EXPECT_TRUE(t.quality_passed)
        << "i7 " << t.entry.id << " ratio " << t.ratio_to_fp32;
}

TEST(Checker, RejectsScenarioMismatch) {
  const SubmissionResult& good = CachedD1100Run();
  loadgen::TestSettings expected = FastOptions().performance_settings;
  expected.scenario = loadgen::TestScenario::kOffline;  // log says SS
  expected.mode = loadgen::TestMode::kPerformanceOnly;
  const CheckReport r = CheckPerformanceLog(
      good.tasks[0].single_stream->log.Serialize(), expected);
  EXPECT_FALSE(r.valid);
}

TEST(Checker, RejectsPartialAccuracyCoverage) {
  SubmissionResult bad = CachedD1100Run();
  bad.tasks[0].accuracy_sample_count = bad.tasks[0].dataset_size / 2;
  const CheckReport r =
      CheckSubmission(bad, FastOptions().performance_settings);
  EXPECT_FALSE(r.valid);
}

// ---- audit ----

TEST(Audit, ReproducibleSubmissionAccepted) {
  const AuditReport r = AuditSubmission(
      soc::Dimensity1100(), CachedD1100Run(), Bundles(), FastOptions());
  EXPECT_TRUE(r.accepted) << FormatAuditReport(r);
  EXPECT_FALSE(r.findings.empty());
  for (const AuditFinding& f : r.findings)
    EXPECT_LT(f.relative_delta, 0.05);
}

TEST(Audit, InflatedClaimRejected) {
  SubmissionResult inflated = CachedD1100Run();
  inflated.tasks[0].single_stream->percentile_latency_s /= 2.0;  // claim 2x
  const AuditReport r = AuditSubmission(
      soc::Dimensity1100(), inflated, Bundles(), FastOptions());
  EXPECT_FALSE(r.accepted);
}

TEST(Audit, WrongAccuracyClaimRejected) {
  SubmissionResult inflated = CachedD1100Run();
  inflated.tasks[0].accuracy = 1.0;
  const AuditReport r = AuditSubmission(
      soc::Dimensity1100(), inflated, Bundles(), FastOptions());
  EXPECT_FALSE(r.accepted);
}


// ---- hostile single-stream logs ----

// The serialized single-stream log of the cached image-classification run,
// and the settings CheckPerformanceLog judges it against.
const std::string& ImageClassificationLog() {
  static const std::string log = [] {
    for (const TaskRunResult& t : CachedD1100Run().tasks)
      if (t.entry.id == "image_classification")
        return t.single_stream->log.Serialize();
    return std::string();
  }();
  return log;
}

loadgen::TestSettings SingleStreamSettings() {
  loadgen::TestSettings ss = FastOptions().performance_settings;
  ss.scenario = loadgen::TestScenario::kSingleStream;
  ss.mode = loadgen::TestMode::kPerformanceOnly;
  return ss;
}

TEST(Checker, ForgedCompletionRejected) {
  std::string log = ImageClassificationLog();
  const auto pos = log.find("complete ");
  ASSERT_NE(pos, std::string::npos);
  log.insert(pos, "complete 99999 0.0\n");  // forged completion
  EXPECT_FALSE(CheckPerformanceLog(log, SingleStreamSettings()).valid);
}

TEST(Checker, UnparseableSummaryFieldRejected) {
  std::string log = ImageClassificationLog();
  const std::string key = "field result_throughput_sps ";
  const auto pos = log.find(key);
  ASSERT_NE(pos, std::string::npos);
  const auto begin = pos + key.size();
  const auto eol = log.find('\n', begin);
  ASSERT_GT(eol, begin);
  log.replace(begin, eol - begin, std::string(eol - begin, 'x'));
  const CheckReport r = CheckPerformanceLog(log, SingleStreamSettings());
  EXPECT_FALSE(r.valid);
  EXPECT_TRUE(std::any_of(r.problems.begin(), r.problems.end(),
                          [](const std::string& p) {
                            return p.find("unparseable log field: "
                                          "result_throughput_sps") !=
                                   std::string::npos;
                          }))
      << FormatCheckReport(r);
}

TEST(Checker, SeededLogMutationsAlwaysYieldAReport) {
  // Hostile-input property for the LoadGen log boundary: 2,000 seeded
  // 1-4 byte edits of a real single-stream log (overwrite, insert or
  // delete; bytes biased toward the grammar's own separators, digits and
  // number spellings).  The checker must return a report for each.
  const std::string& original = ImageClassificationLog();
  const loadgen::TestSettings ss = SingleStreamSettings();
  ASSERT_TRUE(CheckPerformanceLog(original, ss).valid);

  constexpr std::string_view kAlphabet = "0123456789 \n\r\t.-+eEnaif\0x";
  std::mt19937_64 rng(20221);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto random_byte = [&]() -> char {
    return pick(2) == 0 ? kAlphabet[pick(kAlphabet.size())]
                        : static_cast<char>(pick(256));
  };
  std::size_t rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string log = original;
    for (std::size_t edits = 1 + pick(4); edits > 0; --edits) {
      const std::size_t at = pick(log.size());
      switch (pick(3)) {
        case 0: log[at] = random_byte(); break;
        case 1: log.insert(log.begin() + static_cast<std::ptrdiff_t>(at),
                           random_byte()); break;
        default: log.erase(at, 1); break;
      }
    }
    CheckReport direct;
    ASSERT_NO_THROW(direct = CheckPerformanceLog(log, ss)) << trial;
    if (!direct.valid) ++rejected;
  }
  // Most edits land in event lines and must be caught (1,858 of 2,000
  // at this seed).
  EXPECT_GT(rejected, 1500u);
}

// ---- result store ----

TEST(ResultStore, LatestPerDeviceKeepsNewest) {
  ResultStore store;
  SubmissionResult a;
  a.chipset_name = "X";
  a.version = models::SuiteVersion::kV1_0;
  store.Add("2021-01-01", a);
  store.Add("2021-06-01", a);
  store.Add("2021-03-01", a);
  const auto latest = store.LatestPerDevice();
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest[0].date_iso, "2021-06-01");
  EXPECT_EQ(store.HistoryFor("X").size(), 3u);
}

TEST(ResultStore, DistinguishesVersions) {
  ResultStore store;
  SubmissionResult a;
  a.chipset_name = "X";
  a.version = models::SuiteVersion::kV0_7;
  store.Add("2020-10-01", a);
  a.version = models::SuiteVersion::kV1_0;
  store.Add("2021-04-01", a);
  EXPECT_EQ(store.LatestPerDevice().size(), 2u);
}

TEST(ResultStore, HistorySortedByDate) {
  ResultStore store;
  SubmissionResult a;
  a.chipset_name = "X";
  store.Add("2021-06-01", a);
  store.Add("2021-01-01", a);
  const auto h = store.HistoryFor("X");
  ASSERT_EQ(h.size(), 2u);
  EXPECT_LT(h[0].date_iso, h[1].date_iso);
}

TEST(ResultStore, RejectsBadDate) {
  ResultStore store;
  EXPECT_THROW(store.Add("June 1st", SubmissionResult{}), CheckError);
}

// ---- report / app ----

TEST(Report, SubmissionTableContainsConfiguration) {
  const std::string s = FormatSubmission(CachedD1100Run());
  EXPECT_NE(s.find("Dimensity 1100"), std::string::npos);
  EXPECT_NE(s.find("Neuron Delegate"), std::string::npos);
  EXPECT_NE(s.find("FP16"), std::string::npos);  // transparency: numerics
  EXPECT_NE(s.find("PASS"), std::string::npos);
}

TEST(App, RunsAndValidates) {
  const AppRunOutput out = RunMobileApp(
      soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(),
      FastOptions());
  EXPECT_TRUE(out.submission_valid) << out.checker_text;
  EXPECT_NE(out.report_text.find("Exynos 2100"), std::string::npos);
  EXPECT_EQ(out.result.tasks.size(), 4u);
}

}  // namespace
}  // namespace mlpm::harness
