// Tests for the crash-safe submission journal (harness/journal.h over the
// journal of harness/frame_log.h): codec round trips (bit-exact doubles),
// writer/loader file round trips, the torn-write property (truncation at
// every byte offset of the last record recovers the longest valid prefix),
// corruption containment, and the headline crash/resume contract — a
// killed-and-resumed submission report is byte-identical to an
// uninterrupted same-seed run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "harness/app.h"
#include "harness/export.h"
#include "harness/journal.h"
#include "harness/report.h"
#include "soc/chipset.h"
#include "soc/faults.h"

namespace mlpm::harness {
namespace {

// A scratch file named after the running test, so test cases that run at
// the same time never share one.
std::string TmpPath(const std::string& name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string p = testing::TempDir();
  if (!p.empty() && p.back() != '/') p += '/';
  return p + info->test_suite_name() + "_" + info->name() + "_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

using TaskJournal = JournalLoad<JournalMeta, TaskRunResult>;

TaskJournal Load(const std::string& path) {
  return LoadJournal<JournalMeta, TaskRunResult>(path, kTaskRecordKind);
}

std::unique_ptr<JournalWriter<TaskRunResult>> Open(const std::string& path,
                                                   const JournalMeta& meta,
                                                   bool resume = false) {
  return OpenJournal<TaskRunResult>(path, meta, kTaskRecordKind, resume)
      .writer;
}

JournalMeta TestMeta() {
  JournalMeta m;
  m.chipset = "Test Chipset";
  m.version = "v1.0";
  m.seed = 0xC0FFEE;
  m.config_hash = 0x1234;
  return m;
}

// A task record exercising hostile content: multi-line logs, doubles that
// don't round-trip through decimal text, and every new counter.
TaskRunResult HostileTask(const std::string& id) {
  TaskRunResult t;
  t.entry.id = id;
  t.numerics = DataType::kInt8;
  t.framework_name = "TF,Lite \"nightly\"\nbuild";
  t.accelerator_label = "npu + dsp";
  t.accuracy = 1.0 / 3.0;  // no finite decimal representation
  t.fp32_reference = 0.1;
  t.ratio_to_fp32 = 0.9999999999999999;
  t.quality_passed = true;
  t.calibration_indices = {3, 1, 4, 1, 5};
  t.accuracy_sample_count = 128;
  t.dataset_size = 128;

  loadgen::TestResult ss;
  ss.sample_count = 3;
  ss.duration_s = 0.123456789123456789;
  ss.percentile_latency_s = 0x1.fffffffffffffp-7;  // exact hexfloat
  ss.mean_latency_s = 5e-324;                      // smallest denormal
  ss.latencies_s = {0.001, 1.0 / 7.0, 0x1.5p-3};
  ss.error_log = {"query 7 timed out", "line\nwith\nbreaks"};
  ss.log.SetField("seed", "123");
  ss.log.Record(loadgen::LogEventKind::kQueryIssued, 1, loadgen::Seconds{0.5});
  ss.log.Record(loadgen::LogEventKind::kQueryShed, 2, loadgen::Seconds{0.6});
  ss.log.Record(loadgen::LogEventKind::kQueryRejected, 1,
                loadgen::Seconds{0.7});
  t.single_stream = ss;

  t.energy_per_inference_j = 0.00123;
  t.peak_temperature_c = 43.5;
  t.peak_arena_bytes = 1 << 20;
  t.naive_activation_bytes = 1 << 22;
  t.status = TaskStatus::kValidDegraded;
  t.status_detail = "retried twice,\nwith\nbreaks";
  t.fault_count = 5;
  t.degradation_count = 2;
  t.shed_count = 7;
  t.rejected_count = 3;
  t.breaker_trips = 1;
  t.degraded_to_cpu = true;
  t.performance_attempts = 2;
  t.fault_log = "fault stall q=1\nbreaker closed->open query=9\n";
  t.lint_error_count = 0;
  t.lint_warning_count = 4;
  t.lint_log = "warning: something\nnote: probe failed on sample 0\n";
  t.kernel_isa = "avx2";
  t.tiling_requested = true;
  t.tiling_applied = true;
  t.tile_segments = 19;
  t.tile_rows = -1;  // auto: exercises the signed u64 image round trip
  t.tile_slab_bytes = 465920;
  return t;
}

TEST(Journal, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Journal, TaskRecordRoundTripsBitExact) {
  const TaskRunResult original = HostileTask("ic_tf");
  const TaskRunResult decoded =
      schema::Decode<TaskRunResult>(schema::Encode(original));

  EXPECT_EQ(decoded.entry.id, original.entry.id);
  EXPECT_EQ(decoded.numerics, original.numerics);
  EXPECT_EQ(decoded.framework_name, original.framework_name);
  EXPECT_EQ(decoded.accelerator_label, original.accelerator_label);
  // Bit-exact double round trip (hexfloat encoding), including values with
  // no finite decimal form and the smallest denormal.
  EXPECT_EQ(decoded.accuracy, original.accuracy);
  EXPECT_EQ(decoded.fp32_reference, original.fp32_reference);
  EXPECT_EQ(decoded.ratio_to_fp32, original.ratio_to_fp32);
  EXPECT_EQ(decoded.calibration_indices, original.calibration_indices);

  ASSERT_TRUE(decoded.single_stream.has_value());
  const loadgen::TestResult& a = *decoded.single_stream;
  const loadgen::TestResult& b = *original.single_stream;
  EXPECT_EQ(a.sample_count, b.sample_count);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.percentile_latency_s, b.percentile_latency_s);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.latencies_s, b.latencies_s);
  EXPECT_EQ(a.error_log, b.error_log);
  EXPECT_EQ(a.log.Serialize(), b.log.Serialize());
  EXPECT_FALSE(decoded.offline.has_value());

  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.status_detail, original.status_detail);
  EXPECT_EQ(decoded.shed_count, original.shed_count);
  EXPECT_EQ(decoded.rejected_count, original.rejected_count);
  EXPECT_EQ(decoded.breaker_trips, original.breaker_trips);
  EXPECT_EQ(decoded.degraded_to_cpu, original.degraded_to_cpu);
  EXPECT_EQ(decoded.performance_attempts, original.performance_attempts);
  EXPECT_EQ(decoded.fault_log, original.fault_log);
  EXPECT_EQ(decoded.lint_warning_count, original.lint_warning_count);
  EXPECT_EQ(decoded.lint_log, original.lint_log);
  EXPECT_EQ(decoded.kernel_isa, original.kernel_isa);
  EXPECT_EQ(decoded.tiling_requested, original.tiling_requested);
  EXPECT_EQ(decoded.tiling_applied, original.tiling_applied);
  EXPECT_EQ(decoded.tile_segments, original.tile_segments);
  EXPECT_EQ(decoded.tile_rows, original.tile_rows);
  EXPECT_EQ(decoded.tile_slab_bytes, original.tile_slab_bytes);
}

// A journal resumes only under the config hash it was written with.  These
// values were recorded from a build that still had the graph-transform
// option, which it hashed as "transform" = false; journals written by such
// a build without that option must keep resuming.
TEST(Journal, ConfigHashesMatchJournalsOfEarlierBuilds) {
  const soc::ChipsetDesc chipset = soc::Dimensity1100();
  constexpr models::SuiteVersion kV1_0 = models::SuiteVersion::kV1_0;
  EXPECT_EQ(HashRunConfig(chipset, kV1_0, RunOptions{}),
            0xa8904ac08d11423cULL);

  // headless_cli --kernel-isa scalar --tile 8 --faults 0.2 --fault-seed 7
  RunOptions o;
  o.kernel_isa = infer::kernels::KernelIsa::kScalar;
  o.tiling.enabled = true;
  o.tiling.rows = 8;
  soc::FaultPlan plan;
  plan.seed = 7;
  plan.DriverCrashes(0.2);
  o.fault_plan = plan;
  o.performance_settings.query_timeout = loadgen::Seconds{10.0};
  EXPECT_EQ(HashRunConfig(chipset, kV1_0, o), 0x800fab452d88aecfULL);
}

TEST(Journal, MetaRoundTrips) {
  const JournalMeta m = TestMeta();
  const JournalMeta back = schema::Decode<JournalMeta>(schema::Encode(m));
  EXPECT_TRUE(back == m);
}

TEST(Journal, DecodeRejectsGarbage) {
  EXPECT_THROW((void)schema::Decode<TaskRunResult>("not a record"),
               CheckError);
  EXPECT_THROW((void)schema::Decode<JournalMeta>("u seed not-a-number\n"),
               CheckError);
}

TEST(Journal, WriterThenLoaderRoundTripsAFile) {
  const std::string path = TmpPath("journal_roundtrip.mjl");
  std::remove(path.c_str());
  {
    const auto w = Open(path, TestMeta());
    w->Append(HostileTask("ic_tf"));
    w->Append(HostileTask("od_ssd"));
  }
  const TaskJournal load = Load(path);
  ASSERT_TRUE(load.meta.has_value());
  EXPECT_TRUE(*load.meta == TestMeta());
  EXPECT_EQ(load.records.size(), 2u);
  EXPECT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].entry.id, "ic_tf");
  EXPECT_EQ(load.records[1].entry.id, "od_ssd");
  std::remove(path.c_str());
}

TEST(Journal, MissingFileIsNotValid) {
  const TaskJournal load = Load(TmpPath("does_not_exist.mjl"));
  EXPECT_FALSE(load.meta.has_value());
  EXPECT_EQ(load.records.size(), 0u);
}

// The torn-write property: truncate the file at *every* byte offset inside
// the last record's frame.  Whatever the cut, the loader must recover
// exactly the earlier record, flag the tail, and a resuming writer must be
// able to cut the tail and append successfully.
TEST(Journal, TruncationAtEveryByteOffsetOfLastRecordRecovers) {
  const std::string path = TmpPath("journal_torn.mjl");
  std::remove(path.c_str());
  std::size_t first_record_end = 0;
  {
    const auto w = Open(path, TestMeta());
    w->Append(HostileTask("ic_tf"));
    first_record_end = ReadFile(path).size();
    w->Append(HostileTask("od_ssd"));
  }
  const std::string full = ReadFile(path);
  ASSERT_GT(full.size(), first_record_end);

  const std::string torn_path = TmpPath("journal_torn_cut.mjl");
  for (std::size_t cut = first_record_end; cut < full.size(); ++cut) {
    WriteFile(torn_path, full.substr(0, cut));
    const TaskJournal load = Load(torn_path);
    ASSERT_TRUE(load.meta.has_value()) << "cut at " << cut;
    ASSERT_EQ(load.records.size(), 1u) << "cut at " << cut;
    ASSERT_EQ(load.records[0].entry.id, "ic_tf") << "cut at " << cut;
    ASSERT_EQ(load.torn_tail, cut != first_record_end) << "cut at " << cut;
    ASSERT_EQ(load.valid_prefix_bytes, first_record_end) << "cut at " << cut;

    // A resuming writer cuts the tail and appends cleanly.
    {
      const auto w = Open(torn_path, TestMeta(), true);
      w->Append(HostileTask("od_ssd"));
    }
    const TaskJournal healed = Load(torn_path);
    ASSERT_EQ(healed.records.size(), 2u) << "cut at " << cut;
    ASSERT_FALSE(healed.torn_tail) << "cut at " << cut;
  }
  std::remove(path.c_str());
  std::remove(torn_path.c_str());
}

TEST(Journal, CorruptedRecordInvalidatesOnlyTheSuffix) {
  const std::string path = TmpPath("journal_corrupt.mjl");
  std::remove(path.c_str());
  std::size_t first_record_end = 0;
  {
    const auto w = Open(path, TestMeta());
    w->Append(HostileTask("ic_tf"));
    first_record_end = ReadFile(path).size();
    w->Append(HostileTask("od_ssd"));
  }
  std::string bytes = ReadFile(path);
  // Flip one byte inside the *second* record's frame.
  bytes[first_record_end + 1] ^= 0x01;
  WriteFile(path, bytes);
  const TaskJournal load = Load(path);
  EXPECT_TRUE(load.meta.has_value());
  EXPECT_EQ(load.records.size(), 1u);
  EXPECT_TRUE(load.torn_tail);
  EXPECT_FALSE(load.notes.empty());
  std::remove(path.c_str());
}

TEST(Journal, ResumeWithMismatchedMetaStartsFresh) {
  const std::string path = TmpPath("journal_mismatch.mjl");
  std::remove(path.c_str());
  {
    const auto w = Open(path, TestMeta());
    w->Append(HostileTask("ic_tf"));
  }
  JournalMeta other = TestMeta();
  other.seed = 999;  // different run configuration
  { const auto w = Open(path, other, true); }
  const TaskJournal load = Load(path);
  ASSERT_TRUE(load.meta.has_value());
  EXPECT_TRUE(*load.meta == other);
  EXPECT_EQ(load.records.size(), 0u);  // old records discarded
  std::remove(path.c_str());
}

// ---- crash / resume integration ----

SuiteBundles& Bundles() {
  static SuiteBundles bundles;
  return bundles;
}

RunOptions FastPerfOptions() {
  RunOptions o;
  o.run_accuracy = false;
  o.performance_settings.min_query_count = 64;
  o.performance_settings.min_duration = loadgen::Seconds{0.5};
  o.performance_settings.offline_sample_count = 2048;
  o.cooldown_s = 30.0;
  return o;
}

// Kills a run after two tasks, resumes it, and returns the interrupted
// run's journal bytes.  A performance-only run with a pool runs its tasks
// concurrently, claims them in task order and journals them in task order.
std::string ExpectKilledRunResumesIdentically(int threads) {
  RunOptions options = FastPerfOptions();
  options.threads = threads;
  // Baseline: an uninterrupted run.
  const SubmissionResult baseline =
      RunSubmission(soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(),
                    options);
  EXPECT_EQ(baseline.tasks.size(), 4u);

  // "Kill" the run after two tasks via cooperative cancellation (the CLI's
  // SIGINT handler drives the same RunOptions::cancel hook).
  const std::string path =
      TmpPath("journal_resume_" + std::to_string(threads) + ".mjl");
  std::remove(path.c_str());
  RunOptions interrupted_opts = options;
  interrupted_opts.journal_path = path;
  int checks = 0;
  interrupted_opts.cancel = [&checks] { return ++checks > 2; };
  const SubmissionResult interrupted =
      RunSubmission(soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(),
                    interrupted_opts);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.tasks.size(), 2u);
  // The partial report says so explicitly.
  EXPECT_NE(FormatSubmission(interrupted).find("run state: interrupted"),
            std::string::npos);
  const std::string journal = ReadFile(path);

  // Resume from the journal: the two finished tasks replay from disk, the
  // other two run now.
  RunOptions resume_opts = options;
  resume_opts.journal_path = path;
  resume_opts.resume = true;
  const SubmissionResult resumed =
      RunSubmission(soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(),
                    resume_opts);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed_tasks, 2u);
  EXPECT_EQ(resumed.tasks.size(), 4u);

  // The headline contract: report and CSV are byte-identical to the
  // uninterrupted run.
  EXPECT_EQ(FormatSubmission(resumed), FormatSubmission(baseline));
  EXPECT_EQ(ToCsv(resumed), ToCsv(baseline));
  std::remove(path.c_str());
  return journal;
}

TEST(JournalResume, KilledRunResumesToAByteIdenticalReport) {
  (void)ExpectKilledRunResumesIdentically(1);
}

TEST(JournalResume, KilledRunResumesToAByteIdenticalReportOnFourThreads) {
  // The interrupted journal is the serial run's, byte for byte.
  EXPECT_EQ(ExpectKilledRunResumesIdentically(4),
            ExpectKilledRunResumesIdentically(1));
}

// The cancel hook turns true once the journal holds its first record: its
// second poll waits for that record (up to a minute).  `cancel` is polled
// before each task starts, and a finished task is journaled while the run
// goes on, so the run stops after exactly one task at any thread count.
TEST(JournalResume, CancelStopsTheRunOnceTheFirstRecordIsDurable) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::string path =
        TmpPath("journal_first_record_" + std::to_string(threads) + ".mjl");
    std::remove(path.c_str());
    RunOptions options = FastPerfOptions();
    options.threads = threads;
    options.journal_path = path;
    int polls = 0;
    bool waited_out = false;
    options.cancel = [&] {
      if (++polls < 2) return false;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::minutes(1);
      while (Load(path).records.empty()) {
        if (std::chrono::steady_clock::now() > deadline) {
          waited_out = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return true;
    };
    const SubmissionResult r = RunSubmission(
        soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(), options);
    EXPECT_FALSE(waited_out) << "no record was journaled during the run";
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(polls, 2);
    ASSERT_EQ(r.tasks.size(), 1u);
    EXPECT_EQ(r.tasks[0].entry.id, "image_classification");
    const TaskJournal load = Load(path);
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(load.records[0].entry.id, "image_classification");
    EXPECT_FALSE(load.torn_tail);
    std::remove(path.c_str());
  }
}

TEST(JournalResume, ResumeIgnoresJournalFromDifferentConfig) {
  const std::string path = TmpPath("journal_other_config.mjl");
  std::remove(path.c_str());
  RunOptions first = FastPerfOptions();
  first.journal_path = path;
  int checks = 0;
  first.cancel = [&checks] { return ++checks > 1; };
  (void)RunSubmission(soc::Exynos2100(), models::SuiteVersion::kV1_0,
                      Bundles(), first);

  // Same journal path, different seed: nothing may replay.
  RunOptions second = FastPerfOptions();
  second.journal_path = path;
  second.resume = true;
  second.performance_settings.seed = 4242;
  const SubmissionResult r = RunSubmission(
      soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(), second);
  EXPECT_EQ(r.resumed_tasks, 0u);
  EXPECT_EQ(r.tasks.size(), 4u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlpm::harness
