// Performance-only submissions run their tasks, and RunMobileApp checks
// them, on the --threads pool.  Each task runs into its own slot and the
// results, the journal records and the checker's problems fold in task
// order, so no output may depend on the thread count: the report, the
// CSV, the checker text and the journal bytes are compared at 1-4 threads
// on every v1.0 chipset, clean and under a fault plan with a circuit
// breaker.  A traced run keeps its tasks inline, in start order, so its
// trace is the same too.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness/app.h"
#include "harness/checker.h"
#include "harness/export.h"
#include "obs/trace.h"
#include "soc/chipset.h"

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

RunOptions FastPerfOptions(int threads) {
  RunOptions o;
  o.run_accuracy = false;
  o.performance_settings.min_query_count = 64;
  o.performance_settings.min_duration = loadgen::Seconds{0.5};
  o.performance_settings.offline_sample_count = 2048;
  o.cooldown_s = 30.0;
  o.threads = threads;
  return o;
}

// Everything a performance-only run puts out.
struct Outputs {
  std::string report;
  std::string csv;
  std::string checker;
  std::string journal;
  std::vector<std::string> task_ids;
  std::vector<TaskStatus> statuses;
  std::string fault_logs;
};

Outputs RunApp(const soc::ChipsetDesc& chipset, RunOptions options,
               const std::string& journal_name) {
  SuiteBundles bundles;
  options.journal_path = TmpPath(journal_name);
  std::remove(options.journal_path.c_str());
  const AppRunOutput app =
      RunMobileApp(chipset, models::SuiteVersion::kV1_0, bundles, options);
  Outputs out{app.report_text, ToCsv(app.result), app.checker_text,
              ReadFile(options.journal_path), {}, {}, {}};
  for (const TaskRunResult& t : app.result.tasks) {
    out.task_ids.push_back(t.entry.id);
    out.statuses.push_back(t.status);
    out.fault_logs += t.fault_log;
  }
  std::remove(options.journal_path.c_str());
  return out;
}

void ExpectSame(const Outputs& got, const Outputs& want) {
  EXPECT_EQ(got.report, want.report);
  EXPECT_EQ(got.csv, want.csv);
  EXPECT_EQ(got.checker, want.checker);
  EXPECT_EQ(got.journal, want.journal);
  EXPECT_EQ(got.task_ids, want.task_ids);
  EXPECT_EQ(got.statuses, want.statuses);
  EXPECT_EQ(got.fault_logs, want.fault_logs);
}

TEST(TaskFanOut, PerformanceOnlyOutputsIdenticalAtEveryThreadCount) {
  for (const soc::ChipsetDesc& chipset : soc::CatalogV10()) {
    SCOPED_TRACE(chipset.name);
    const Outputs serial = RunApp(chipset, FastPerfOptions(1), "fanout.mjl");
    ASSERT_EQ(serial.task_ids.size(), 4u);
    EXPECT_FALSE(serial.journal.empty());
    for (const int threads : {2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectSame(RunApp(chipset, FastPerfOptions(threads), "fanout.mjl"),
                 serial);
    }
  }
}

TEST(TaskFanOut, FaultPlanAndBreakerOutputsIdenticalAtEveryThreadCount) {
  const auto options = [](int threads) {
    RunOptions o = FastPerfOptions(threads);
    o.performance_settings.query_timeout = loadgen::Seconds{10.0};
    soc::FaultPlan plan;
    plan.SampleDrops(0.3);
    o.fault_plan = plan;
    o.circuit_breaker = backends::CircuitBreakerOptions{};
    return o;
  };
  for (const soc::ChipsetDesc& chipset : soc::CatalogV10()) {
    SCOPED_TRACE(chipset.name);
    const Outputs serial = RunApp(chipset, options(1), "fanout_faults.mjl");
    ASSERT_EQ(serial.task_ids.size(), 4u);
    EXPECT_NE(serial.fault_logs.find("breaker"), std::string::npos);
    for (const int threads : {2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectSame(RunApp(chipset, options(threads), "fanout_faults.mjl"),
                 serial);
    }
  }
}

TEST(TaskFanOut, AThrowingTaskIsErroredInItsOwnSlot) {
  // An invalid backoff jitter makes the fault-tolerant backend throw at
  // construction: every task errors, each in its own slot and in suite
  // order, with the same journal as a serial run.
  const auto options = [](int threads) {
    RunOptions o = FastPerfOptions(threads);
    o.fault_plan = soc::FaultPlan{};
    o.fault_tolerance.backoff_jitter_frac = 2.5;
    return o;
  };
  const soc::ChipsetDesc chipset = soc::Dimensity1100();
  const Outputs serial = RunApp(chipset, options(1), "fanout_throw.mjl");
  const Outputs fanned = RunApp(chipset, options(4), "fanout_throw.mjl");
  ExpectSame(fanned, serial);
  std::vector<std::string> suite_ids;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0))
    suite_ids.push_back(e.id);
  EXPECT_EQ(fanned.task_ids, suite_ids);
  for (const TaskStatus s : fanned.statuses) EXPECT_EQ(s, TaskStatus::kErrored);
}

// A profiled run's trace and report, from a forked child: the
// simulators' trace epochs run on across the traced runs of one process,
// so each run starts from the same copy of this one.
std::string TracedRunInAChild(int threads) {
  const std::string path =
      TmpPath("fanout_trace_" + std::to_string(threads) + ".txt");
  std::remove(path.c_str());
  const pid_t pid = fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    return {};
  }
  if (pid == 0) {
    int code = 1;  // any failure in the child is its exit status
    try {
      RunOptions o = FastPerfOptions(threads);
      o.profile = true;
      SuiteBundles bundles;
      const AppRunOutput app = RunMobileApp(
          soc::Exynos2100(), models::SuiteVersion::kV1_0, bundles, o);
      std::ofstream out(path, std::ios::binary);
      out << obs::TraceRecorder::Global().ToChromeJson() << '\n'
          << app.report_text << app.checker_text;
      code = out ? 0 : 1;
    } catch (...) {
    }
    _exit(code);
  }
  int status = -1;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  return text;
}

TEST(TaskFanOut, ProfiledRunTracesTheSameAtOneAndFourThreads) {
  const std::string serial = TracedRunInAChild(1);
  EXPECT_NE(serial.find("\"cat\":\"soc\""), std::string::npos);
  EXPECT_NE(serial.find("\"cat\":\"query\""), std::string::npos);
  EXPECT_EQ(TracedRunInAChild(4), serial);
}

bool HasProblemStartingWith(const CheckReport& report,
                            const std::string& prefix) {
  for (const std::string& p : report.problems)
    if (p.starts_with(prefix)) return true;
  return false;
}

TEST(TaskFanOut, CheckSubmissionOnAPoolEqualsTheSerialCheck) {
  // A submission with problems in several tasks, and in both logs of one
  // task: the pooled check claims each task's rules and each log as an
  // item of its own and folds them in task order, rules first, then the
  // single-stream log, then the offline log.
  SuiteBundles bundles;
  SubmissionResult r = RunSubmission(soc::Exynos2100(),
                                     models::SuiteVersion::kV1_0, bundles,
                                     FastPerfOptions(1));
  ASSERT_EQ(r.tasks.size(), 4u);
  const std::string ic = r.tasks[0].entry.id;
  ASSERT_TRUE(r.tasks[0].offline.has_value());
  r.tasks[0].offline->log.SetField("seed", "1");  // the offline log fails
  r.tasks[1].dataset_size = 10;  // accuracy coverage and quality problems
  r.tasks[3].offline.reset();
  loadgen::TestSettings expected = FastPerfOptions(1).performance_settings;
  expected.min_query_count = 1'000'000;  // every single-stream log fails
  const CheckReport serial = CheckSubmission(r, expected);
  ASSERT_GT(serial.problems.size(), 4u);
  EXPECT_TRUE(HasProblemStartingWith(serial, ic + ": "));
  EXPECT_TRUE(HasProblemStartingWith(serial, ic + " (offline): "));
  EXPECT_TRUE(HasProblemStartingWith(serial, r.tasks[1].entry.id +
                                                 ": accuracy 0.0"));
  // The serial check is the per-task checks, concatenated in task order.
  std::vector<std::string> concatenated;
  for (const TaskRunResult& task : r.tasks)
    for (const std::string& p : CheckTaskRun(task, expected).problems)
      concatenated.push_back(p);
  EXPECT_EQ(serial.problems, concatenated);
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    const ThreadPool pool(threads);
    const CheckReport pooled = CheckSubmission(r, expected, &pool);
    EXPECT_EQ(pooled.problems, serial.problems) << threads << " threads";
    EXPECT_EQ(pooled.valid, serial.valid);
  }
}

}  // namespace
}  // namespace mlpm::harness
