// The recorded-log check against its text oracle.  The checker judges a
// recorded log from its events (CheckTaskRun), reading each timestamp as
// the double its written text parses to, and sends a log with a timestamp
// off that exact path through its text (CheckPerformanceLog).  Both must
// give the same problems, in the same order, for every scenario's log, for
// hostile edits of it and for timestamps on either side of the exact path's
// edges.  Also pinned: the
// multi-stream check's single walk against the former two-walk derivation
// kept here.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/statistics.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "core/logging.h"
#include "datasets/stub_dataset.h"
#include "harness/checker.h"

namespace mlpm::harness {
namespace {

using loadgen::LogEvent;
using loadgen::LogEventKind;
using loadgen::Seconds;
using loadgen::TestLog;
using loadgen::TestScenario;
using loadgen::TestSettings;

// Completes each sample 0.5 ms after it starts; with `reject_every` set,
// fast-fails every such id instead (an open breaker).
class StepSut final : public loadgen::SystemUnderTest {
 public:
  StepSut(loadgen::VirtualClock& clock, std::uint64_t reject_every)
      : clock_(clock), reject_every_(reject_every) {}
  [[nodiscard]] std::string_view name() const override { return "step"; }
  void IssueQuery(std::span<const loadgen::QuerySample> samples,
                  loadgen::ResponseSink& sink) override {
    for (const loadgen::QuerySample& s : samples) {
      clock_.Advance(Seconds{0.0005});
      if (reject_every_ != 0 && s.id % reject_every_ == 0)
        sink.Reject(s.id, "breaker open");
      else
        sink.Complete(loadgen::QuerySampleResponse{s.id, {}});
    }
  }

 private:
  loadgen::VirtualClock& clock_;
  std::uint64_t reject_every_;
};

TestSettings BaseSettings() {
  TestSettings s;
  s.min_query_count = 64;
  s.min_duration = Seconds{0.05};
  s.offline_sample_count = 256;
  s.server_target_qps = 4000.0;  // 2x the 0.5 ms service capacity
  s.server_query_count = 256;
  s.server_max_queue_depth = 4;
  s.server_max_shed_fraction = 0.6;
  s.multistream_samples_per_query = 4;
  s.multistream_query_count = 64;
  s.multistream_interval = Seconds{0.004};
  return s;
}

TestLog Record(TestScenario scenario, std::uint64_t reject_every = 0) {
  TestSettings s = BaseSettings();
  s.scenario = scenario;
  loadgen::VirtualClock clock;
  StepSut sut(clock, reject_every);
  const datasets::StubDataset samples(16);
  loadgen::DatasetQsl qsl(samples);
  return loadgen::RunTest(sut, qsl, s, clock).log;
}

// One recorded log of each scenario; the server log sheds and rejects.
std::vector<std::pair<std::string, TestLog>> RecordedLogs() {
  return {{"single_stream", Record(TestScenario::kSingleStream)},
          {"offline", Record(TestScenario::kOffline)},
          {"server", Record(TestScenario::kServer, 7)},
          {"multi_stream", Record(TestScenario::kMultiStream)}};
}

double LastTime(const TestLog& log) {
  return log.events().back().timestamp.count();
}

// The next id past the log's events: in range once one event is added.
std::uint64_t NextId(const TestLog& log) { return log.events().size() + 1; }

// Hostile edits of a recorded log, each made in memory.
struct Edit {
  std::string name;
  std::function<void(TestLog&)> apply;
};

// Issues one more query at `issue` and completes it at `complete`.
Edit Query(std::string name, double issue, double complete) {
  return {std::move(name), [issue, complete](TestLog& l) {
            const std::uint64_t id = NextId(l);
            l.Record(LogEventKind::kQueryIssued, id, Seconds{issue});
            l.Record(LogEventKind::kQueryCompleted, id, Seconds{complete});
          }};
}

// The last double whose nanosecond count is below 2^53, where reading
// the recorded timestamp exactly ends.
double LastExactTimestamp() {
  constexpr std::uint64_t kExactNanos = std::uint64_t{1} << 53;
  double t = 9007199.254740992;  // 2^53 ns
  while (*loadgen::TimestampNanoseconds(t) >= kExactNanos)
    t = std::nextafter(t, 0.0);
  return t;
}

std::vector<Edit> Edits() {
  using K = LogEventKind;
  const double last_exact = LastExactTimestamp();
  const double first_inexact = std::nextafter(last_exact, 1e7);
  return {
      {"none", [](TestLog&) {}},
      {"id 0",
       [](TestLog& l) {
         l.Record(K::kQueryCompleted, 0, Seconds{LastTime(l)});
       }},
      {"id past the end",
       [](TestLog& l) {
         l.Record(K::kQueryIssued, NextId(l) + 1, Seconds{LastTime(l)});
       }},
      {"id u64 max",
       [](TestLog& l) {
         l.Record(K::kQueryShed, std::numeric_limits<std::uint64_t>::max(),
                  Seconds{LastTime(l)});
       }},
      {"issue twice",
       [](TestLog& l) {
         const std::uint64_t id = NextId(l);
         const double t = LastTime(l);
         l.Record(K::kQueryIssued, id, Seconds{t + 0.001});
         l.Record(K::kQueryIssued, id, Seconds{t + 0.002});
         l.Record(K::kQueryCompleted, id, Seconds{t + 0.003});
       }},
      {"completion before its issue",
       [](TestLog& l) {
         const std::uint64_t id = NextId(l);
         const double t = LastTime(l);
         l.Record(K::kQueryIssued, id, Seconds{t + 0.5});
         l.Record(K::kQueryCompleted, id, Seconds{t + 0.25});
       }},
      {"completion in line before its issue",
       [](TestLog& l) {
         const std::uint64_t id = NextId(l);
         const double t = LastTime(l);
         l.Record(K::kQueryCompleted, id, Seconds{t + 0.001});
         l.Record(K::kQueryIssued, id, Seconds{t + 0.002});
       }},
      {"completion for an unknown id",
       [](TestLog& l) {
         l.Record(K::kQueryCompleted, 2, Seconds{LastTime(l) + 0.01});
       }},
      {"rejection for an unknown id",
       [](TestLog& l) {
         l.Record(K::kQueryRejected, 3, Seconds{LastTime(l) + 0.01});
       }},
      {"shed after issue",
       [](TestLog& l) {
         const std::uint64_t id = NextId(l);
         const double t = LastTime(l);
         l.Record(K::kQueryIssued, id, Seconds{t + 0.001});
         l.Record(K::kQueryShed, id, Seconds{t + 0.001});
         l.Record(K::kQueryCompleted, id, Seconds{t + 0.004});
       }},
      {"non-monotonic issues",
       [](TestLog& l) {
         const std::uint64_t id = NextId(l);
         const double t = LastTime(l);
         l.Record(K::kQueryIssued, id, Seconds{t + 0.01});
         l.Record(K::kQueryCompleted, id, Seconds{t + 0.02});
         l.Record(K::kQueryIssued, id + 1, Seconds{t + 0.005});
         l.Record(K::kQueryCompleted, id + 1, Seconds{t + 0.03});
       }},
      {"reissue of a completed query",
       [](TestLog& l) {
         const double t = LastTime(l);
         l.Record(K::kQueryIssued, 1, Seconds{t + 0.001});
         l.Record(K::kQueryCompleted, 1, Seconds{t + 0.02});
         l.Record(K::kQueryCompleted, 1, Seconds{t + 0.03});
       }},
      {"never completed",
       [](TestLog& l) {
         l.Record(K::kQueryIssued, NextId(l), Seconds{LastTime(l) + 0.001});
       }},
      {"unparseable summary fields",
       [](TestLog& l) {
         l.SetField("result_throughput_sps", "fast");
         l.SetField("result_percentile_latency_s", "1e999");
       }},
      {"wrong seed", [](TestLog& l) { l.SetField("seed", "7"); }},
      {"missing seed",
       [](TestLog& l) {
         TestLog copy;
         for (const auto& [key, value] : l.fields())
           if (key != "seed") copy.SetField(key, value);
         for (const LogEvent& e : l.events())
           copy.Record(e.kind, e.query_id, e.timestamp);
         l = copy;
       }},
      {"non-finite timestamp",
       [](TestLog& l) {
         l.Record(K::kQueryIssued, NextId(l),
                  Seconds{std::numeric_limits<double>::quiet_NaN()});
       }},
      // Timestamps at the edges of the exact path: 2^33 s and 2^53 ns,
      // each side; signed and infinite values; a subnormal; exact binary
      // ties at the ninth decimal.
      Query("at 2^33 s", 0x1p33, 0x1p33),
      Query("below 2^33 s", std::nextafter(0x1p33, 0.0),
            std::nextafter(0x1p33, 0.0)),
      Query("below 2^53 ns", last_exact, last_exact),
      Query("at or past 2^53 ns", first_inexact, first_inexact),
      Query("-0.0", -0.0, -0.0),
      Query("-1 ns", -1e-9, -1e-9),
      Query("+inf", std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()),
      Query("subnormal", std::numeric_limits<double>::denorm_min(),
            std::numeric_limits<double>::denorm_min()),
      Query("ties at the ninth decimal", 0.0009765625, 0.0029296875),
      // Issued 0.4 ns and completed 0.1 ns past a whole nanosecond: both
      // are written as that nanosecond, so the text holds no inversion.
      {"sub-nanosecond order",
       [](TestLog& l) {
         const double base = std::ceil(LastTime(l)) + 1.0;
         const std::uint64_t id = NextId(l);
         l.Record(K::kQueryIssued, id, Seconds{base + 0.4e-9});
         l.Record(K::kQueryCompleted, id, Seconds{base + 0.1e-9});
       }},
  };
}

// The problems CheckTaskRun must report for a task holding `log` as both
// of its performance logs: the text oracle's, prefixed as the task does.
std::vector<std::string> TextOracle(const TestLog& log,
                                    const TestSettings& expected,
                                    const std::string& id) {
  std::vector<std::string> want;
  const std::string text = log.Serialize();
  TestSettings ss = expected;
  ss.scenario = TestScenario::kSingleStream;
  ss.mode = loadgen::TestMode::kPerformanceOnly;
  for (const std::string& p : CheckPerformanceLog(text, ss).problems)
    want.push_back(id + ": " + p);
  TestSettings off = expected;
  off.scenario = TestScenario::kOffline;
  off.mode = loadgen::TestMode::kPerformanceOnly;
  for (const std::string& p : CheckPerformanceLog(text, off).problems)
    want.push_back(id + " (offline): " + p);
  return want;
}

TEST(RecordedCheck, EqualsTheTextCheckOnEveryScenarioAndEdit) {
  const TestSettings expected = BaseSettings();
  for (const auto& [scenario, recorded] : RecordedLogs()) {
    for (const Edit& edit : Edits()) {
      SCOPED_TRACE(scenario + " / " + edit.name);
      TestLog log = recorded;
      edit.apply(log);
      TaskRunResult task;
      task.entry.id = "task";
      task.numerics = DataType::kFloat16;  // no calibration set to check
      task.single_stream.emplace().log = log;
      task.offline.emplace().log = log;
      const CheckReport got = CheckTaskRun(task, expected);
      EXPECT_EQ(got.problems, TextOracle(log, expected, "task"));
    }
  }
}

TEST(RecordedCheck, HostileEditsYieldTheirProblems) {
  // Spot checks that the edits above reach the problems they aim at, so
  // the equality test compares non-trivial lists.
  const TestLog base = Record(TestScenario::kOffline);
  const auto problems = [&](const std::string& name) {
    for (const Edit& edit : Edits())
      if (edit.name == name) {
        TestLog log = base;
        edit.apply(log);
        TaskRunResult task;
        task.entry.id = "t";
        task.numerics = DataType::kFloat16;
        task.offline.emplace().log = log;
        return CheckTaskRun(task, BaseSettings()).problems;
      }
    ADD_FAILURE() << "no edit " << name;
    return std::vector<std::string>{};
  };
  const auto has = [](const std::vector<std::string>& ps,
                      const std::string& want) {
    for (const std::string& p : ps)
      if (p.find(want) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(has(problems("id 0"), "query 0 out of range"));
  EXPECT_TRUE(has(problems("id u64 max"), "18446744073709551615 out of range"));
  EXPECT_TRUE(has(problems("issue twice"), "issued twice"));
  EXPECT_TRUE(has(problems("completion before its issue"),
                  "completed before it was issued"));
  EXPECT_TRUE(has(problems("completion for an unknown id"),
                  "completion for unknown query 2"));
  EXPECT_TRUE(has(problems("rejection for an unknown id"),
                  "rejection for unknown query 3"));
  EXPECT_TRUE(has(problems("shed after issue"), "both issued and shed"));
  EXPECT_TRUE(has(problems("non-monotonic issues"),
                  "issue timestamps are not monotonic"));
  EXPECT_TRUE(has(problems("unparseable summary fields"),
                  "unparseable log field: result_throughput_sps"));
  EXPECT_TRUE(has(problems("missing seed"), "missing log field: seed"));
  const std::vector<std::string> nan = problems("non-finite timestamp");
  ASSERT_EQ(nan.size(), 1u);
  EXPECT_EQ(nan[0].rfind("t (offline): unparseable log: ", 0), 0u) << nan[0];
  EXPECT_NE(nan[0].find("malformed log event: issue "), std::string::npos)
      << nan[0];
  const std::vector<std::string> inf = problems("+inf");
  ASSERT_EQ(inf.size(), 1u);
  EXPECT_NE(inf[0].find("malformed log event: issue "), std::string::npos)
      << inf[0];
  EXPECT_FALSE(has(problems("sub-nanosecond order"),
                   "completed before it was issued"));
}

// The per-query latencies of the checker's former second walk over a
// multi-stream log: from a fresh table, every non-issue event of a query
// issued earlier in the log counts at the query's latest issue time.
std::vector<double> TwoWalkQueryLatencies(const TestLog& log) {
  const std::vector<LogEvent>& events = log.events();
  struct Slot {
    bool issued = false;
    double issued_at = 0.0;
  };
  std::vector<Slot> slots(events.size() + 1);
  std::map<double, double> per_query;
  for (const LogEvent& e : events) {
    if (e.query_id == 0 || e.query_id > events.size()) continue;
    Slot& q = slots[e.query_id];
    if (e.kind == LogEventKind::kQueryIssued) {
      q.issued = true;
      q.issued_at = e.timestamp.count();
    } else if (q.issued) {
      auto [it, inserted] =
          per_query.try_emplace(q.issued_at, e.timestamp.count());
      if (!inserted) it->second = std::max(it->second, e.timestamp.count());
    }
  }
  std::vector<double> latencies;
  for (const auto& [sched, done] : per_query) latencies.push_back(done - sched);
  return latencies;
}

bool Overflows(const CheckReport& r) {
  for (const std::string& p : r.problems)
    if (p == "multi-stream queries overflow the frame interval") return true;
  return false;
}

TEST(RecordedCheck, MultiStreamSingleWalkEqualsTheTwoWalks) {
  // The frame interval is set just below and at the two-walk percentile:
  // the single walk must flag the first and pass the second, which pins
  // its percentile to the two-walk value within 1e-8 s.  The minimum, the
  // median, the p90 and the maximum each see different queries.
  const TestLog recorded = Record(TestScenario::kMultiStream);
  for (const double percentile : {0.0, 50.0, 90.0, 100.0}) {
    TestSettings s = BaseSettings();
    s.scenario = TestScenario::kMultiStream;
    s.latency_percentile = percentile;
    for (const Edit& edit : Edits()) {
      if (edit.name == "non-finite timestamp" || edit.name == "+inf")
        continue;  // unparseable
      SCOPED_TRACE(edit.name + " at p" + std::to_string(percentile));
      TestLog log = recorded;
      edit.apply(log);
      const std::string text = log.Serialize();
      // The oracle reads the parsed text, as the checker does.
      const std::vector<double> lat =
          TwoWalkQueryLatencies(TestLog::Parse(text));
      ASSERT_FALSE(lat.empty());
      const double p = Percentile(lat, percentile);
      TestSettings below = s;
      below.multistream_interval = Seconds{p - 1e-8};
      TestSettings at = s;
      at.multistream_interval = Seconds{p};
      EXPECT_TRUE(Overflows(CheckPerformanceLog(text, below)));
      EXPECT_FALSE(Overflows(CheckPerformanceLog(text, at)));
    }
  }
}

TEST(RecordedCheck, HostileIdsKeepTheirProblemTexts) {
  // The slot table holds the largest id in [1, events]: each id outside
  // that range is a `query <N> out of range` problem in log order, and
  // sparse ids up to the top of the range are ordinary queries.  Each log
  // is checked on both paths.
  using K = LogEventKind;
  struct Case {
    std::string name;
    std::vector<LogEvent> events;
    std::vector<std::string> problems;
  };
  const auto at = [](K kind, std::uint64_t id, double t) {
    return LogEvent{kind, id, Seconds{t}};
  };
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<Case> cases = {
      {"sparse ids at the top of the range",
       {at(K::kQueryIssued, 6, 0.0), at(K::kQueryCompleted, 6, 0.001),
        at(K::kQueryIssued, 5, 0.002), at(K::kQueryCompleted, 5, 0.003),
        at(K::kQueryIssued, 3, 0.004), at(K::kQueryCompleted, 3, 0.005)},
       {}},
      {"id 0, events + 1 and u64 max",
       {at(K::kQueryIssued, 1, 0.0), at(K::kQueryCompleted, 0, 0.001),
        at(K::kQueryCompleted, 1, 0.002), at(K::kQueryIssued, 7, 0.003),
        at(K::kQueryShed, kMax, 0.004), at(K::kQueryCompleted, 7, 0.005)},
       {"query 0 out of range", "query 7 out of range",
        "query 18446744073709551615 out of range", "query 7 out of range"}},
      {"only out-of-range ids",
       {at(K::kQueryIssued, 3, 0.0), at(K::kQueryCompleted, kMax, 0.001)},
       {"query 3 out of range", "query 18446744073709551615 out of range",
        "log contains no completed queries"}},
      {"unknown ids inside the range",
       {at(K::kQueryIssued, 2, 0.0), at(K::kQueryCompleted, 2, 0.001),
        at(K::kQueryCompleted, 6, 0.002), at(K::kQueryRejected, 5, 0.003),
        at(K::kQueryIssued, 4, 0.004), at(K::kQueryCompleted, 4, 0.005)},
       {"completion for unknown query 6", "rejection for unknown query 5"}},
  };
  TestSettings expected = BaseSettings();
  expected.min_query_count = 1;
  expected.min_duration = Seconds{0.0};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TestLog log;
    log.SetField("seed", std::to_string(expected.seed));
    log.SetField("scenario", "single_stream");
    log.SetField("mode", "performance");
    for (const LogEvent& e : c.events)
      log.Record(e.kind, e.query_id, e.timestamp);
    TestSettings single_stream = expected;
    single_stream.scenario = TestScenario::kSingleStream;
    EXPECT_EQ(CheckPerformanceLog(log.Serialize(), single_stream).problems,
              c.problems);
    TaskRunResult task;
    task.entry.id = "t";
    task.numerics = DataType::kFloat16;
    task.single_stream.emplace().log = log;
    std::vector<std::string> recorded;
    for (const std::string& p : c.problems) recorded.push_back("t: " + p);
    EXPECT_EQ(CheckTaskRun(task, expected).problems, recorded);
  }
}

}  // namespace
}  // namespace mlpm::harness
