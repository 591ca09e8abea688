// The streamed log check against its text oracle.  The checker judges a
// recorded log by streaming the writer's pieces through the strict reader
// (CheckTaskRun), never holding the text or a parsed copy; a packaged log
// is parsed from its text (CheckPerformanceLog).  Both must give the same
// problems, in the same order, for every scenario's log and for hostile
// edits of it.  Also pinned: the writer's pieces, the reader fed line by
// line, and the multi-stream check's single walk against the former
// two-walk derivation kept here.
#include <gtest/gtest.h>

#include <bit>
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

std::vector<Edit> Edits() {
  using K = LogEventKind;
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

TEST(StreamedCheck, EqualsTheTextCheckOnEveryScenarioAndEdit) {
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

TEST(StreamedCheck, HostileEditsYieldTheirProblems) {
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

TEST(StreamedCheck, MultiStreamSingleWalkEqualsTheTwoWalks) {
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
      if (edit.name == "non-finite timestamp") continue;  // unparseable
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

// ---- the writer's pieces and the streamed reader ----

// Collects what a LogReader delivers.
struct Collected final : loadgen::LogSink {
  std::map<std::string, std::string> fields;
  std::vector<LogEvent> events;
  void Field(std::string_view key, std::string_view value) override {
    fields.insert_or_assign(std::string(key), std::string(value));
  }
  void Event(const LogEvent& e) override { events.push_back(e); }
};

void ExpectSameLog(const Collected& got, const TestLog& want) {
  EXPECT_EQ(got.fields, want.fields());
  ASSERT_EQ(got.events.size(), want.events().size());
  for (std::size_t i = 0; i < got.events.size(); ++i) {
    EXPECT_EQ(got.events[i].kind, want.events()[i].kind) << i;
    EXPECT_EQ(got.events[i].query_id, want.events()[i].query_id) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.events[i].timestamp.count()),
              std::bit_cast<std::uint64_t>(
                  want.events()[i].timestamp.count()))
        << i;
  }
}

std::vector<std::string> Pieces(const TestLog& log) {
  std::vector<std::string> pieces;
  log.Write([&](std::string_view p) { pieces.emplace_back(p); });
  return pieces;
}

TEST(LogWriter, PiecesAreWholeLinesAndConcatenateToSerialize) {
  TestSettings s = BaseSettings();
  s.scenario = TestScenario::kOffline;
  s.offline_sample_count = 8192;  // about 230 KB of text
  loadgen::VirtualClock clock;
  StepSut sut(clock, 0);
  const datasets::StubDataset samples(16);
  loadgen::DatasetQsl qsl(samples);
  const TestLog log = loadgen::RunTest(sut, qsl, s, clock).log;

  const std::vector<std::string> pieces = Pieces(log);
  ASSERT_GT(pieces.size(), 2u);
  std::string joined;
  for (const std::string& p : pieces) {
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.back(), '\n');
    EXPECT_LE(p.size(), TestLog::kPieceBytes);
    joined += p;
  }
  EXPECT_EQ(joined, log.Serialize());
  // Every piece but the last is nearly full: a fixed size, not a line.
  for (std::size_t i = 0; i + 1 < pieces.size(); ++i)
    EXPECT_GT(pieces[i].size(), TestLog::kPieceBytes - 400) << i;
}

TEST(LogWriter, ALineLongerThanAPieceIsAPieceOfItsOwn) {
  TestLog log;
  log.SetField("a", "short");
  log.SetField("b", std::string(TestLog::kPieceBytes + 10, 'x'));
  log.SetField("c", "short");
  log.Record(LogEventKind::kQueryIssued, 1, Seconds{0.25});
  const std::vector<std::string> pieces = Pieces(log);
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "field b " + std::string(TestLog::kPieceBytes + 10, 'x') +
                           "\n");
  std::string joined;
  for (const std::string& p : pieces) joined += p;
  EXPECT_EQ(joined, log.Serialize());
  EXPECT_EQ(*TestLog::Parse(joined).FieldOrNull("b"), *log.FieldOrNull("b"));
}

TEST(LogReader, LineByLineAndPieceByPieceEqualParse) {
  for (const auto& [scenario, log] : RecordedLogs()) {
    SCOPED_TRACE(scenario);
    const std::string text = log.Serialize();
    const TestLog parsed = TestLog::Parse(text);

    Collected by_line;
    loadgen::LogReader line_reader(by_line);
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t eol = text.find('\n', pos);
      const std::size_t end = eol == std::string::npos ? text.size() : eol + 1;
      line_reader.Feed(std::string_view(text).substr(pos, end - pos));
      pos = end;
    }
    line_reader.Finish();
    ExpectSameLog(by_line, parsed);

    Collected by_piece;
    loadgen::LogReader piece_reader(by_piece);
    log.Write([&](std::string_view p) { piece_reader.Feed(p); });
    piece_reader.Finish();
    ExpectSameLog(by_piece, parsed);
  }
}

TEST(LogReader, LineByLineFailsAsParseDoes) {
  // The same CheckError text, whichever way the bytes arrive.
  const std::vector<std::string> inputs = {
      "",
      "not a log",
      "\n",
      "mlpm_loadgen_log v1\nbogus line here",
      "mlpm_loadgen_log v1\nissue 1 0.5\nissue -1 0.5\n",
      "mlpm_loadgen_log v1\nfield novalue\n",
      "mlpm_loadgen_log v1\nissue 1 0.5\r\n",
      "mlpm_loadgen_log v1\ncomplete 1 nan\n",
  };
  for (const std::string& text : inputs) {
    SCOPED_TRACE(text);
    std::string want;
    try {
      (void)TestLog::Parse(text);
    } catch (const CheckError& e) {
      want = e.what();
    }
    ASSERT_FALSE(want.empty());
    std::string got;
    try {
      Collected sink;
      loadgen::LogReader reader(sink);
      for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t eol = text.find('\n', pos);
        const std::size_t end =
            eol == std::string::npos ? text.size() : eol + 1;
        reader.Feed(std::string_view(text).substr(pos, end - pos));
        pos = end;
      }
      reader.Finish();
    } catch (const CheckError& e) {
      got = e.what();
    }
    EXPECT_EQ(got, want);
  }
  // Blank lines after the header are skipped either way.
  Collected sink;
  loadgen::LogReader reader(sink);
  reader.Feed("mlpm_loadgen_log v1\n");
  reader.Feed("\n");
  reader.Feed("issue 1 0.5");
  reader.Finish();
  ExpectSameLog(sink, TestLog::Parse("mlpm_loadgen_log v1\n\nissue 1 0.5"));
}

TEST(LogReader, APieceAfterAnUnterminatedLineIsRefused) {
  Collected sink;
  loadgen::LogReader reader(sink);
  reader.Feed("mlpm_loadgen_log v1\nissue 1 0.5");
  EXPECT_THROW(reader.Feed("\n"), CheckError);
}

}  // namespace
}  // namespace mlpm::harness
