// Tests for the LoadGen: scenario run rules, seeded sampling, accuracy
// mode, clock behavior, the structured log, and run-rule conformance as
// observed through the trace recorder (issue discipline, phase-mark order,
// query async spans).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/statistics.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "core/logging.h"
#include "obs/trace.h"
#include "obs/trace_check.h"

namespace mlpm::loadgen {
namespace {

// A trivial in-memory QSL with `n` samples.
class FakeQsl final : public QuerySampleLibrary {
 public:
  explicit FakeQsl(std::size_t n, std::size_t perf_count = 0)
      : n_(n), perf_(perf_count == 0 ? n : perf_count) {}
  [[nodiscard]] std::string_view name() const override { return "fake_qsl"; }
  [[nodiscard]] std::size_t TotalSampleCount() const override { return n_; }
  [[nodiscard]] std::size_t PerformanceSampleCount() const override {
    return perf_;
  }
  void LoadSamplesToRam(std::span<const std::size_t> idx) override {
    loaded_ += idx.size();
  }
  void UnloadSamplesFromRam(std::span<const std::size_t> idx) override {
    unloaded_ += idx.size();
  }
  std::size_t loaded_ = 0, unloaded_ = 0;

 private:
  std::size_t n_, perf_;
};

// SUT with a fixed simulated latency per query, driven by a VirtualClock.
class FixedLatencySut final : public SystemUnderTest {
 public:
  FixedLatencySut(VirtualClock& clock, double latency_s)
      : clock_(clock), latency_s_(latency_s) {}
  [[nodiscard]] std::string_view name() const override { return "fixed"; }
  void IssueQuery(std::span<const QuerySample> samples,
                  ResponseSink& sink) override {
    for (const QuerySample& s : samples) {
      clock_.Advance(Seconds{latency_s_});
      seen_indices_.push_back(s.index);
      sink.Complete(QuerySampleResponse{s.id, {}});
      ++issued_;
    }
  }
  std::size_t issued_ = 0;
  std::vector<std::size_t> seen_indices_;

 private:
  VirtualClock& clock_;
  double latency_s_;
};

TestSettings FastSettings() {
  TestSettings s;
  s.min_query_count = 32;
  s.min_duration = Seconds{0.5};
  s.offline_sample_count = 100;
  return s;
}

TEST(Clock, VirtualAdvances) {
  VirtualClock c;
  EXPECT_EQ(c.Now().count(), 0.0);
  c.Advance(Seconds{1.5});
  EXPECT_DOUBLE_EQ(c.Now().count(), 1.5);
  c.AdvanceTo(Seconds{2.0});
  EXPECT_DOUBLE_EQ(c.Now().count(), 2.0);
  EXPECT_THROW(c.AdvanceTo(Seconds{1.0}), CheckError);
  EXPECT_THROW(c.Advance(Seconds{-0.1}), CheckError);
}

TEST(Clock, RealClockIsMonotonic) {
  RealClock c;
  const Seconds a = c.Now();
  const Seconds b = c.Now();
  EXPECT_GE(b.count(), a.count());
}

TEST(LoadGen, SingleStreamMeetsQueryFloor) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);  // 1 ms -> duration floor dominates
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  const TestResult r = RunTest(sut, qsl, s, clock);
  // 0.5 s at 1 ms/query = 500 queries > 32 floor.
  EXPECT_GE(r.sample_count, 500u);
  EXPECT_TRUE(r.min_query_count_met);
  EXPECT_TRUE(r.min_duration_met);
}

TEST(LoadGen, SingleStreamMeetsDurationFloor) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.1);  // slow: query floor dominates
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_EQ(r.sample_count, 32u);
  EXPECT_GE(r.duration_s, 0.5);
}

TEST(LoadGen, SingleStreamPercentileMatchesFixedLatency) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.004);
  FakeQsl qsl(16);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  EXPECT_NEAR(r.percentile_latency_s, 0.004, 1e-9);
  EXPECT_NEAR(r.mean_latency_s, 0.004, 1e-9);
  EXPECT_NEAR(r.throughput_sps, 250.0, 1.0);
}

TEST(LoadGen, SampleSelectionIsSeededAndReproducible) {
  const auto run = [](std::uint64_t seed) {
    VirtualClock clock;
    FixedLatencySut sut(clock, 0.01);
    FakeQsl qsl(16);
    TestSettings s = FastSettings();
    s.seed = seed;
    (void)RunTest(sut, qsl, s, clock);
    return sut.seen_indices_;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(LoadGen, SampleIndicesComeFromPerformanceSet) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.01);
  FakeQsl qsl(100, /*perf_count=*/8);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  (void)r;
  for (std::size_t idx : sut.seen_indices_) EXPECT_LT(idx, 8u);
}

TEST(LoadGen, OfflineIssuesFullBurst) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  s.scenario = TestScenario::kOffline;
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_EQ(r.sample_count, 100u);
  EXPECT_NEAR(r.throughput_sps, 1000.0, 10.0);
}

TEST(LoadGen, QslLoadUnloadBalanced) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.01);
  FakeQsl qsl(16);
  (void)RunTest(sut, qsl, FastSettings(), clock);
  EXPECT_EQ(qsl.loaded_, qsl.unloaded_);
  EXPECT_GT(qsl.loaded_, 0u);
}

TEST(LoadGen, AccuracyModeCoversWholeDatasetInOrder) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(24);
  TestSettings s = FastSettings();
  s.mode = TestMode::kAccuracyOnly;
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_EQ(r.sample_count, 24u);
  ASSERT_EQ(sut.seen_indices_.size(), 24u);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_EQ(sut.seen_indices_[i], i);
  EXPECT_EQ(r.accuracy_outputs.size(), 24u);
}

TEST(LoadGen, EmptyQslRejected) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(0);
  EXPECT_THROW((void)RunTest(sut, qsl, FastSettings(), clock), CheckError);
}

TEST(LoadGen, LogRecordsIssueAndCompletePairs) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.01);
  FakeQsl qsl(4);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  std::size_t issues = 0, completes = 0;
  for (const LogEvent& e : r.log.events()) {
    if (e.kind == LogEventKind::kQueryIssued) ++issues;
    else ++completes;
  }
  EXPECT_EQ(issues, r.sample_count);
  EXPECT_EQ(completes, r.sample_count);
}

// A hostile SUT that completes a query twice.
class DoubleCompleteSut final : public SystemUnderTest {
 public:
  explicit DoubleCompleteSut(VirtualClock& clock) : clock_(clock) {}
  [[nodiscard]] std::string_view name() const override { return "evil"; }
  void IssueQuery(std::span<const QuerySample> samples,
                  ResponseSink& sink) override {
    clock_.Advance(Seconds{0.001});
    sink.Complete(QuerySampleResponse{samples[0].id, {}});
    sink.Complete(QuerySampleResponse{samples[0].id, {}});
  }

 private:
  VirtualClock& clock_;
};

TEST(LoadGen, DoubleCompletionCountedNotFatal) {
  VirtualClock clock;
  DoubleCompleteSut sut(clock);
  FakeQsl qsl(4);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  // Each query completes twice; the repeats are counted and ignored.
  EXPECT_FALSE(r.Errored());
  EXPECT_GT(r.sample_count, 0u);
  EXPECT_EQ(r.duplicate_count, r.sample_count);
  EXPECT_FALSE(r.error_log.empty());
}

// A hostile SUT that completes with an id the LoadGen never issued.
class UnknownIdSut final : public SystemUnderTest {
 public:
  explicit UnknownIdSut(VirtualClock& clock) : clock_(clock) {}
  [[nodiscard]] std::string_view name() const override { return "unknown"; }
  void IssueQuery(std::span<const QuerySample> samples,
                  ResponseSink& sink) override {
    clock_.Advance(Seconds{0.001});
    sink.Complete(QuerySampleResponse{samples[0].id + 100000, {}});
    sink.Complete(QuerySampleResponse{samples[0].id, {}});
  }

 private:
  VirtualClock& clock_;
};

TEST(LoadGen, UnknownCompletionCountedNotFatal) {
  VirtualClock clock;
  UnknownIdSut sut(clock);
  FakeQsl qsl(4);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  EXPECT_FALSE(r.Errored());
  EXPECT_GT(r.sample_count, 0u);
  EXPECT_EQ(r.unknown_count, r.sample_count);
}

// A hostile SUT that never completes.
class SilentSut final : public SystemUnderTest {
 public:
  [[nodiscard]] std::string_view name() const override { return "silent"; }
  void IssueQuery(std::span<const QuerySample>, ResponseSink&) override {}
};

TEST(LoadGen, SilentSutYieldsErroredResult) {
  VirtualClock clock;
  SilentSut sut;
  FakeQsl qsl(4);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  EXPECT_TRUE(r.Errored());
  EXPECT_FALSE(r.invalid_reason.empty());
  EXPECT_EQ(r.sample_count, 0u);
}

// An SUT that burns time but drops every k-th completion.
class DroppySut final : public SystemUnderTest {
 public:
  DroppySut(VirtualClock& clock, std::size_t drop_every)
      : clock_(clock), drop_every_(drop_every) {}
  [[nodiscard]] std::string_view name() const override { return "droppy"; }
  void IssueQuery(std::span<const QuerySample> samples,
                  ResponseSink& sink) override {
    for (const QuerySample& s : samples) {
      clock_.Advance(Seconds{0.001});
      if (++count_ % drop_every_ != 0)
        sink.Complete(QuerySampleResponse{s.id, {}});
    }
  }

 private:
  VirtualClock& clock_;
  std::size_t drop_every_;
  std::size_t count_ = 0;
};

TEST(LoadGen, DroppedCompletionsCountedWithoutWatchdog) {
  VirtualClock clock;
  DroppySut sut(clock, 4);  // every 4th sample never completes
  FakeQsl qsl(8);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  EXPECT_FALSE(r.Errored());
  EXPECT_GT(r.dropped_count, 0u);
  EXPECT_EQ(r.timed_out_count, 0u);
  EXPECT_FALSE(r.error_log.empty());
}

TEST(LoadGen, WatchdogExpiresDroppedCompletions) {
  VirtualClock clock;
  DroppySut sut(clock, 4);
  FakeQsl qsl(8);
  TestSettings s = FastSettings();
  s.query_timeout = Seconds{0.5};  // virtual-clock watchdog armed
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_FALSE(r.Errored());
  EXPECT_GT(r.timed_out_count, 0u);
  EXPECT_EQ(r.dropped_count, 0u);
}

// A slow SUT against a tight watchdog: completions past the deadline are
// expired rather than scored.
TEST(LoadGen, WatchdogExpiresLateCompletions) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.050);  // 50 ms latency
  FakeQsl qsl(8);
  TestSettings s = FastSettings();
  s.min_query_count = 8;
  s.min_duration = Seconds{0.0};
  s.query_timeout = Seconds{0.010};  // 10 ms deadline < 50 ms latency
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_EQ(r.sample_count, 0u);
  EXPECT_EQ(r.timed_out_count, 8u);
  // Nothing completed in time -> the run is structurally invalid.
  EXPECT_TRUE(r.Errored());
}


// The query ids of an error log's "never completed" lines, in log order.
std::vector<std::uint64_t> NeverCompletedIds(const TestResult& r) {
  std::vector<std::uint64_t> ids;
  for (const std::string& line : r.error_log)
    if (line.find(" never completed ") != std::string::npos)
      ids.push_back(std::stoull(line.substr(std::string("query ").size())));
  return ids;
}

TEST(LoadGen, ExpiredQueriesAreReportedInIdOrder) {
  // Every third completion never arrives.  End-of-test expiry reports the
  // outstanding queries in ascending id order: dropped without a watchdog,
  // timed out with one.
  struct Case {
    TestScenario scenario;
    double timeout_s;
    std::size_t dropped, timed_out;
  };
  const Case kCases[] = {
      {TestScenario::kSingleStream, 0.0, 166, 0},
      {TestScenario::kSingleStream, 0.5, 0, 166},
      {TestScenario::kOffline, 0.0, 33, 0},
      {TestScenario::kOffline, 0.5, 0, 33},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(ToString(c.scenario)) + " timeout " +
                 std::to_string(c.timeout_s));
    VirtualClock clock;
    DroppySut sut(clock, 3);
    FakeQsl qsl(8);
    TestSettings s = FastSettings();
    s.scenario = c.scenario;
    s.query_timeout = Seconds{c.timeout_s};
    const TestResult r = RunTest(sut, qsl, s, clock);
    EXPECT_EQ(r.dropped_count, c.dropped);
    EXPECT_EQ(r.timed_out_count, c.timed_out);
    const std::vector<std::uint64_t> ids = NeverCompletedIds(r);
    ASSERT_EQ(ids.size(), c.dropped + c.timed_out);
    for (std::size_t k = 0; k < ids.size(); ++k)
      EXPECT_EQ(ids[k], 3 * (k + 1)) << "line " << k;
  }
}

// Calls `act` for every issued query, with the id of the query issued
// before it (0 for the first); `act` decides what the sink hears.
class ScriptedSut final : public SystemUnderTest {
 public:
  using Act = void (*)(std::uint64_t id, std::uint64_t previous_id,
                       ResponseSink& sink);
  ScriptedSut(VirtualClock& clock, Act act) : clock_(clock), act_(act) {}
  [[nodiscard]] std::string_view name() const override { return "scripted"; }
  void IssueQuery(std::span<const QuerySample> samples,
                  ResponseSink& sink) override {
    for (const QuerySample& s : samples) {
      clock_.Advance(Seconds{0.001});
      act_(s.id, previous_, sink);
      previous_ = s.id;
    }
  }

 private:
  VirtualClock& clock_;
  Act act_;
  std::uint64_t previous_ = 0;
};

void Done(std::uint64_t id, ResponseSink& sink) {
  sink.Complete(QuerySampleResponse{id, {}});
}

// Each row makes the SUT misreport one query (in the server rows, each
// shed query it can infer from a gap in the ids), with the anomaly counts
// and the error log the collector produces for it.
struct HostileCase {
  const char* what;
  bool server;
  ScriptedSut::Act act;
  std::size_t unknown, duplicate, rejected;
  std::vector<std::string> errors;
};

std::vector<HostileCase> HostileCases() {
  return {
      {"completion for id 0", false,
       [](std::uint64_t id, std::uint64_t, ResponseSink& sink) {
         Done(id, sink);
         if (id == 2) Done(0, sink);
       },
       1, 0, 0,
       {"completion for query 0, which was never issued (ignored)"}},
      {"completion past the last issued id", false,
       [](std::uint64_t id, std::uint64_t, ResponseSink& sink) {
         Done(id, sink);
         if (id == 2) Done(3, sink);
       },
       1, 0, 0,
       {"completion for query 3, which was never issued (ignored)"}},
      {"completion for id UINT64_MAX", false,
       [](std::uint64_t id, std::uint64_t, ResponseSink& sink) {
         Done(id, sink);
         if (id == 2) Done(std::numeric_limits<std::uint64_t>::max(), sink);
       },
       1, 0, 0,
       {"completion for query 18446744073709551615, which was never "
        "issued (ignored)"}},
      {"completion for a shed id", true,
       [](std::uint64_t id, std::uint64_t previous, ResponseSink& sink) {
         Done(id, sink);
         if (id > previous + 1) Done(previous + 1, sink);
       },
       3, 0, 0,
       {"query 2 shed by admission control (issue queue full)",
        "query 3 shed by admission control (issue queue full)",
        "completion for query 2, which was never issued (ignored)",
        "query 5 shed by admission control (issue queue full)",
        "query 6 shed by admission control (issue queue full)",
        "completion for query 5, which was never issued (ignored)",
        "query 8 shed by admission control (issue queue full)",
        "query 9 shed by admission control (issue queue full)",
        "completion for query 8, which was never issued (ignored)",
        "query 11 shed by admission control (issue queue full)",
        "query 12 shed by admission control (issue queue full)"}},
      {"rejection for a shed id", true,
       [](std::uint64_t id, std::uint64_t previous, ResponseSink& sink) {
         Done(id, sink);
         if (id > previous + 1) sink.Reject(previous + 1, "breaker open");
       },
       3, 0, 0,
       {"query 2 shed by admission control (issue queue full)",
        "query 3 shed by admission control (issue queue full)",
        "rejection for query 2 that is not outstanding (ignored)",
        "query 5 shed by admission control (issue queue full)",
        "query 6 shed by admission control (issue queue full)",
        "rejection for query 5 that is not outstanding (ignored)",
        "query 8 shed by admission control (issue queue full)",
        "query 9 shed by admission control (issue queue full)",
        "rejection for query 8 that is not outstanding (ignored)",
        "query 11 shed by admission control (issue queue full)",
        "query 12 shed by admission control (issue queue full)"}},
      {"double completion", false,
       [](std::uint64_t id, std::uint64_t, ResponseSink& sink) {
         Done(id, sink);
         if (id == 2) Done(id, sink);
       },
       0, 1, 0,
       {"query 2 completed more than once (ignored)"}},
      {"completion after a reject", false,
       [](std::uint64_t id, std::uint64_t, ResponseSink& sink) {
         if (id == 2) sink.Reject(id, "breaker open");
         Done(id, sink);
       },
       0, 1, 1,
       {"query 2 rejected by SUT: breaker open",
        "query 2 completed after being rejected (ignored)"}},
      {"reject after a completion", false,
       [](std::uint64_t id, std::uint64_t, ResponseSink& sink) {
         Done(id, sink);
         if (id == 2) sink.Reject(id, "breaker open");
       },
       1, 0, 0,
       {"rejection for query 2 that is not outstanding (ignored)"}},
      {"double reject", false,
       [](std::uint64_t id, std::uint64_t, ResponseSink& sink) {
         if (id != 2) return Done(id, sink);
         sink.Reject(id, "breaker open");
         sink.Reject(id, "breaker open");
       },
       1, 0, 1,
       {"query 2 rejected by SUT: breaker open",
        "rejection for query 2 that is not outstanding (ignored)"}},
  };
}

// Four single-stream queries, or in the server rows twelve arrivals
// against a one-deep queue.
TestSettings HostileSettings(const HostileCase& c) {
  TestSettings s = FastSettings();
  s.min_query_count = 4;
  s.min_duration = Seconds{0.0};
  if (c.server) {
    // Arrivals every 0.67 ms on average against 1 ms of service behind
    // a one-deep queue: an arrival while a query is in flight is shed.
    s.scenario = TestScenario::kServer;
    s.server_target_qps = 1500.0;
    s.server_query_count = 12;
    s.server_max_queue_depth = 1;
    s.server_max_shed_fraction = 1.0;
  }
  return s;
}

TEST(LoadGen, HostileCompletionsAndRejectionsCountedAsBefore) {
  for (const HostileCase& c : HostileCases()) {
    SCOPED_TRACE(c.what);
    VirtualClock clock;
    ScriptedSut sut(clock, c.act);
    FakeQsl qsl(8);
    const TestResult r = RunTest(sut, qsl, HostileSettings(c), clock);
    EXPECT_EQ(r.unknown_count, c.unknown);
    EXPECT_EQ(r.duplicate_count, c.duplicate);
    EXPECT_EQ(r.rejected_count, c.rejected);
    EXPECT_EQ(r.error_log, c.errors);
    EXPECT_EQ(r.issued_count, r.sample_count + r.timed_out_count +
                                  r.dropped_count + r.rejected_count);
  }
}


// ---- server scenario ----

TEST(LoadGen, ServerLowLoadLatencyNearServiceTime) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);  // 1 ms service
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  s.scenario = TestScenario::kServer;
  s.server_target_qps = 10.0;  // utilization 1%
  s.server_query_count = 256;
  s.server_latency_bound = Seconds{0.01};
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_EQ(r.sample_count, 256u);
  EXPECT_NEAR(r.percentile_latency_s, 0.001, 2e-4);
  EXPECT_TRUE(r.latency_bound_met);
}

TEST(LoadGen, ServerOverloadQueuesAndMissesBound) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  s.scenario = TestScenario::kServer;
  s.server_target_qps = 2000.0;  // utilization 2: queue grows unboundedly
  s.server_query_count = 512;
  s.server_latency_bound = Seconds{0.01};
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_FALSE(r.latency_bound_met);
  EXPECT_GT(r.percentile_latency_s, 0.05);  // long queueing delays
}

TEST(LoadGen, ServerLatencyGrowsWithUtilization) {
  const auto p90_at = [](double qps) {
    VirtualClock clock;
    FixedLatencySut sut(clock, 0.001);
    FakeQsl qsl(16);
    TestSettings s = FastSettings();
    s.scenario = TestScenario::kServer;
    s.server_target_qps = qps;
    s.server_query_count = 1024;
    return RunTest(sut, qsl, s, clock).percentile_latency_s;
  };
  EXPECT_LT(p90_at(100.0), p90_at(800.0));
  EXPECT_LT(p90_at(800.0), p90_at(950.0));
}

TEST(LoadGen, ServerArrivalsAreSeeded) {
  const auto run = [](std::uint64_t seed) {
    VirtualClock clock;
    FixedLatencySut sut(clock, 0.0005);
    FakeQsl qsl(16);
    TestSettings s = FastSettings();
    s.scenario = TestScenario::kServer;
    s.server_target_qps = 500.0;
    s.server_query_count = 128;
    s.seed = seed;
    return RunTest(sut, qsl, s, clock).percentile_latency_s;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(LoadGen, FindMaxServerQpsBracketsSaturation) {
  // Deterministic service at 1 ms: saturation at ~1000 QPS; with queueing
  // at the 90th percentile the passing rate lands somewhat below that.
  const auto run_at = [](double qps) {
    VirtualClock clock;
    FixedLatencySut sut(clock, 0.001);
    FakeQsl qsl(16);
    TestSettings s = FastSettings();
    s.scenario = TestScenario::kServer;
    s.server_target_qps = qps;
    s.server_query_count = 2048;
    s.server_latency_bound = Seconds{0.01};
    return RunTest(sut, qsl, s, clock);
  };
  const double max_qps = FindMaxServerQps(run_at, 50.0, 5000.0, 10);
  EXPECT_GT(max_qps, 300.0);
  EXPECT_LT(max_qps, 1100.0);
}

TEST(LoadGen, FindMaxServerQpsZeroWhenLowFails) {
  const auto run_at = [](double qps) {
    VirtualClock clock;
    FixedLatencySut sut(clock, 1.0);  // 1 s service: hopeless
    FakeQsl qsl(4);
    TestSettings s = FastSettings();
    s.scenario = TestScenario::kServer;
    s.server_target_qps = qps;
    s.server_query_count = 16;
    s.server_latency_bound = Seconds{0.01};
    return RunTest(sut, qsl, s, clock);
  };
  EXPECT_EQ(FindMaxServerQps(run_at, 1.0, 100.0, 4), 0.0);
}

TEST(LoadGen, FindMaxServerQpsStopsOnErroredProbe) {
  // An errored run (nothing completed) must not be mistaken for "bound
  // met": the search gives up immediately instead of converging on
  // garbage.
  int probes = 0;
  const auto run_at = [&probes](double) {
    ++probes;
    TestResult r;
    r.invalid_reason = "SUT stalled";
    r.latency_bound_met = false;
    return r;
  };
  EXPECT_EQ(FindMaxServerQps(run_at, 1.0, 100.0, 8), 0.0);
  EXPECT_EQ(probes, 1);  // the low-end probe errored; no binary search ran
}

TEST(LoadGen, ErroredRunNeverMeetsLatencyBound) {
  // An empty latency vector must not satisfy the server bound via a 0.0
  // percentile.
  VirtualClock clock;
  SilentSut sut;
  FakeQsl qsl(4);
  TestSettings s = FastSettings();
  s.scenario = TestScenario::kServer;
  s.server_target_qps = 10.0;
  s.server_query_count = 16;
  s.server_latency_bound = Seconds{0.01};
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_TRUE(r.Errored());
  EXPECT_FALSE(r.latency_bound_met);
}

// ---- server admission control (DESIGN.md §12) ----

// Overload settings shared by the admission-control tests: offered load is
// 2x the SUT's capacity (2000 QPS against a 1 ms service time).
TestSettings OverloadSettings() {
  TestSettings s;
  s.scenario = TestScenario::kServer;
  s.server_target_qps = 2000.0;
  s.server_query_count = 512;
  s.server_latency_bound = Seconds{0.01};
  s.offline_sample_count = 100;
  return s;
}

TEST(LoadGen, ServerAdmissionControlShedsUnderOverload) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(16);
  TestSettings s = OverloadSettings();
  s.server_max_queue_depth = 8;
  const TestResult r = RunTest(sut, qsl, s, clock);
  // Every offered query is accounted for: completed or shed.
  EXPECT_GT(r.shed_count, 0u);
  EXPECT_EQ(r.sample_count + r.shed_count, 512u);
  // Accepted queries wait behind at most `depth` in-flight queries:
  // 8 x 1 ms < the 10 ms bound, so the accepted-query p90 holds even
  // though the same offered load without shedding misses it badly
  // (ServerOverloadQueuesAndMissesBound above).
  EXPECT_TRUE(r.latency_bound_met);
  EXPECT_LT(r.percentile_latency_s, 0.01);
  // ...but refusing ~half the offered load blows the default 10% shed
  // budget, so the run as a whole is still not a passing server run.
  EXPECT_FALSE(r.shed_bound_met);
}

TEST(LoadGen, ServerSheddingIsDeterministic) {
  const auto run = [](std::uint64_t seed) {
    VirtualClock clock;
    FixedLatencySut sut(clock, 0.001);
    FakeQsl qsl(16);
    TestSettings s = OverloadSettings();
    s.server_max_queue_depth = 8;
    s.seed = seed;
    return RunTest(sut, qsl, s, clock);
  };
  const TestResult a = run(1), b = run(1), c = run(2);
  EXPECT_EQ(a.shed_count, b.shed_count);
  EXPECT_EQ(a.sample_count, b.sample_count);
  EXPECT_EQ(a.percentile_latency_s, b.percentile_latency_s);
  // A different seed sheds a different arrival pattern.
  EXPECT_NE(a.percentile_latency_s, c.percentile_latency_s);
}

TEST(LoadGen, ServerShedBudgetIsConfigurable) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(16);
  TestSettings s = OverloadSettings();
  s.server_max_queue_depth = 8;
  s.server_max_shed_fraction = 0.6;  // accept heavy shedding explicitly
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_GT(r.shed_count, 0u);
  EXPECT_TRUE(r.shed_bound_met);
}

TEST(LoadGen, ServerUnboundedQueueNeverSheds) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(16);
  const TestSettings s = OverloadSettings();  // depth 0 = disabled
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_EQ(r.shed_count, 0u);
  EXPECT_TRUE(r.shed_bound_met);
}

TEST(LoadGen, ServerSheddingDoesNotPerturbSampleSelection) {
  // The sample index is drawn before the shed decision, so the accepted
  // queries see the same sample sequence whether or not shedding is on:
  // the k-th *issued* query under shedding matches some prefix-preserving
  // subsequence of the unshedded run's samples.
  const auto seen = [](std::size_t depth) {
    VirtualClock clock;
    FixedLatencySut sut(clock, 0.001);
    FakeQsl qsl(16);
    TestSettings s = OverloadSettings();
    s.server_max_queue_depth = depth;
    // Only the samples the SUT saw matter here, not the test's result.
    (void)RunTest(sut, qsl, s, clock);
    return sut.seen_indices_;
  };
  const std::vector<std::size_t> unshed = seen(0);
  const std::vector<std::size_t> shed = seen(8);
  ASSERT_EQ(unshed.size(), 512u);
  ASSERT_LT(shed.size(), unshed.size());
  // Every accepted query's sample matches the unshedded run at the same
  // offered-query position; verify via subsequence containment.
  std::size_t j = 0;
  for (std::size_t idx : shed) {
    while (j < unshed.size() && unshed[j] != idx) ++j;
    ASSERT_LT(j, unshed.size()) << "sample stream diverged under shedding";
    ++j;
  }
}

TEST(LoadGen, ShedEventsRoundTripThroughTheLog) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(16);
  TestSettings s = OverloadSettings();
  s.server_max_queue_depth = 8;
  const TestResult r = RunTest(sut, qsl, s, clock);
  ASSERT_GT(r.shed_count, 0u);

  const std::string serialized = r.log.Serialize();
  const TestLog parsed = TestLog::Parse(serialized);
  EXPECT_EQ(parsed.Serialize(), serialized);
  std::size_t shed_events = 0;
  for (const LogEvent& e : parsed.events())
    shed_events += e.kind == LogEventKind::kQueryShed ? 1 : 0;
  EXPECT_EQ(shed_events, r.shed_count);
  ASSERT_NE(parsed.FieldOrNull("result_shed_count"), nullptr);
  EXPECT_EQ(*parsed.FieldOrNull("result_shed_count"),
            std::to_string(r.shed_count));
}


// ---- multi-stream scenario ----

TEST(LoadGen, LogReservationBoundsEveryTestButSingleStream) {
  // RunTest reserves two events per expected query: an issue, then a
  // completion or a rejection (a shed query logs one event).  That bounds
  // the log of every test but single-stream, whose query count is a floor.
  struct Case {
    const char* name;
    TestSettings settings;
    std::size_t expected_queries;
    ScriptedSut::Act act;  // null: every query completes after 1 ms
  };
  const auto with = [](TestScenario scenario, TestMode mode) {
    TestSettings s = OverloadSettings();
    s.scenario = scenario;
    s.mode = mode;
    s.multistream_samples_per_query = 4;
    s.multistream_query_count = 16;
    return s;
  };
  TestSettings shedding = with(TestScenario::kServer, TestMode::kPerformanceOnly);
  shedding.server_max_queue_depth = 8;
  const std::vector<Case> cases = {
      {"offline", with(TestScenario::kOffline, TestMode::kPerformanceOnly),
       100, nullptr},
      {"server", with(TestScenario::kServer, TestMode::kPerformanceOnly), 512,
       nullptr},
      {"server with shedding", shedding, 512, nullptr},
      {"server with rejections",
       with(TestScenario::kServer, TestMode::kPerformanceOnly), 512,
       [](std::uint64_t id, std::uint64_t, ResponseSink& sink) {
         if (id % 3 == 0) sink.Reject(id, "breaker open");
         else Done(id, sink);
       }},
      {"multi-stream",
       with(TestScenario::kMultiStream, TestMode::kPerformanceOnly), 64,
       nullptr},
      {"accuracy", with(TestScenario::kSingleStream, TestMode::kAccuracyOnly),
       16, nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    VirtualClock clock;
    FakeQsl qsl(16);
    FixedLatencySut fixed(clock, 0.001);
    ScriptedSut scripted(clock, c.act);
    SystemUnderTest& sut =
        c.act == nullptr ? static_cast<SystemUnderTest&>(fixed) : scripted;
    const TestResult r = RunTest(sut, qsl, c.settings, clock);
    EXPECT_LE(r.log.events().size(), 2 * c.expected_queries);
    EXPECT_GE(r.log.events().capacity(), 2 * c.expected_queries);
    if (c.settings.server_max_queue_depth > 0) {
      EXPECT_GT(r.shed_count, 0u);
    }
    if (c.act != nullptr) {
      EXPECT_GT(r.rejected_count, 0u);
    }
  }
}

// Runs its first query at `first_s` and every later one at `rest_s`, and
// keeps each query's issue time and latency as the clock measured them.
class FirstQuerySut final : public SystemUnderTest {
 public:
  FirstQuerySut(VirtualClock& clock, double first_s, double rest_s)
      : clock_(clock), first_s_(first_s), rest_s_(rest_s) {}
  [[nodiscard]] std::string_view name() const override { return "first"; }
  void IssueQuery(std::span<const QuerySample> samples,
                  ResponseSink& sink) override {
    for (const QuerySample& s : samples) {
      const Seconds before = clock_.Now();
      clock_.Advance(Seconds{issues_.empty() ? first_s_ : rest_s_});
      issues_.push_back(before.count());
      latencies_.push_back((clock_.Now() - before).count());
      sink.Complete(QuerySampleResponse{s.id, {}});
    }
  }
  std::vector<double> issues_, latencies_;

 private:
  VirtualClock& clock_;
  double first_s_, rest_s_;
};

TEST(LoadGen, SingleStreamSizedFromAnyFirstQueryRunsTheSameTest) {
  // A single-stream test sizes its tables from its first query's latency.
  // A zero first latency, one far below the rest (both past the sizing
  // cap) and one far above them (an estimate below the query floor, so
  // the tables grow) must all run the test the rules describe: valid,
  // every latency as the clock measured it, and stopped at the first query
  // that meets both floors.
  const TestSettings s = [] {
    TestSettings t = FastSettings();
    t.min_query_count = 32;
    t.min_duration = Seconds{1.0};
    return t;
  }();
  for (const double first_s : {0.0, 1e-9, 0.5}) {
    SCOPED_TRACE(first_s);
    VirtualClock clock;
    FirstQuerySut sut(clock, first_s, 0.001);
    FakeQsl qsl(16);
    const TestResult r = RunTest(sut, qsl, s, clock);
    EXPECT_FALSE(r.Errored()) << r.invalid_reason;
    EXPECT_TRUE(r.min_query_count_met);
    EXPECT_TRUE(r.min_duration_met);
    EXPECT_EQ(r.AnomalyCount(), 0u);
    ASSERT_EQ(r.latencies_s, sut.latencies_);
    const std::size_t n = sut.latencies_.size();
    EXPECT_EQ(r.sample_count, n);
    // The last query was issued while the duration floor was still unmet.
    EXPECT_LT(Seconds{sut.issues_.back() - sut.issues_.front()},
              s.min_duration);
    EXPECT_GT(n, 500u);
    EXPECT_EQ(r.percentile_latency_s,
              Percentile(sut.latencies_, s.latency_percentile));
    ASSERT_EQ(r.log.events().size(), 2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const LogEvent& issue = r.log.events()[2 * i];
      const LogEvent& done = r.log.events()[2 * i + 1];
      EXPECT_EQ(issue.kind, LogEventKind::kQueryIssued);
      EXPECT_EQ(done.kind, LogEventKind::kQueryCompleted);
      EXPECT_EQ(issue.query_id, i + 1);
      EXPECT_EQ(done.query_id, i + 1);
      EXPECT_EQ(issue.timestamp.count(), sut.issues_[i]);
    }
  }
}

// The LoadGen's trace events of the last traced test, with each query's
// async id cut to its query id (the high bits number the test).
std::vector<std::tuple<obs::EventPhase, std::string, std::string, double,
                       std::uint64_t>>
LoadGenTraceEvents() {
  std::vector<std::tuple<obs::EventPhase, std::string, std::string, double,
                         std::uint64_t>>
      events;
  for (const obs::TraceEvent& e : obs::TraceRecorder::Global().Snapshot())
    if (e.domain == obs::Domain::kLoadGen)
      events.emplace_back(e.phase, e.name, e.category, e.ts_us,
                          e.async_id & 0xFFFFFFFF);
  return events;
}

TEST(LoadGen, QueryRecordNoneChangesOnlyTheRecord) {
  // Every scenario twice, on fresh SUTs: keeping the per-query record and
  // with QueryRecord::kNone.  Without the record, the result differs only
  // in its log events and error log; everything else, the log's fields and
  // the trace included, is the same to the bit.
  struct Case {
    std::string what;
    TestSettings settings;
    ScriptedSut::Act act;  // null: DroppySut drops every `drop_every`-th
    std::size_t drop_every;
  };
  TestSettings single_stream = FastSettings();
  TestSettings offline = FastSettings();
  offline.scenario = TestScenario::kOffline;
  TestSettings shedding = OverloadSettings();
  shedding.server_max_queue_depth = 8;
  TestSettings watchdog = FastSettings();
  watchdog.query_timeout = Seconds{0.5};
  TestSettings multi_stream = FastSettings();
  multi_stream.scenario = TestScenario::kMultiStream;
  multi_stream.multistream_samples_per_query = 2;
  multi_stream.multistream_query_count = 8;
  TestSettings accuracy = FastSettings();
  accuracy.mode = TestMode::kAccuracyOnly;
  std::vector<Case> cases = {
      {"single-stream", single_stream, nullptr, 1000000},
      {"offline", offline, nullptr, 1000000},
      {"server shedding", shedding, nullptr, 1000000},
      {"single-stream dropping", single_stream, nullptr, 3},
      {"watchdog", watchdog, nullptr, 3},
      {"multi-stream dropping", multi_stream, nullptr, 3},
      {"accuracy dropping", accuracy, nullptr, 3},
  };
  for (const HostileCase& c : HostileCases())
    cases.push_back({c.what, HostileSettings(c), c.act, 0});

  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto run = [&](QueryRecord record) {
      VirtualClock clock;
      DroppySut droppy(clock, c.drop_every);
      ScriptedSut scripted(clock, c.act);
      SystemUnderTest& sut = c.act == nullptr
                                 ? static_cast<SystemUnderTest&>(droppy)
                                 : scripted;
      FakeQsl qsl(16);
      rec.Enable();
      TestResult r = RunTest(sut, qsl, c.settings, clock, record);
      rec.Disable();
      return std::pair(std::move(r), LoadGenTraceEvents());
    };
    const auto [keep, keep_trace] = run(QueryRecord::kKeep);
    const auto [none, none_trace] = run(QueryRecord::kNone);

    EXPECT_EQ(keep.error_log.size(), keep.AnomalyCount());
    EXPECT_FALSE(keep.log.events().empty());
    EXPECT_TRUE(none.log.events().empty());
    EXPECT_TRUE(none.error_log.empty());
    EXPECT_EQ(none.log.fields(), keep.log.fields());
    EXPECT_EQ(none_trace, keep_trace);

    EXPECT_EQ(none.scenario, keep.scenario);
    EXPECT_EQ(none.mode, keep.mode);
    ASSERT_EQ(none.latencies_s.size(), keep.latencies_s.size());
    EXPECT_EQ(std::memcmp(none.latencies_s.data(), keep.latencies_s.data(),
                          keep.latencies_s.size() * sizeof(double)),
              0);
    EXPECT_TRUE(same_bits(none.duration_s, keep.duration_s));
    EXPECT_EQ(none.sample_count, keep.sample_count);
    EXPECT_TRUE(
        same_bits(none.percentile_latency_s, keep.percentile_latency_s));
    EXPECT_TRUE(same_bits(none.mean_latency_s, keep.mean_latency_s));
    EXPECT_TRUE(same_bits(none.throughput_sps, keep.throughput_sps));
    EXPECT_EQ(none.min_duration_met, keep.min_duration_met);
    EXPECT_EQ(none.min_query_count_met, keep.min_query_count_met);
    EXPECT_EQ(none.latency_bound_met, keep.latency_bound_met);
    EXPECT_EQ(none.shed_bound_met, keep.shed_bound_met);
    EXPECT_EQ(none.dropped_count, keep.dropped_count);
    EXPECT_EQ(none.timed_out_count, keep.timed_out_count);
    EXPECT_EQ(none.duplicate_count, keep.duplicate_count);
    EXPECT_EQ(none.unknown_count, keep.unknown_count);
    EXPECT_EQ(none.shed_count, keep.shed_count);
    EXPECT_EQ(none.rejected_count, keep.rejected_count);
    EXPECT_EQ(none.issued_count, keep.issued_count);
    EXPECT_EQ(none.invalid_reason, keep.invalid_reason);
    EXPECT_EQ(none.accuracy_outputs.size(), keep.accuracy_outputs.size());
  }
}

TEST(LoadGen, UnreservableQueryCountIsRefusedBeforeTheTestRuns) {
  // A count past the per-test limit throws before the QSL loads a sample
  // or the SUT sees a query, whether or not the record is kept; the
  // multi-stream product is checked without wrapping.
  TestSettings server = OverloadSettings();
  server.server_query_count = 1'000'000'000'000;
  TestSettings single_stream = FastSettings();
  single_stream.min_query_count = kMaxQueryCount + 1;
  TestSettings multi_stream = FastSettings();
  multi_stream.scenario = TestScenario::kMultiStream;
  multi_stream.multistream_query_count = std::size_t{1} << 33;
  multi_stream.multistream_samples_per_query = std::size_t{1} << 31;
  for (const TestSettings& s : {server, single_stream, multi_stream}) {
    for (const QueryRecord record : {QueryRecord::kKeep, QueryRecord::kNone}) {
      SCOPED_TRACE(std::string(ToString(s.scenario)));
      VirtualClock clock;
      FixedLatencySut sut(clock, 0.001);
      FakeQsl qsl(16);
      EXPECT_THROW((void)RunTest(sut, qsl, s, clock, record), CheckError);
      EXPECT_EQ(qsl.loaded_, 0u);
      EXPECT_EQ(sut.issued_, 0u);
    }
  }
}

TEST(LoadGen, MultiStreamIssuesNSamplesPerQuery) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.0005);
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  s.scenario = TestScenario::kMultiStream;
  s.multistream_samples_per_query = 4;
  s.multistream_query_count = 32;
  s.multistream_interval = Seconds{0.01};
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_EQ(r.sample_count, 128u);
  EXPECT_EQ(r.latencies_s.size(), 32u);  // per-query metric
  // 4 samples x 0.5 ms each, back to back = 2 ms per query.
  EXPECT_NEAR(r.percentile_latency_s, 0.002, 5e-4);
  EXPECT_TRUE(r.latency_bound_met);
}

TEST(LoadGen, MultiStreamOverflowDetected) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.004);
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  s.scenario = TestScenario::kMultiStream;
  s.multistream_samples_per_query = 4;  // 16 ms of work per 10 ms frame
  s.multistream_query_count = 16;
  s.multistream_interval = Seconds{0.01};
  const TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_FALSE(r.latency_bound_met);
  // Backlog grows: the last query waits behind earlier ones.
  EXPECT_GT(r.latencies_s.back(), r.latencies_s.front());
}

TEST(LoadGen, MultiStreamQueriesArePaced) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.0001);  // fast: device idles between ticks
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  s.scenario = TestScenario::kMultiStream;
  s.multistream_samples_per_query = 2;
  s.multistream_query_count = 10;
  s.multistream_interval = Seconds{0.02};
  const TestResult r = RunTest(sut, qsl, s, clock);
  // Total runtime spans the full 9 intervals even though work is tiny.
  EXPECT_GE(clock.Now().count(), 0.02 * 9);
  EXPECT_TRUE(r.latency_bound_met);
}


TEST(DatasetQslContract, UnstagedSampleAccessThrows) {
  // Protocol violation guard: an SUT reading a sample the LoadGen never
  // staged must fail loudly.
  class OneSample final : public mlpm::datasets::TaskDataset {
   public:
    [[nodiscard]] std::size_t size() const override { return 2; }
    [[nodiscard]] std::vector<mlpm::infer::Tensor> InputsFor(
        std::size_t) const override {
      std::vector<mlpm::infer::Tensor> v;
      v.emplace_back(mlpm::graph::TensorShape({1}));
      return v;
    }
    [[nodiscard]] double ScoreOutputs(
        std::span<const std::vector<mlpm::infer::Tensor>>) const override {
      return 0.0;
    }
    [[nodiscard]] std::string_view metric_name() const override {
      return "none";
    }
    [[nodiscard]] std::vector<mlpm::infer::Tensor> CalibrationInputsFor(
        std::size_t index) const override {
      return InputsFor(index);
    }
  } dataset;
  DatasetQsl qsl(dataset);
  const std::size_t zero = 0;
  qsl.LoadSamplesToRam({&zero, 1});
  EXPECT_NO_THROW((void)qsl.Loaded(0));
  EXPECT_THROW((void)qsl.Loaded(1), CheckError);
  qsl.UnloadSamplesFromRam({&zero, 1});
  EXPECT_THROW((void)qsl.Loaded(0), CheckError);
}

// ---- logging ----

TEST(TestLog, SerializeParseRoundTrip) {
  TestLog log;
  log.SetField("seed", "12345");
  log.SetField("scenario", "single_stream");
  log.Record(LogEventKind::kQueryIssued, 1, Seconds{0.5});
  log.Record(LogEventKind::kQueryCompleted, 1, Seconds{0.75});
  const TestLog parsed = TestLog::Parse(log.Serialize());
  ASSERT_NE(parsed.FieldOrNull("seed"), nullptr);
  EXPECT_EQ(*parsed.FieldOrNull("seed"), "12345");
  ASSERT_EQ(parsed.events().size(), 2u);
  EXPECT_EQ(parsed.events()[0].kind, LogEventKind::kQueryIssued);
  EXPECT_EQ(parsed.events()[1].query_id, 1u);
  EXPECT_NEAR(parsed.events()[1].timestamp.count(), 0.75, 1e-9);
}

// The CheckError text Parse throws on `text`, or "" when it parses.
std::string ParseError(const std::string& text) {
  try {
    (void)TestLog::Parse(text);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(TestLog, ParseRejectsGarbage) {
  EXPECT_THROW((void)TestLog::Parse("not a log"), CheckError);
  EXPECT_THROW((void)TestLog::Parse(""), CheckError);
  EXPECT_THROW((void)TestLog::Parse("\n"), CheckError);
  EXPECT_THROW((void)TestLog::Parse("mlpm_loadgen_log v1\nbogus line here"),
               CheckError);
  // Each kind of error names itself and the offending text: these messages
  // reach the problem lists of CheckPerformanceLog.
  const auto says = [](const std::string& text, const std::string& what) {
    const std::string error = ParseError(text);
    EXPECT_NE(error.find(what), std::string::npos)
        << "'" << text << "' threw '" << error << "'";
  };
  says("", "empty log");
  says("not a log", "unknown log format: not a log");
  says("\n", "unknown log format: ");
  says("mlpm_loadgen_log v1\nissue 1 0.5\nissue -1 0.5\n",
       "malformed log event: issue -1 0.5");
  says("mlpm_loadgen_log v1\ncomplete 1 nan\n",
       "malformed log event: complete 1 nan");
  says("mlpm_loadgen_log v1\nfield novalue\n",
       "malformed log field: field novalue");
  says("mlpm_loadgen_log v1\nbogus line here", "unknown log line tag: bogus");
  // Blank lines after the header are skipped.
  const TestLog blanks =
      TestLog::Parse("mlpm_loadgen_log v1\n\nfield k v\n\n\nissue 1 0.5");
  EXPECT_EQ(*blanks.FieldOrNull("k"), "v");
  ASSERT_EQ(blanks.events().size(), 1u);
  EXPECT_EQ(blanks.events()[0].query_id, 1u);
  // Every event line must match `<tag> <u64> <fixed>` in full: trailing
  // bytes, doubled spaces, a signed id, a carriage return, a non-finite or
  // exponent-form timestamp and a missing timestamp are all malformed.
  for (const char* line :
       {"issue 5 0.1x", "issue 5 0.1 junk", "issue  5 0.1", "issue -1 0.1",
        "issue 5 0.5\r", "issue 5 nan", "issue 5 inf", "issue 5 1e999",
        "issue 5", "issue 5 ", "issue +5 0.1", "issue 5 -inf",
        "issue 18446744073709551616 0.1", "issue", "issue 5  0.1"}) {
    EXPECT_THROW((void)TestLog::Parse(std::string("mlpm_loadgen_log v1\n") +
                                      line + "\n"),
                 CheckError)
        << line;
  }
  // Field lines need a non-empty key and the separating space.
  for (const char* line : {"field", "field seed", "field  12345"}) {
    EXPECT_THROW((void)TestLog::Parse(std::string("mlpm_loadgen_log v1\n") +
                                      line + "\n"),
                 CheckError)
        << line;
  }
  EXPECT_EQ(TestLog::Parse("mlpm_loadgen_log v1\nissue 5 0.1\n")
                .events()
                .size(),
            1u);
}

// The bytes of tests/golden/loadgen_log.txt were written by the original
// iostream writer (std::fixed, precision 9); they pin the format itself,
// which a round trip alone cannot, since it would pass a change made to
// the writer and the reader alike.
TEST(TestLog, SerializeMatchesGoldenBytes) {
  std::ifstream in(std::string(MLPM_GOLDEN_DIR) + "/loadgen_log.txt",
                   std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(in)) << "missing golden loadgen_log.txt";
  std::ostringstream golden;
  golden << in.rdbuf();

  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  TestLog log;
  log.SetField("seed", "1234");
  log.SetField("scenario", "single_stream");
  log.SetField("mode", "performance_only");
  log.SetField("result_throughput_sps", "12.5");
  log.SetField("note", "spaces  inside value");
  log.SetField("empty", "");
  log.Record(LogEventKind::kQueryIssued, 0, Seconds{0.0});
  log.Record(LogEventKind::kQueryCompleted, 0, Seconds{1e-10});
  log.Record(LogEventKind::kQueryIssued, 1, Seconds{0.1234567895});
  log.Record(LogEventKind::kQueryRejected, 1, Seconds{7.0000000005});
  log.Record(LogEventKind::kQueryShed, kMax, Seconds{123456789.123456789});
  log.Record(LogEventKind::kQueryIssued, kMax - 1, Seconds{1e15});
  log.Record(LogEventKind::kQueryCompleted, kMax - 1, Seconds{1e15});
  // Exact binary ties at the ninth decimal: round half to even.
  log.Record(LogEventKind::kQueryShed, 2, Seconds{0.0009765625});
  log.Record(LogEventKind::kQueryShed, 3, Seconds{0.0029296875});

  EXPECT_EQ(log.Serialize(), golden.str());
  EXPECT_EQ(TestLog::Parse(golden.str()).Serialize(), golden.str());
}

// Timestamps at every edge of the writer's integer path: random bit
// patterns over the path's range and past it, exact ties at the ninth
// decimal, signed zeros, subnormals, the 2^53 ns boundary and the extremes.
std::vector<double> TimestampProbes() {
  std::vector<double> values = {0.0,
                                -0.0,
                                1e-10,
                                5e-10,
                                0x1p33,
                                std::nextafter(0x1p33, 0.0),
                                -1e-12,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                9007199.254740992,  // 2^53 ns
                                std::nextafter(9007199.254740992, 0.0),
                                std::nextafter(9007199.254740992, 1e7)};
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> bits(
      0, std::bit_cast<std::uint64_t>(0x1p40));
  std::uniform_int_distribution<std::uint64_t> ticks(0, std::uint64_t{1}
                                                            << 40);
  for (int i = 0; i < 100'000; ++i) {
    values.push_back(std::bit_cast<double>(bits(rng)));
    // Multiples of 2^-10 s end in ...0625 / ...5625: half of them tie.
    values.push_back(std::ldexp(static_cast<double>(ticks(rng)), -10));
    values.push_back(std::uniform_real_distribution<double>(0, 1e4)(rng));
  }
  return values;
}

TEST(TestLog, TimestampsMatchPrintfFixed9) {
  // The writer's integer fast path must agree with printf("%.9f") — the
  // original iostream format — on every double.
  const std::vector<double> values = TimestampProbes();
  TestLog log;
  std::string expected = "mlpm_loadgen_log v1\n";
  std::array<char, 400> line{};
  for (std::size_t i = 0; i < values.size(); ++i) {
    log.Record(LogEventKind::kQueryIssued, i, Seconds{values[i]});
    std::snprintf(line.data(), line.size(), "issue %zu %.9f\n", i, values[i]);
    expected += line.data();
  }
  const std::string got = log.Serialize();
  const auto diff = std::ranges::mismatch(got, expected).in1 - got.begin();
  EXPECT_TRUE(got == expected)
      << "first difference at byte " << diff << ": '" << got.substr(diff, 40)
      << "' vs '" << expected.substr(diff, 40) << "'";
}

TEST(TestLog, NanosecondCountReadsBackAsTheText) {
  // The checker reads a recorded timestamp as double(n) / 1e9 for the
  // writer's nanosecond count n.  Below 2^53 that must be, bit for bit, the
  // double Parse reads from the written text; above it double(n) rounds
  // first, and some reads differ, which is why the checker sends such a
  // log through its text.  The count exists exactly for finite values below
  // 2^33 s with the sign bit clear.
  const std::vector<double> values = TimestampProbes();
  TestLog log;
  for (std::size_t i = 0; i < values.size(); ++i)
    log.Record(LogEventKind::kQueryIssued, i, Seconds{values[i]});
  const TestLog parsed = TestLog::Parse(log.Serialize());
  std::size_t exact = 0, differs_above = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::optional<std::uint64_t> n = TimestampNanoseconds(values[i]);
    ASSERT_EQ(n.has_value(), !std::signbit(values[i]) && values[i] < 0x1p33)
        << values[i];
    if (!n) continue;
    const auto read =
        std::bit_cast<std::uint64_t>(static_cast<double>(*n) / 1e9);
    const auto text =
        std::bit_cast<std::uint64_t>(parsed.events()[i].timestamp.count());
    if (*n >= (std::uint64_t{1} << 53)) {
      differs_above += read != text;
      continue;
    }
    ++exact;
    EXPECT_EQ(read, text) << i << ": " << values[i];
  }
  EXPECT_GT(exact, values.size() / 2);
  EXPECT_GT(differs_above, 0u);
}

TEST(TestLog, FieldKeysValidated) {
  TestLog log;
  EXPECT_THROW(log.SetField("bad key", "v"), CheckError);
  EXPECT_THROW(log.SetField("key", "multi\nline"), CheckError);
  EXPECT_THROW(log.SetField("", "v"), CheckError);
}

TEST(TestLog, TimestampPrecisionSurvivesRoundTrip) {
  TestLog log;
  log.Record(LogEventKind::kQueryIssued, 7, Seconds{1.234567891});
  const TestLog parsed = TestLog::Parse(log.Serialize());
  EXPECT_NEAR(parsed.events()[0].timestamp.count(), 1.234567891, 1e-8);
}

// ---- conformance: run rules observed through the log and the trace ----

TEST(LoadGenConformance, SingleStreamIssuesNextQueryOnlyAfterCompletion) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.002);
  FakeQsl qsl(16);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  ASSERT_FALSE(r.Errored());
  // The raw event stream must strictly alternate issue(id) -> complete(id):
  // single-stream never has two queries in flight (paper §4.2).
  const std::vector<LogEvent>& events = r.log.events();
  ASSERT_FALSE(events.empty());
  ASSERT_EQ(events.size() % 2, 0u);
  for (std::size_t i = 0; i < events.size(); i += 2) {
    EXPECT_EQ(events[i].kind, LogEventKind::kQueryIssued);
    EXPECT_EQ(events[i + 1].kind, LogEventKind::kQueryCompleted);
    EXPECT_EQ(events[i].query_id, events[i + 1].query_id);
    EXPECT_GE(events[i + 1].timestamp.count(), events[i].timestamp.count());
    if (i + 2 < events.size()) {
      EXPECT_GE(events[i + 2].timestamp.count(),
                events[i + 1].timestamp.count())
          << "next query issued before the previous one completed";
    }
  }
}

TEST(LoadGenConformance, OfflineIssuesEveryQueryAtTimeZero) {
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  s.scenario = TestScenario::kOffline;
  const TestResult r = RunTest(sut, qsl, s, clock);
  ASSERT_FALSE(r.Errored());
  std::size_t issued = 0;
  for (const LogEvent& e : r.log.events())
    if (e.kind == LogEventKind::kQueryIssued) {
      ++issued;
      EXPECT_DOUBLE_EQ(e.timestamp.count(), 0.0)
          << "offline burst must be issued up front, before any work runs";
    }
  EXPECT_EQ(issued, s.offline_sample_count);
}

TEST(LoadGenConformance, QueryFloorAndDurationFloorBothHonored) {
  // Query floor dominating: 200 queries x 2 ms = 0.4 s > 0.2 s duration
  // floor -> exactly the query floor runs.
  {
    VirtualClock clock;
    FixedLatencySut sut(clock, 0.002);
    FakeQsl qsl(16);
    TestSettings s = FastSettings();
    s.min_query_count = 200;
    s.min_duration = Seconds{0.2};
    const TestResult r = RunTest(sut, qsl, s, clock);
    EXPECT_EQ(r.sample_count, 200u);
    EXPECT_TRUE(r.min_query_count_met);
    EXPECT_TRUE(r.min_duration_met);
    EXPECT_GE(r.duration_s, 0.2);
  }
  // Duration floor dominating: the run must keep issuing past the query
  // floor until the elapsed floor is met.
  {
    VirtualClock clock;
    FixedLatencySut sut(clock, 0.002);
    FakeQsl qsl(16);
    TestSettings s = FastSettings();
    s.min_query_count = 10;
    s.min_duration = Seconds{0.3};
    const TestResult r = RunTest(sut, qsl, s, clock);
    // 0.3 s / 2 ms = 150, +1 tolerance for clock rounding at the boundary.
    EXPECT_GE(r.sample_count, 150u);
    EXPECT_LE(r.sample_count, 151u);
    EXPECT_GE(r.duration_s, 0.3);
    EXPECT_TRUE(r.min_query_count_met);
    EXPECT_TRUE(r.min_duration_met);
  }
}

// Phase-mark names of one traced run, in timeline order.
std::vector<std::string> TracedPhases(TestScenario scenario, TestMode mode) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.001);
  FakeQsl qsl(16);
  TestSettings s = FastSettings();
  s.scenario = scenario;
  s.mode = mode;
  if (scenario == TestScenario::kServer) {
    s.server_target_qps = 100.0;
    s.server_query_count = 32;
  }
  if (scenario == TestScenario::kMultiStream) {
    s.multistream_samples_per_query = 2;
    s.multistream_query_count = 8;
    s.multistream_interval = Seconds{0.01};
  }
  (void)RunTest(sut, qsl, s, clock);
  rec.Disable();
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : rec.Snapshot())
    if (e.domain == obs::Domain::kLoadGen && e.category == "phase")
      names.push_back(e.name);
  return names;
}

TEST(LoadGenConformance, PhaseMarksAppearInOrderForEveryScenario) {
  const std::vector<std::string> want = {"phase:load_samples", "phase:issue",
                                        "phase:flush", "phase:done"};
  for (const TestScenario scenario :
       {TestScenario::kSingleStream, TestScenario::kOffline,
        TestScenario::kServer, TestScenario::kMultiStream})
    EXPECT_EQ(TracedPhases(scenario, TestMode::kPerformanceOnly), want)
        << "scenario " << ToString(scenario);
  EXPECT_EQ(TracedPhases(TestScenario::kSingleStream, TestMode::kAccuracyOnly),
            want);
}

TEST(LoadGenConformance, QueryAsyncSpansPairUpAndValidate) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  VirtualClock clock;
  FixedLatencySut sut(clock, 0.002);
  FakeQsl qsl(16);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  rec.Disable();
  ASSERT_FALSE(r.Errored());

  std::size_t begins = 0, ends = 0;
  for (const obs::TraceEvent& e : rec.Snapshot()) {
    if (e.category != "query") continue;
    begins += e.phase == obs::EventPhase::kAsyncBegin;
    ends += e.phase == obs::EventPhase::kAsyncEnd;
  }
  EXPECT_EQ(begins, r.sample_count);
  EXPECT_EQ(ends, r.sample_count);

  obs::TraceCheckStats stats;
  const std::vector<std::string> problems =
      obs::ValidateChromeTrace(rec.ToChromeJson(), &stats);
  for (const std::string& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(stats.unmatched_async_begins, 0u);
}

TEST(LoadGenConformance, DroppedQueriesLeaveUnmatchedAsyncBegins) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable();
  VirtualClock clock;
  DroppySut sut(clock, 4);  // every 4th completion never arrives
  FakeQsl qsl(8);
  const TestResult r = RunTest(sut, qsl, FastSettings(), clock);
  rec.Disable();
  ASSERT_GT(r.dropped_count, 0u);

  obs::TraceCheckStats stats;
  const std::vector<std::string> problems =
      obs::ValidateChromeTrace(rec.ToChromeJson(), &stats);
  for (const std::string& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(stats.unmatched_async_begins, r.dropped_count);
}

TEST(OfficialSeed, MatchesSpec) {
  EXPECT_EQ(kOfficialSeed, 0x4D4C50657266ULL);
  TestSettings s;
  EXPECT_EQ(s.seed, kOfficialSeed);
  EXPECT_EQ(s.min_query_count, 1024u);
  EXPECT_DOUBLE_EQ(s.min_duration.count(), 60.0);
  EXPECT_EQ(s.offline_sample_count, 24'576u);
  EXPECT_DOUBLE_EQ(s.latency_percentile, 90.0);
}

}  // namespace
}  // namespace mlpm::loadgen
