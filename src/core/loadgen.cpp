#include "core/loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlpm::loadgen {
namespace {

// Distinguishes queries of different tests on the shared recorder: query
// ids restart at 1 every RunTest, so the async (cat, id) pairing namespaces
// them by a process-wide test sequence number.  A submission runs its tests
// in order on one thread, so its numbers are deterministic; fleet shards
// call RunTest concurrently and draw them in whatever order they start.
std::atomic<std::uint64_t> g_test_sequence{0};

// Collects completions and pairs them with issue timestamps.  Hostile or
// faulty SUT behavior (duplicate completions, completions for queries that
// were never issued, completions past the watchdog deadline, completions
// that never arrive) is counted and logged rather than thrown: one bad
// inference must not kill the whole submission (paper App. D).
//
// RunTest numbers the queries of a test 1, 2, 3, ... (a shed query uses up
// its id too), so the collector keeps them in a table indexed by id - 1;
// ids that come back from the SUT are bounds-checked against it.
//
// With QueryRecord::kNone it keeps the same counters, latencies and trace
// events, but records no log event and builds no error line.
class Collector final : public ResponseSink {
 public:
  Collector(const Clock& clock, TestLog& log, QueryRecord record,
            bool keep_outputs, Seconds query_timeout,
            std::uint64_t test_sequence)
      : clock_(clock),
        log_(log),
        keep_record_(record == QueryRecord::kKeep),
        keep_outputs_(keep_outputs),
        timeout_(query_timeout),
        test_sequence_(test_sequence) {}

  // Sizes the slot table and the latencies for `expected_queries`: the
  // test's query count, or an estimate when the count depends on the run.
  void Reserve(std::size_t expected_queries) {
    queries_.reserve(expected_queries);
    latencies_s_.reserve(expected_queries);
  }

  void ExpectSample(const QuerySample& s) { ExpectSampleAt(s, clock_.Now()); }

  // Server scenario: latency counts from the scheduled (Poisson) arrival,
  // which includes any time the query spent queued behind earlier work.
  void ExpectSampleAt(const QuerySample& s, Seconds scheduled) {
    Slot& q = NewSlot(s.id);
    q.issued_at = scheduled;
    q.state = Slot::kIssued;
    if (++issued_count_ == 1 || scheduled < first_issue_)
      first_issue_ = scheduled;
    Record(LogEventKind::kQueryIssued, s.id, scheduled);
    if (obs::TraceRecorder& rec = obs::TraceRecorder::Global();
        rec.enabled())
      rec.AddAsyncBegin(obs::Domain::kLoadGen, "queries", "query", "query",
                        AsyncId(s.id), scheduled.count() * 1e6,
                        {obs::Arg("sample", static_cast<std::uint64_t>(
                                                s.index))});
  }

  // Timestamp of the earliest issued query (the duration window start the
  // checker re-derives from the raw events).
  [[nodiscard]] Seconds first_issue() const { return first_issue_; }

  // Admission control refused this arrival before issue: log it under the
  // `shed` taxonomy class.  The sample never reaches the SUT, so there is
  // nothing for the watchdog to wait on.
  void Shed(const QuerySample& s, Seconds scheduled) {
    (void)NewSlot(s.id);
    ++shed_count_;
    Record(LogEventKind::kQueryShed, s.id, scheduled);
    Error([&] {
      return "query " + std::to_string(s.id) +
             " shed by admission control (issue queue full)";
    });
    if (obs::TraceRecorder& rec = obs::TraceRecorder::Global();
        rec.enabled())
      rec.AddInstant(obs::Domain::kLoadGen, "admission", "shed",
                     scheduled.count() * 1e6,
                     {obs::Arg("query", s.id),
                      obs::Arg("sample", static_cast<std::uint64_t>(s.index))},
                     "admission");
  }

  // SUT-side fast-fail (open circuit breaker): the query was issued but the
  // backend refused to run it.  Counts under `rejected`, never as a drop or
  // timeout — the watchdog must not wait on a completion that will never
  // arrive.
  void Reject(std::uint64_t id, std::string_view reason) override {
    const Seconds now = clock_.Now();
    Slot* const q = Find(id);
    if (q == nullptr || q->state != Slot::kIssued) {
      ++unknown_count_;
      Error([&] {
        return "rejection for query " + std::to_string(id) +
               " that is not outstanding (ignored)";
      });
      return;
    }
    q->state = Slot::kRejected;
    ++rejected_count_;
    Record(LogEventKind::kQueryRejected, id, now);
    Error([&] {
      return "query " + std::to_string(id) + " rejected by SUT: " +
             std::string(reason);
    });
    if (obs::TraceRecorder& rec = obs::TraceRecorder::Global();
        rec.enabled())
      rec.AddAsyncEnd(obs::Domain::kLoadGen, "queries", "query", "query",
                      AsyncId(id), now.count() * 1e6,
                      {obs::Arg("outcome", "rejected"),
                       obs::Arg("reason", std::string(reason))});
  }

  void Complete(QuerySampleResponse response) override {
    const Seconds now = clock_.Now();
    Slot* const q = Find(response.id);
    if (q == nullptr) {
      ++unknown_count_;
      Error([&] {
        return "completion for query " + std::to_string(response.id) +
               ", which was never issued (ignored)";
      });
      return;
    }
    if (q->state == Slot::kRejected) {
      ++duplicate_count_;
      Error([&] {
        return "query " + std::to_string(response.id) +
               " completed after being rejected (ignored)";
      });
      return;
    }
    if (q->state == Slot::kCompleted) {
      ++duplicate_count_;
      Error([&] {
        return "query " + std::to_string(response.id) +
               " completed more than once (ignored)";
      });
      return;
    }
    q->state = Slot::kCompleted;
    ++completed_count_;
    Record(LogEventKind::kQueryCompleted, response.id, now);
    const Seconds latency = now - q->issued_at;
    last_completion_ = std::max(last_completion_, now);
    const bool expired = timeout_.count() > 0.0 && latency > timeout_;
    if (obs::TraceRecorder& rec = obs::TraceRecorder::Global();
        rec.enabled())
      rec.AddAsyncEnd(obs::Domain::kLoadGen, "queries", "query", "query",
                      AsyncId(response.id), now.count() * 1e6,
                      {obs::Arg("outcome", expired ? "timed_out" : "ok"),
                       obs::Arg("latency_ms", latency.count() * 1e3)});
    if (expired) {
      // Watchdog: the deadline passed before the completion arrived; the
      // query already counts as expired, the late result is discarded.
      ++timed_out_count_;
      Error([&] {
        return "query " + std::to_string(response.id) + " completed " +
               std::to_string(latency.count()) + " s after issue, past the " +
               std::to_string(timeout_.count()) + " s deadline (expired)";
      });
      return;
    }
    latencies_s_.push_back(latency.count());
    if (keep_outputs_)
      outputs_.emplace_back(response.id, std::move(response.outputs));
  }

  // End of test: expire every query whose completion never arrived, in id
  // order.  With the watchdog configured they count as timed out (the
  // deadline has passed — the test is over); without it they are dropped.
  void ExpireOutstanding() {
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      if (queries_[i].state != Slot::kIssued) continue;
      const std::uint64_t id = i + 1;
      if (timeout_.count() > 0.0) {
        ++timed_out_count_;
        Error([&] {
          return "query " + std::to_string(id) +
                 " never completed (watchdog deadline " +
                 std::to_string(timeout_.count()) + " s)";
        });
      } else {
        ++dropped_count_;
        Error([&] {
          return "query " + std::to_string(id) + " never completed (dropped)";
        });
      }
    }
  }

  [[nodiscard]] std::size_t completed_count() const {
    return completed_count_;
  }
  // Queries that reached a terminal state through the sink (completed or
  // rejected) — the progress measure the stall detector watches, since a
  // breaker that fast-fails every query is making (degenerate) progress.
  [[nodiscard]] std::size_t resolved_count() const {
    return completed_count_ + rejected_count_;
  }
  [[nodiscard]] std::size_t issued_count() const { return issued_count_; }
  [[nodiscard]] std::vector<double>&& TakeLatencies() {
    return std::move(latencies_s_);
  }
  [[nodiscard]] Seconds last_completion() const { return last_completion_; }
  // Accuracy mode: each on-time completion's outputs, by query id.
  [[nodiscard]] std::vector<std::pair<std::uint64_t,
                                      std::vector<infer::Tensor>>>&&
  TakeOutputs() {
    return std::move(outputs_);
  }

  [[nodiscard]] std::size_t dropped_count() const { return dropped_count_; }
  [[nodiscard]] std::size_t timed_out_count() const {
    return timed_out_count_;
  }
  [[nodiscard]] std::size_t duplicate_count() const {
    return duplicate_count_;
  }
  [[nodiscard]] std::size_t unknown_count() const { return unknown_count_; }
  [[nodiscard]] std::size_t shed_count() const { return shed_count_; }
  [[nodiscard]] std::size_t rejected_count() const { return rejected_count_; }
  [[nodiscard]] std::vector<std::string>&& TakeErrors() {
    return std::move(errors_);
  }

 private:
  // One query of the test; a shed query's slot stays kNone.
  struct Slot {
    enum State : std::uint8_t { kNone, kIssued, kCompleted, kRejected };
    Seconds issued_at{0.0};
    State state = kNone;
  };

  // The slot of a query RunTest is about to issue or shed.  Ids come in
  // ascending order, so this only ever appends.
  Slot& NewSlot(std::uint64_t id) {
    if (id > queries_.size()) queries_.resize(id);
    return queries_[id - 1];
  }

  // The slot of an issued query, or nullptr for an id the SUT made up or
  // one that was shed.
  [[nodiscard]] Slot* Find(std::uint64_t id) {
    if (id == 0 || id > queries_.size()) return nullptr;
    Slot& q = queries_[id - 1];
    return q.state == Slot::kNone ? nullptr : &q;
  }

  void Record(LogEventKind kind, std::uint64_t id, Seconds t) {
    if (keep_record_) log_.Record(kind, id, t);
  }

  // Appends the error line `what()` builds; with QueryRecord::kNone the
  // line is never built.
  template <class What>
  void Error(const What& what) {
    if (keep_record_) errors_.push_back(what());
  }

  // Process-unique async-event id for a query of this test.
  [[nodiscard]] std::uint64_t AsyncId(std::uint64_t query_id) const {
    return (test_sequence_ << 32) | query_id;
  }

  const Clock& clock_;
  TestLog& log_;
  bool keep_record_;
  bool keep_outputs_;
  Seconds timeout_;
  std::uint64_t test_sequence_;
  std::vector<Slot> queries_;  // index id - 1
  std::size_t issued_count_ = 0;
  std::size_t completed_count_ = 0;
  Seconds first_issue_{0.0};
  std::vector<double> latencies_s_;
  Seconds last_completion_{0.0};
  std::vector<std::pair<std::uint64_t, std::vector<infer::Tensor>>> outputs_;
  std::size_t dropped_count_ = 0;
  std::size_t timed_out_count_ = 0;
  std::size_t duplicate_count_ = 0;
  std::size_t unknown_count_ = 0;
  std::size_t shed_count_ = 0;
  std::size_t rejected_count_ = 0;
  std::vector<std::string> errors_;
};

void FillSummary(TestResult& r, const TestSettings& settings,
                 Collector& collector, Seconds start, Seconds end) {
  r.latencies_s = collector.TakeLatencies();
  r.sample_count = r.latencies_s.size();
  r.duration_s = (end - start).count();
  if (!r.latencies_s.empty()) {
    r.percentile_latency_s =
        Percentile(r.latencies_s, settings.latency_percentile);
    r.mean_latency_s =
        std::accumulate(r.latencies_s.begin(), r.latencies_s.end(), 0.0) /
        static_cast<double>(r.latencies_s.size());
  }
  if (r.duration_s > 0.0)
    r.throughput_sps =
        static_cast<double>(r.sample_count) / r.duration_s;
}

// Expires outstanding queries, moves the anomaly counters and error log
// into the result, and decides structural validity.
void FinalizeErrors(TestResult& r, Collector& collector) {
  collector.ExpireOutstanding();
  r.dropped_count = collector.dropped_count();
  r.timed_out_count = collector.timed_out_count();
  r.duplicate_count = collector.duplicate_count();
  r.unknown_count = collector.unknown_count();
  r.shed_count = collector.shed_count();
  r.rejected_count = collector.rejected_count();
  r.issued_count = collector.issued_count();
  r.error_log = collector.TakeErrors();
  if (r.invalid_reason.empty() && r.latencies_s.empty())
    r.invalid_reason = "no queries completed within the run";
  if (!r.invalid_reason.empty()) {
    r.log.SetField("invalid_reason", r.invalid_reason);
  }
  if (r.AnomalyCount() > 0) {
    r.log.SetField("result_dropped_count", std::to_string(r.dropped_count));
    r.log.SetField("result_timed_out_count",
                   std::to_string(r.timed_out_count));
    r.log.SetField("result_duplicate_count",
                   std::to_string(r.duplicate_count));
    r.log.SetField("result_unknown_count", std::to_string(r.unknown_count));
    r.log.SetField("result_shed_count", std::to_string(r.shed_count));
    r.log.SetField("result_rejected_count",
                   std::to_string(r.rejected_count));
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Increment("loadgen.tests");
  metrics.Increment("loadgen.queries_issued", collector.issued_count());
  metrics.Increment("loadgen.queries_completed",
                    collector.completed_count());
  metrics.Increment("loadgen.queries_errored", r.AnomalyCount());
  // Shed and rejected queries are per-event outcomes; only a test that had
  // some creates the counter.
  if (r.shed_count != 0)
    metrics.Increment("loadgen.queries_shed", r.shed_count);
  if (r.rejected_count != 0)
    metrics.Increment("loadgen.queries_rejected", r.rejected_count);
}

// The most queries a single-stream test sizes its tables for from its
// first query's latency: 2^20 queries reserve about 72 MiB of log, slots
// and latencies, untouched until used, and a test that runs on past the
// estimate grows them.
constexpr std::size_t kSingleStreamReserveCap = std::size_t{1} << 20;

// How many query ids a single-stream test will use, estimated from the
// latency of its first query: enough queries of that length to fill the
// duration floor, never below the query floor.  Later queries run no
// faster on a device that only warms up, so the estimate rarely falls
// short; a zero or tiny first latency is capped.
std::size_t SingleStreamQueryEstimate(const TestSettings& settings,
                                      Seconds first_query) {
  // A zero first latency gives infinity, which is capped below, or NaN
  // when the duration floor is zero too, which reads as 0.
  const double by_duration =
      std::max(0.0, settings.min_duration / first_query);
  const std::size_t estimate =
      by_duration < static_cast<double>(kSingleStreamReserveCap)
          ? static_cast<std::size_t>(by_duration) + 2
          : kSingleStreamReserveCap;
  return std::max(settings.min_query_count, estimate);
}

// How many query ids a test will use: exact for accuracy mode, offline,
// multi-stream and server (shed queries included), the query floor for
// single-stream, which runs on until its duration floor is met too.  A
// multi-stream product too large for size_t saturates.
std::size_t ExpectedQueryCount(const TestSettings& settings,
                               std::size_t total_samples) {
  if (settings.mode == TestMode::kAccuracyOnly) return total_samples;
  switch (settings.scenario) {
    case TestScenario::kSingleStream:
      return settings.min_query_count;
    case TestScenario::kOffline:
      return settings.offline_sample_count;
    case TestScenario::kMultiStream: {
      const std::size_t per_query = settings.multistream_samples_per_query;
      if (per_query != 0 && settings.multistream_query_count >
                                std::numeric_limits<std::size_t>::max() /
                                    per_query)
        return std::numeric_limits<std::size_t>::max();
      return settings.multistream_query_count * per_query;
    }
    case TestScenario::kServer:
      return settings.server_query_count;
  }
  return 0;
}

}  // namespace

TestResult RunTest(SystemUnderTest& sut, QuerySampleLibrary& qsl,
                   const TestSettings& settings, Clock& clock,
                   QueryRecord record) {
  Expects(qsl.TotalSampleCount() > 0, "QSL is empty");
  // Refused before the per-query tables below are sized from it.
  const std::size_t expected_queries =
      ExpectedQueryCount(settings, qsl.TotalSampleCount());
  if (expected_queries > kMaxQueryCount)
    throw CheckError("a " + std::string(ToString(settings.scenario)) +
                     " test of " + std::to_string(expected_queries) +
                     " queries exceeds the LoadGen's limit of " +
                     std::to_string(kMaxQueryCount));
  TestResult result;
  result.scenario = settings.scenario;
  result.mode = settings.mode;

  TestLog& log = result.log;
  log.SetField("loadgen_version", "mlpm-1.0");
  log.SetField("sut", std::string(sut.name()));
  log.SetField("qsl", std::string(qsl.name()));
  log.SetField("scenario", std::string(ToString(settings.scenario)));
  log.SetField("mode", std::string(ToString(settings.mode)));
  log.SetField("seed", std::to_string(settings.seed));
  log.SetField("min_query_count", std::to_string(settings.min_query_count));
  log.SetField("min_duration_s",
               std::to_string(settings.min_duration.count()));
  log.SetField("offline_sample_count",
               std::to_string(settings.offline_sample_count));
  log.SetField("latency_percentile",
               std::to_string(settings.latency_percentile));
  if (settings.query_timeout.count() > 0.0)
    log.SetField("query_timeout_s",
                 std::to_string(settings.query_timeout.count()));
  if (settings.scenario == TestScenario::kServer &&
      settings.server_max_queue_depth > 0) {
    log.SetField("server_max_queue_depth",
                 std::to_string(settings.server_max_queue_depth));
    log.SetField("server_max_shed_fraction",
                 std::to_string(settings.server_max_shed_fraction));
  }

  const bool accuracy = settings.mode == TestMode::kAccuracyOnly;
  Collector collector(clock, log, record, accuracy, settings.query_timeout,
                      g_test_sequence.fetch_add(1) + 1);
  // A query logs at most two events (its issue, then its completion or
  // rejection; a shed query logs one), so twice the query count bounds
  // every test's log but single-stream's, where it is a floor until the
  // first query sizes the tables again.  A table the allocator refuses
  // here fails the test before anything runs.
  try {
    if (record == QueryRecord::kKeep) log.Reserve(2 * expected_queries);
    collector.Reserve(expected_queries);
  } catch (const std::bad_alloc&) {
    throw CheckError("cannot reserve the per-query tables of a " +
                     std::to_string(expected_queries) + "-query test");
  }
  std::uint64_t next_id = 1;

  // Scenario phase marks on the test-clock timeline; their order is part of
  // the conformance surface (tests/loadgen_test.cpp).
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const auto mark = [&](std::string_view what) {
    if (!rec.enabled()) return;
    rec.AddInstant(obs::Domain::kLoadGen, "phases",
                   "phase:" + std::string(what), clock.Now().count() * 1e6,
                   {obs::Arg("scenario",
                             std::string(ToString(settings.scenario))),
                    obs::Arg("mode", std::string(ToString(settings.mode)))},
                   "phase");
  };

  if (accuracy) {
    // Accuracy mode: the entire data set, in order (paper §4.1).
    const std::size_t total = qsl.TotalSampleCount();
    std::vector<std::size_t> all(total);
    std::iota(all.begin(), all.end(), std::size_t{0});
    mark("load_samples");
    qsl.LoadSamplesToRam(all);
    const Seconds start = clock.Now();
    mark("issue");
    for (std::size_t i = 0; i < total; ++i) {
      const QuerySample s{next_id++, i};
      collector.ExpectSample(s);
      sut.IssueQuery({&s, 1}, collector);
    }
    mark("flush");
    sut.FlushQueries();
    qsl.UnloadSamplesFromRam(all);
    FillSummary(result, settings, collector, start,
                collector.last_completion());
    if (collector.completed_count() != total)
      result.invalid_reason =
          "accuracy run incomplete: " +
          std::to_string(collector.completed_count()) + " of " +
          std::to_string(total) + " samples completed";
    FinalizeErrors(result, collector);
    // Order outputs by dataset index: query i + 1 carried sample i.
    auto outs = collector.TakeOutputs();
    std::sort(outs.begin(), outs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    result.accuracy_outputs.reserve(outs.size());
    for (auto& [id, tensors] : outs)
      result.accuracy_outputs.push_back(std::move(tensors));
    result.min_duration_met = true;
    result.min_query_count_met = true;
    mark("done");
    return result;
  }

  // Performance mode: a seeded random subset of the data set.
  const std::size_t perf_count =
      settings.performance_sample_count > 0
          ? std::min(settings.performance_sample_count,
                     qsl.TotalSampleCount())
          : std::min(qsl.PerformanceSampleCount(), qsl.TotalSampleCount());
  Expects(perf_count > 0, "performance sample count must be positive");
  Rng rng(settings.seed);
  std::vector<std::size_t> loaded(perf_count);
  std::iota(loaded.begin(), loaded.end(), std::size_t{0});
  mark("load_samples");
  qsl.LoadSamplesToRam(loaded);

  const Seconds start = clock.Now();
  mark("issue");
  if (settings.scenario == TestScenario::kSingleStream) {
    // Issue one query, wait for completion, repeat (paper §4.2) until both
    // the sample floor and the duration floor are met.  A query whose
    // completion never arrives is expired; an SUT that makes no progress
    // at all (no completion *and* no clock movement) would loop forever,
    // so that run is cut short and marked invalid.
    std::size_t issued = 0;
    while (issued < settings.min_query_count ||
           (clock.Now() - start) < settings.min_duration) {
      const QuerySample s{next_id++,
                          static_cast<std::size_t>(rng.NextBelow(perf_count))};
      const Seconds before = clock.Now();
      const std::size_t resolved_before = collector.resolved_count();
      collector.ExpectSample(s);
      sut.IssueQuery({&s, 1}, collector);
      ++issued;
      if (collector.resolved_count() == resolved_before &&
          clock.Now() == before) {
        result.invalid_reason =
            "SUT stalled: no completion and no clock progress after query " +
            std::to_string(s.id);
        break;
      }
      if (issued == 1) {
        // Size the tables once for the whole run, from the first query,
        // instead of doubling them up from the floor.  A reservation the
        // allocator refuses leaves them to grow as they go.
        const std::size_t queries =
            SingleStreamQueryEstimate(settings, clock.Now() - before);
        try {
          if (record == QueryRecord::kKeep) log.Reserve(2 * queries);
          collector.Reserve(queries);
        } catch (const std::bad_alloc&) {
        }
      }
    }
  } else if (settings.scenario == TestScenario::kOffline) {
    // Offline: the whole burst in one query (paper §4.2).
    std::vector<QuerySample> burst;
    burst.reserve(settings.offline_sample_count);
    for (std::size_t i = 0; i < settings.offline_sample_count; ++i) {
      burst.push_back(QuerySample{
          next_id++, static_cast<std::size_t>(rng.NextBelow(perf_count))});
      collector.ExpectSample(burst.back());
    }
    sut.IssueQuery(burst, collector);
  } else if (settings.scenario == TestScenario::kMultiStream) {
    // Multi-stream: a query of N samples every fixed interval (camera
    // frames from N concurrent streams).  Per-query latency counts from
    // the scheduled tick; the run is valid if the percentile latency fits
    // inside the interval.
    Expects(settings.multistream_samples_per_query > 0,
            "multi-stream needs at least one sample per query");
    std::vector<double> query_latencies;
    query_latencies.reserve(settings.multistream_query_count);
    for (std::size_t q = 0; q < settings.multistream_query_count; ++q) {
      const Seconds scheduled =
          start + settings.multistream_interval * static_cast<double>(q);
      clock.WaitUntil(scheduled);
      std::vector<QuerySample> query;
      query.reserve(settings.multistream_samples_per_query);
      for (std::size_t i = 0; i < settings.multistream_samples_per_query;
           ++i) {
        query.push_back(QuerySample{
            next_id++,
            static_cast<std::size_t>(rng.NextBelow(perf_count))});
        collector.ExpectSampleAt(query.back(), scheduled);
      }
      sut.IssueQuery(query, collector);
      query_latencies.push_back((clock.Now() - scheduled).count());
    }
    mark("flush");
    sut.FlushQueries();
    qsl.UnloadSamplesFromRam(loaded);
    FillSummary(result, settings, collector, collector.first_issue(),
                collector.last_completion());
    FinalizeErrors(result, collector);
    // The multi-stream metric is per-query, not per-sample.
    result.latencies_s = query_latencies;
    result.percentile_latency_s =
        Percentile(query_latencies, settings.latency_percentile);
    result.min_query_count_met = true;
    result.min_duration_met = true;
    result.latency_bound_met =
        !result.Errored() &&
        Seconds{result.percentile_latency_s} <=
            settings.multistream_interval;
    log.SetField("result_sample_count",
                 std::to_string(result.sample_count));
    log.SetField("result_percentile_latency_s",
                 std::to_string(result.percentile_latency_s));
    log.SetField("result_throughput_sps",
                 std::to_string(result.throughput_sps));
    mark("done");
    return result;
  } else {
    // Server: seeded Poisson arrivals at the target rate; queries queue
    // behind in-flight work and latency counts from the scheduled arrival.
    // With admission control enabled (server_max_queue_depth > 0) an
    // arrival that would find the issue queue full is shed instead of
    // queueing without bound: the decision depends only on the seeded
    // arrival process and the SUT's (deterministic) service times, so the
    // shed set is identical run-to-run for the same seed.  The sample
    // index is drawn before the shed decision so the RNG stream — and
    // therefore every later query's sample — is unchanged by shedding.
    Expects(settings.server_target_qps > 0.0,
            "server scenario needs a positive target QPS");
    Rng arrival_rng = rng.Split(0xA11);
    Seconds arrival = start;
    // Completion times of admitted-but-possibly-unfinished queries, in
    // issue order (the SUT runs them serially on the test clock).
    std::deque<Seconds> admitted;
    for (std::size_t i = 0; i < settings.server_query_count; ++i) {
      const double gap = -std::log(1.0 - arrival_rng.NextDouble()) /
                         settings.server_target_qps;
      arrival += Seconds{gap};
      const QuerySample s{next_id++,
                          static_cast<std::size_t>(rng.NextBelow(perf_count))};
      while (!admitted.empty() && admitted.front() <= arrival)
        admitted.pop_front();
      if (settings.server_max_queue_depth > 0 &&
          admitted.size() >= settings.server_max_queue_depth) {
        collector.Shed(s, arrival);
        continue;
      }
      collector.ExpectSampleAt(s, arrival);
      // If the device is free before the arrival, idle until it.
      clock.WaitUntil(arrival);
      sut.IssueQuery({&s, 1}, collector);
      admitted.push_back(clock.Now());
    }
  }
  mark("flush");
  sut.FlushQueries();
  qsl.UnloadSamplesFromRam(loaded);

  const Seconds end = collector.last_completion();
  FillSummary(result, settings, collector, collector.first_issue(), end);
  FinalizeErrors(result, collector);
  result.min_query_count_met =
      settings.scenario != TestScenario::kSingleStream ||
      result.sample_count >= settings.min_query_count;
  result.min_duration_met =
      settings.scenario != TestScenario::kSingleStream ||
      Seconds{result.duration_s} >= settings.min_duration;
  result.latency_bound_met =
      settings.scenario != TestScenario::kServer ||
      (!result.Errored() &&
       Seconds{result.percentile_latency_s} <= settings.server_latency_bound);
  // Shedding keeps the accepted-query percentile honest, but a run that
  // refuses too much of the offered load is not serving the target rate.
  result.shed_bound_met =
      settings.scenario != TestScenario::kServer ||
      static_cast<double>(result.shed_count + result.rejected_count) <=
          settings.server_max_shed_fraction *
                  static_cast<double>(settings.server_query_count) +
              1e-9;

  log.SetField("result_sample_count", std::to_string(result.sample_count));
  log.SetField("result_duration_s", std::to_string(result.duration_s));
  log.SetField("result_percentile_latency_s",
               std::to_string(result.percentile_latency_s));
  log.SetField("result_throughput_sps",
               std::to_string(result.throughput_sps));
  mark("done");
  return result;
}

double FindMaxServerQps(
    const std::function<TestResult(double qps)>& run_at_qps, double lo,
    double hi, int iterations) {
  Expects(lo > 0.0 && hi > lo, "invalid QPS search bounds");
  // A probe passes only if it is structurally valid *and* meets both
  // server bounds: an errored run (all samples dropped, stalled SUT)
  // reports a garbage percentile and must not steer the search, and a run
  // that holds the accepted-query percentile only by shedding past the
  // allowed fraction is not actually serving that rate.
  const auto passes = [](const TestResult& r) {
    return !r.Errored() && r.latency_bound_met && r.shed_bound_met;
  };
  const TestResult at_lo = run_at_qps(lo);
  // `lo` errored structurally: the SUT cannot produce a valid run at any
  // rate — probing higher rates would only re-run a broken configuration.
  if (at_lo.Errored()) return 0.0;
  if (!passes(at_lo)) return 0.0;
  if (passes(run_at_qps(hi))) return hi;
  double good = lo, bad = hi;
  for (int i = 0; i < iterations; ++i) {
    const double mid = (good + bad) / 2.0;
    if (passes(run_at_qps(mid)))
      good = mid;
    else
      bad = mid;
  }
  return good;
}

}  // namespace mlpm::loadgen
