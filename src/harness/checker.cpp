#include "harness/checker.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "common/statistics.h"
#include "common/thread_pool.h"
#include "common/table.h"
#include "harness/task_bundle.h"

namespace mlpm::harness {
namespace {

bool Near(double a, double b, double rel_tol) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale == 0.0 || std::abs(a - b) <= rel_tol * scale;
}

// The whole of `text` as a finite double, or nothing.
std::optional<double> ParseFinite(std::string_view text) {
  double v = 0.0;
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end || !std::isfinite(v)) return {};
  return v;
}

// One query of the log being checked, indexed by its id.
struct QuerySlot {
  enum State : std::uint8_t { kNone, kOpen, kClosed };
  double issued_at = 0.0;
  State state = kNone;
};

// One walk over a log's events in log order, then Finish(), which also
// reads the log's fields.  The text path feeds it a parsed log; the
// recorded path feeds it the recorded events, each timestamp rounded as
// the text would write it.
//
// Shed and rejected queries (DESIGN.md §12) resolve without a completion:
// shed queries were never issued to the SUT at all, rejected ones were
// fast-failed by an open breaker — neither contributes a latency sample,
// and neither may be double-counted as never-completed.
//
// LoadGen ids are dense from 1 and every id has at least one event, so a
// table indexed by id covers every query of a well-formed log; an id
// outside [1, events] is a problem of its own.  The table holds the
// largest id in that range, which for a log of issues and completions is
// half its events.
class LogCheck {
 public:
  // `fields` must outlive the check; `events` are the log's events, which
  // bound its ids and size the slot table.  The walk still feeds each one
  // to Event().
  LogCheck(const loadgen::TestSettings& expected,
           const std::map<std::string, std::string>& fields,
           std::span<const loadgen::LogEvent> events)
      : expected_(expected),
        fields_(fields),
        events_(events.size()),
        multi_stream_(expected.scenario ==
                      loadgen::TestScenario::kMultiStream),
        queries_(LargestIdInRange(events) + 1) {
    latencies_.reserve(events.size() / 2);
  }

  void Event(const loadgen::LogEvent& e) {
    const double t = e.timestamp.count();
    if (e.query_id == 0 || e.query_id > events_) {
      Problem("query " + std::to_string(e.query_id) + " out of range");
      return;
    }
    QuerySlot& q = queries_[e.query_id];
    if (e.kind == loadgen::LogEventKind::kQueryIssued) {
      if (open_queries_ > 0) serialized_ = false;
      if (q.state == QuerySlot::kOpen) {
        Problem("query " + std::to_string(e.query_id) + " issued twice");
      } else {
        q.state = QuerySlot::kOpen;
        ++open_queries_;
      }
      q.issued_at = t;
      if (first_issue_ < 0) first_issue_ = t;
      if (t < last_issue_time_)
        Problem("issue timestamps are not monotonic");
      last_issue_time_ = t;
      return;
    }
    // Multi-stream: every later event of a query issued earlier in the log
    // counts at the query's latest issue time.  Only issue events change
    // "ever issued" and issued_at, so this is read before the state moves.
    if (multi_stream_ && q.state != QuerySlot::kNone) {
      auto [it, inserted] = per_query_.try_emplace(q.issued_at, t);
      if (!inserted) it->second = std::max(it->second, t);
    }
    if (e.kind == loadgen::LogEventKind::kQueryShed) {
      if (q.state == QuerySlot::kOpen)
        Problem("query " + std::to_string(e.query_id) +
                " both issued and shed");
      ++shed_events_;
    } else if (e.kind == loadgen::LogEventKind::kQueryRejected) {
      if (q.state != QuerySlot::kOpen) {
        Problem("rejection for unknown query " + std::to_string(e.query_id));
        return;
      }
      ++rejected_events_;
      q.state = QuerySlot::kClosed;
      --open_queries_;
    } else {
      if (q.state != QuerySlot::kOpen) {
        Problem("completion for unknown query " +
                std::to_string(e.query_id));
        return;
      }
      if (t < q.issued_at)
        Problem("query " + std::to_string(e.query_id) +
                " completed before it was issued");
      latencies_.push_back(t - q.issued_at);
      last_complete_ = std::max(last_complete_, t);
      q.state = QuerySlot::kClosed;
      --open_queries_;
    }
  }

  // The verdict: field problems first, then the events' in log order, then
  // the run rules and the summary cross-check.
  CheckReport Finish() {
    CheckReport report;
    const auto field = [&](const std::string& key) -> std::string {
      const auto it = fields_.find(key);
      if (it == fields_.end()) {
        report.Problem("missing log field: " + key);
        return {};
      }
      return it->second;
    };
    if (field("seed") != std::to_string(expected_.seed))
      report.Problem("seed differs from the official seed");
    if (field("scenario") != std::string(ToString(expected_.scenario)))
      report.Problem("scenario mismatch");
    if (field("mode") != std::string(ToString(expected_.mode)))
      report.Problem("mode mismatch");
    for (std::string& p : event_problems_) report.Problem(std::move(p));

    const std::size_t never_completed = open_queries_;
    if (never_completed > 0)
      report.Problem(std::to_string(never_completed) +
                     " queries were never completed");
    if (latencies_.empty()) {
      report.Problem("log contains no completed queries");
      return report;
    }

    // The server bound and the summary cross-check read one selection.
    std::optional<double> percentile;
    const auto latency_percentile = [&] {
      if (!percentile)
        percentile = Percentile(latencies_, expected_.latency_percentile);
      return *percentile;
    };
    const double duration = last_complete_ - first_issue_;
    switch (expected_.scenario) {
      case loadgen::TestScenario::kSingleStream:
        if (!serialized_)
          report.Problem("single-stream queries overlapped in flight");
        if (latencies_.size() < expected_.min_query_count)
          report.Problem("fewer than " +
                         std::to_string(expected_.min_query_count) +
                         " samples");
        if (duration + 1e-9 < expected_.min_duration.count())
          report.Problem("run shorter than the 60 s minimum");
        break;
      case loadgen::TestScenario::kOffline:
        if (latencies_.size() != expected_.offline_sample_count)
          report.Problem("offline sample count is not " +
                         std::to_string(expected_.offline_sample_count));
        break;
      case loadgen::TestScenario::kServer: {
        // Every offered query must be accounted for exactly once:
        // completed, shed by admission control, rejected by the breaker,
        // or flagged above as never completed (DESIGN.md §12).
        const std::size_t accounted = latencies_.size() + shed_events_ +
                                      rejected_events_ + never_completed;
        if (accounted != expected_.server_query_count)
          report.Problem("server query accounting is " +
                         std::to_string(accounted) + ", not " +
                         std::to_string(expected_.server_query_count));
        if (expected_.server_max_queue_depth > 0 &&
            static_cast<double>(shed_events_ + rejected_events_) >
                expected_.server_max_shed_fraction *
                        static_cast<double>(expected_.server_query_count) +
                    1e-9)
          report.Problem(
              "server shed/rejected more than the allowed " +
              FormatDouble(expected_.server_max_shed_fraction * 100, 1) +
              "% of offered queries");
        // The latency SLO applies to the accepted queries only; shed
        // queries were refused precisely so the accepted ones could meet
        // it.
        if (latency_percentile() >
            expected_.server_latency_bound.count() + 1e-9)
          report.Problem("server percentile latency exceeds the bound");
        break;
      }
      case loadgen::TestScenario::kMultiStream: {
        const std::size_t expected_samples =
            expected_.multistream_query_count *
            expected_.multistream_samples_per_query;
        if (latencies_.size() != expected_samples)
          report.Problem("multi-stream sample count is not " +
                         std::to_string(expected_samples));
        // Per-query latency: samples of one query share the scheduled
        // issue timestamp; the query finishes with its last sample.
        std::vector<double> query_lat;
        query_lat.reserve(per_query_.size());
        for (const auto& [sched, done] : per_query_)
          query_lat.push_back(done - sched);
        if (!query_lat.empty() &&
            Percentile(query_lat, expected_.latency_percentile) >
                expected_.multistream_interval.count() + 1e-9)
          report.Problem("multi-stream queries overflow the frame interval");
        break;
      }
    }

    // Cross-check the reported summary against the raw events.
    // (Multi-stream reports a per-query percentile, recomputed above.)
    // A summary field that is not one finite number in full is a problem
    // of its own, never an exception out of the checker.
    const auto reported = [&](const std::string& key) -> std::optional<double> {
      const auto it = fields_.find(key);
      if (it == fields_.end()) return {};
      const std::optional<double> v = ParseFinite(it->second);
      if (!v) report.Problem("unparseable log field: " + key);
      return v;
    };
    if (expected_.scenario == loadgen::TestScenario::kSingleStream ||
        expected_.scenario == loadgen::TestScenario::kServer) {
      if (const auto rep = reported("result_percentile_latency_s");
          rep && !Near(*rep, latency_percentile(), 1e-3))
        report.Problem("reported percentile latency does not match events");
    }
    if (const auto rep = reported("result_throughput_sps")) {
      const double recomputed =
          duration > 0 ? static_cast<double>(latencies_.size()) / duration
                       : 0;
      if (!Near(*rep, recomputed, 1e-3))
        report.Problem("reported throughput does not match events");
    }
    return report;
  }

 private:
  void Problem(std::string what) { event_problems_.push_back(std::move(what)); }

  static std::uint64_t LargestIdInRange(
      std::span<const loadgen::LogEvent> events) {
    std::uint64_t largest = 0;
    for (const loadgen::LogEvent& e : events)
      if (e.query_id <= events.size()) largest = std::max(largest, e.query_id);
    return largest;
  }

  const loadgen::TestSettings& expected_;
  const std::map<std::string, std::string>& fields_;
  const std::size_t events_;
  const bool multi_stream_;
  std::vector<QuerySlot> queries_;
  std::vector<std::string> event_problems_;
  std::size_t open_queries_ = 0;
  std::vector<double> latencies_;
  std::size_t shed_events_ = 0, rejected_events_ = 0;
  double first_issue_ = -1.0, last_complete_ = 0.0;
  double last_issue_time_ = -1.0;
  bool serialized_ = true;
  std::map<double, double> per_query_;  // scheduled -> max completion
};

// The recorded path: the check reads the recorded events, each timestamp
// as the double that Parse reads from its text, double(n) / 1e9 for the
// written nanosecond count n (exact below 2^53, and IEEE division rounds
// correctly).  A log with any timestamp off that path is checked through
// its text, so the verdict is the text check's either way.
CheckReport CheckRecordedLog(const loadgen::TestLog& log,
                             const loadgen::TestSettings& expected) {
  constexpr std::uint64_t kExactNanos = std::uint64_t{1} << 53;
  LogCheck check(expected, log.fields(), log.events());
  for (const loadgen::LogEvent& e : log.events()) {
    const std::optional<std::uint64_t> n =
        loadgen::TimestampNanoseconds(e.timestamp.count());
    if (!n || *n >= kExactNanos)
      return CheckPerformanceLog(log.Serialize(), expected);
    check.Event({e.kind, e.query_id,
                 loadgen::Seconds{static_cast<double>(*n) / 1e9}});
  }
  return check.Finish();
}

// A task's check is three independent parts, reported in this order; a
// log part is empty when the task recorded no such log.
enum class TaskPart { kRules, kSingleStream, kOffline };
constexpr TaskPart kTaskParts[] = {TaskPart::kRules, TaskPart::kSingleStream,
                                   TaskPart::kOffline};

bool HasPart(const TaskRunResult& task, TaskPart part) {
  if (part == TaskPart::kSingleStream) return task.single_stream.has_value();
  if (part == TaskPart::kOffline) return task.offline.has_value();
  return true;
}

CheckReport CheckRules(const TaskRunResult& task) {
  CheckReport report;

  // Quality gate: performance results only count above the threshold.
  // (dataset_size == 0 means accuracy mode was skipped, e.g. an
  // engineering performance-only run, which is not a submission.)
  if (task.dataset_size > 0 && !task.quality_passed)
    report.Problem(task.entry.id + ": accuracy " +
                   std::to_string(task.ratio_to_fp32) +
                   " of FP32 is below the quality target " +
                   std::to_string(task.entry.quality_target));

  // Accuracy mode must cover the entire validation set (§4.1).
  if (task.dataset_size > 0 &&
      task.accuracy_sample_count != task.dataset_size)
    report.Problem(task.entry.id + ": accuracy mode scored " +
                   std::to_string(task.accuracy_sample_count) + " of " +
                   std::to_string(task.dataset_size) +
                   " validation samples");

  // Calibration legality (INT8 submissions only).
  if (IsQuantized(task.numerics)) {
    const quant::LegalityReport cal = quant::CheckCalibrationSet(
        OfficialCalibrationIndices(), task.calibration_indices);
    for (const std::string& v : cal.violations) report.Problem(v);
  }
  return report;
}

CheckReport CheckTaskPart(const TaskRunResult& task, TaskPart part,
                          const loadgen::TestSettings& expected) {
  if (part == TaskPart::kRules) return CheckRules(task);
  if (!HasPart(task, part)) return {};
  const bool offline = part == TaskPart::kOffline;
  loadgen::TestSettings s = expected;
  s.scenario = offline ? loadgen::TestScenario::kOffline
                       : loadgen::TestScenario::kSingleStream;
  s.mode = loadgen::TestMode::kPerformanceOnly;
  CheckReport report = CheckRecordedLog(
      offline ? task.offline->log : task.single_stream->log, s);
  const std::string prefix = task.entry.id + (offline ? " (offline): " : ": ");
  for (std::string& p : report.problems) p.insert(0, prefix);
  return report;
}

void Append(CheckReport& into, CheckReport&& part) {
  for (std::string& p : part.problems) into.Problem(std::move(p));
}

}  // namespace

CheckReport CheckPerformanceLog(const std::string& serialized_log,
                                const loadgen::TestSettings& expected) {
  loadgen::TestLog log;
  try {
    log = loadgen::TestLog::Parse(serialized_log);
  } catch (const CheckError& e) {
    CheckReport report;
    report.Problem(std::string("unparseable log: ") + e.what());
    return report;
  }
  LogCheck check(expected, log.fields(), log.events());
  for (const loadgen::LogEvent& e : log.events()) check.Event(e);
  return check.Finish();
}

CheckReport CheckTaskRun(const TaskRunResult& task,
                         const loadgen::TestSettings& expected) {
  CheckReport report;
  for (const TaskPart part : kTaskParts)
    Append(report, CheckTaskPart(task, part, expected));
  return report;
}

CheckReport CheckSubmission(const SubmissionResult& submission,
                            const loadgen::TestSettings& expected,
                            const ThreadPool* pool) {
  CheckReport report;
  if (submission.tasks.empty()) report.Problem("submission has no tasks");
  // Each task's rules and each recorded log is one item, so a task's two
  // logs run on different lanes.  Items are checked into their own slots
  // and folded in task order, then part order: the report is the same for
  // any pool.
  std::vector<std::pair<const TaskRunResult*, TaskPart>> items;
  for (const TaskRunResult& task : submission.tasks)
    for (const TaskPart part : kTaskParts)
      if (HasPart(task, part)) items.emplace_back(&task, part);
  std::vector<CheckReport> item_reports(items.size());
  ParallelForEachItem(pool, items.size(), [&](ItemClaims& next) {
    while (const std::optional<std::size_t> i = next())
      item_reports[*i] =
          CheckTaskPart(*items[*i].first, items[*i].second, expected);
  });
  for (CheckReport& item_report : item_reports)
    Append(report, std::move(item_report));
  return report;
}

}  // namespace mlpm::harness
