#include "harness/checker.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <optional>

#include "common/statistics.h"
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

}  // namespace

CheckReport CheckPerformanceLog(const std::string& serialized_log,
                                const loadgen::TestSettings& expected) {
  CheckReport report;
  loadgen::TestLog log;
  try {
    log = loadgen::TestLog::Parse(serialized_log);
  } catch (const CheckError& e) {
    report.Problem(std::string("unparseable log: ") + e.what());
    return report;
  }

  const auto field = [&](const std::string& key) -> std::string {
    const std::string* v = log.FieldOrNull(key);
    if (v == nullptr) {
      report.Problem("missing log field: " + key);
      return {};
    }
    return *v;
  };

  if (field("seed") != std::to_string(expected.seed))
    report.Problem("seed differs from the official seed");
  if (field("scenario") != std::string(ToString(expected.scenario)))
    report.Problem("scenario mismatch");
  if (field("mode") != std::string(ToString(expected.mode)))
    report.Problem("mode mismatch");

  // Reconstruct per-query latencies from raw events.  Shed and rejected
  // queries (DESIGN.md §12) resolve without a completion: shed queries
  // were never issued to the SUT at all, rejected ones were fast-failed
  // by an open breaker — neither contributes a latency sample, and
  // neither may be double-counted as never-completed.
  //
  // LoadGen ids are dense from 1 and every id has at least one event, so a
  // table indexed by id covers every query of a well-formed log; an id
  // outside [1, events] is a problem of its own.
  const std::vector<loadgen::LogEvent>& events = log.events();
  std::vector<QuerySlot> queries(events.size() + 1);
  const auto slot = [&](std::uint64_t id) -> QuerySlot* {
    return id == 0 || id > events.size() ? nullptr : &queries[id];
  };
  std::size_t open_queries = 0;
  std::vector<double> latencies;
  latencies.reserve(events.size() / 2);
  std::size_t shed_events = 0, rejected_events = 0;
  double first_issue = -1.0, last_complete = 0.0;
  double last_issue_time = -1.0;
  bool serialized = true;
  for (const loadgen::LogEvent& e : events) {
    const double t = e.timestamp.count();
    QuerySlot* const q = slot(e.query_id);
    if (q == nullptr) {
      report.Problem("query " + std::to_string(e.query_id) + " out of range");
      continue;
    }
    if (e.kind == loadgen::LogEventKind::kQueryIssued) {
      if (open_queries > 0) serialized = false;
      if (q->state == QuerySlot::kOpen) {
        report.Problem("query " + std::to_string(e.query_id) +
                       " issued twice");
      } else {
        q->state = QuerySlot::kOpen;
        ++open_queries;
      }
      q->issued_at = t;
      if (first_issue < 0) first_issue = t;
      if (t < last_issue_time)
        report.Problem("issue timestamps are not monotonic");
      last_issue_time = t;
    } else if (e.kind == loadgen::LogEventKind::kQueryShed) {
      if (q->state == QuerySlot::kOpen)
        report.Problem("query " + std::to_string(e.query_id) +
                       " both issued and shed");
      ++shed_events;
    } else if (e.kind == loadgen::LogEventKind::kQueryRejected) {
      if (q->state != QuerySlot::kOpen) {
        report.Problem("rejection for unknown query " +
                       std::to_string(e.query_id));
        continue;
      }
      ++rejected_events;
      q->state = QuerySlot::kClosed;
      --open_queries;
    } else {
      if (q->state != QuerySlot::kOpen) {
        report.Problem("completion for unknown query " +
                       std::to_string(e.query_id));
        continue;
      }
      if (t < q->issued_at)
        report.Problem("query " + std::to_string(e.query_id) +
                       " completed before it was issued");
      latencies.push_back(t - q->issued_at);
      last_complete = std::max(last_complete, t);
      q->state = QuerySlot::kClosed;
      --open_queries;
    }
  }
  const std::size_t never_completed = open_queries;
  if (never_completed > 0)
    report.Problem(std::to_string(never_completed) +
                   " queries were never completed");
  if (latencies.empty()) {
    report.Problem("log contains no completed queries");
    return report;
  }

  const double duration = last_complete - first_issue;
  switch (expected.scenario) {
    case loadgen::TestScenario::kSingleStream:
      if (!serialized)
        report.Problem("single-stream queries overlapped in flight");
      if (latencies.size() < expected.min_query_count)
        report.Problem("fewer than " +
                       std::to_string(expected.min_query_count) +
                       " samples");
      if (duration + 1e-9 < expected.min_duration.count())
        report.Problem("run shorter than the 60 s minimum");
      break;
    case loadgen::TestScenario::kOffline:
      if (latencies.size() != expected.offline_sample_count)
        report.Problem("offline sample count is not " +
                       std::to_string(expected.offline_sample_count));
      break;
    case loadgen::TestScenario::kServer: {
      // Every offered query must be accounted for exactly once: completed,
      // shed by admission control, rejected by the breaker, or flagged
      // above as never completed (DESIGN.md §12).
      const std::size_t accounted =
          latencies.size() + shed_events + rejected_events + never_completed;
      if (accounted != expected.server_query_count)
        report.Problem("server query accounting is " +
                       std::to_string(accounted) + ", not " +
                       std::to_string(expected.server_query_count));
      if (expected.server_max_queue_depth > 0 &&
          static_cast<double>(shed_events + rejected_events) >
              expected.server_max_shed_fraction *
                      static_cast<double>(expected.server_query_count) +
                  1e-9)
        report.Problem("server shed/rejected more than the allowed " +
                       FormatDouble(expected.server_max_shed_fraction * 100,
                                    1) +
                       "% of offered queries");
      // The latency SLO applies to the accepted queries only; shed
      // queries were refused precisely so the accepted ones could meet it.
      const double pct =
          Percentile(latencies, expected.latency_percentile);
      if (pct > expected.server_latency_bound.count() + 1e-9)
        report.Problem("server percentile latency exceeds the bound");
      break;
    }
    case loadgen::TestScenario::kMultiStream: {
      const std::size_t expected_samples =
          expected.multistream_query_count *
          expected.multistream_samples_per_query;
      if (latencies.size() != expected_samples)
        report.Problem("multi-stream sample count is not " +
                       std::to_string(expected_samples));
      // Re-derive per-query latency: samples of one query share the
      // scheduled issue timestamp; the query finishes with its last sample.
      // A second walk over the same table: an event of a query issued
      // earlier in the log counts at the query's latest issue time.
      std::map<double, double> per_query;  // scheduled -> max completion
      std::fill(queries.begin(), queries.end(), QuerySlot{});
      for (const loadgen::LogEvent& e : events) {
        QuerySlot* const q = slot(e.query_id);
        if (q == nullptr) continue;
        if (e.kind == loadgen::LogEventKind::kQueryIssued) {
          q->state = QuerySlot::kOpen;
          q->issued_at = e.timestamp.count();
        } else if (q->state != QuerySlot::kNone) {
          auto [it, inserted] =
              per_query.try_emplace(q->issued_at, e.timestamp.count());
          if (!inserted)
            it->second = std::max(it->second, e.timestamp.count());
        }
      }
      std::vector<double> query_lat;
      query_lat.reserve(per_query.size());
      for (const auto& [sched, done] : per_query)
        query_lat.push_back(done - sched);
      if (!query_lat.empty() &&
          Percentile(query_lat, expected.latency_percentile) >
              expected.multistream_interval.count() + 1e-9)
        report.Problem("multi-stream queries overflow the frame interval");
      break;
    }
  }

  // Cross-check the reported summary against the raw events.
  // (Multi-stream reports a per-query percentile, recomputed above.)
  // A summary field that is not one finite number in full is a problem of
  // its own, never an exception out of the checker.
  const auto reported = [&](const std::string& key) -> std::optional<double> {
    const std::string* rep = log.FieldOrNull(key);
    if (rep == nullptr) return {};
    const std::optional<double> v = ParseFinite(*rep);
    if (!v) report.Problem("unparseable log field: " + key);
    return v;
  };
  if (expected.scenario == loadgen::TestScenario::kSingleStream ||
      expected.scenario == loadgen::TestScenario::kServer) {
    if (const auto rep = reported("result_percentile_latency_s");
        rep && !Near(*rep, Percentile(latencies, expected.latency_percentile),
                     1e-3))
      report.Problem("reported percentile latency does not match events");
  }
  if (const auto rep = reported("result_throughput_sps")) {
    const double recomputed =
        duration > 0 ? static_cast<double>(latencies.size()) / duration : 0;
    if (!Near(*rep, recomputed, 1e-3))
      report.Problem("reported throughput does not match events");
  }
  return report;
}

CheckReport CheckTaskRun(const TaskRunResult& task,
                         const loadgen::TestSettings& expected) {
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

  if (task.single_stream) {
    loadgen::TestSettings ss = expected;
    ss.scenario = loadgen::TestScenario::kSingleStream;
    ss.mode = loadgen::TestMode::kPerformanceOnly;
    CheckReport log_report =
        CheckPerformanceLog(task.single_stream->log.Serialize(), ss);
    for (std::string& p : log_report.problems)
      report.Problem(task.entry.id + ": " + p);
  }
  if (task.offline) {
    loadgen::TestSettings off = expected;
    off.scenario = loadgen::TestScenario::kOffline;
    off.mode = loadgen::TestMode::kPerformanceOnly;
    CheckReport log_report =
        CheckPerformanceLog(task.offline->log.Serialize(), off);
    for (std::string& p : log_report.problems)
      report.Problem(task.entry.id + " (offline): " + p);
  }
  return report;
}

CheckReport CheckSubmission(const SubmissionResult& submission,
                            const loadgen::TestSettings& expected) {
  CheckReport report;
  if (submission.tasks.empty()) report.Problem("submission has no tasks");
  for (const TaskRunResult& t : submission.tasks) {
    CheckReport task_report = CheckTaskRun(t, expected);
    for (std::string& p : task_report.problems) report.Problem(std::move(p));
  }
  return report;
}

}  // namespace mlpm::harness
