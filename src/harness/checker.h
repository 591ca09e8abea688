// Submission checker (paper §4.3, §6.2): validates a submission's unedited
// LoadGen logs and accuracy results against the run rules before it can be
// published.  The checker re-derives every summary statistic from the raw
// issue/completion events rather than trusting reported numbers.
#pragma once

#include <string>
#include <vector>

#include "core/loadgen.h"
#include "harness/run_session.h"
#include "quant/rules.h"

namespace mlpm::harness {

struct CheckReport {
  bool valid = true;
  std::vector<std::string> problems;

  void Problem(std::string what) {
    valid = false;
    problems.push_back(std::move(what));
  }
};

// Validates one performance log against the run rules:
//   * official seed, matching scenario/mode fields;
//   * every query id in [1, number of events] (LoadGen ids are dense);
//   * every issued query completed exactly once, completions not before
//     issues, single-stream strictly serialized;
//   * minimum query count and duration met (single-stream);
//   * offline sample count == 24,576;
//   * reported percentile latency / throughput match values recomputed
//     from the raw events (within 0.1%).
[[nodiscard]] CheckReport CheckPerformanceLog(
    const std::string& serialized_log, const loadgen::TestSettings& expected);

// Validates a full task run: performance log(s), quality threshold, and
// the calibration set (must be a subset of the approved indices).  Each
// recorded log is checked from its events, with every timestamp rounded to
// the nanosecond as the text writes it, and a log with a timestamp that
// rounding cannot carry exactly is checked through its text: the verdict
// is the one CheckPerformanceLog gives the log's serialized text.
[[nodiscard]] CheckReport CheckTaskRun(const TaskRunResult& task,
                                       const loadgen::TestSettings& expected);

// Validates a whole submission; aggregates per-task reports.  With a
// pool each task's rules and each of its recorded logs are checked
// concurrently; the report is the same.
[[nodiscard]] CheckReport CheckSubmission(
    const SubmissionResult& submission, const loadgen::TestSettings& expected,
    const ThreadPool* pool = nullptr);

}  // namespace mlpm::harness
