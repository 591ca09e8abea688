// The Load Generator (paper §4).
//
// Creates inference requests in the scenario's pattern, measures latency /
// throughput against the test clock, selects samples with the official
// seeded RNG (precluding data-set-specific optimizations), and logs every
// issue/completion for post-run validation.  Submitters may not modify this
// component — nothing in it is backend- or vendor-specific.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/logging.h"
#include "core/query.h"
#include "core/settings.h"

namespace mlpm::loadgen {

struct TestResult {
  TestScenario scenario = TestScenario::kSingleStream;
  TestMode mode = TestMode::kPerformanceOnly;

  // Performance outcomes.
  std::vector<double> latencies_s;   // per-sample latency (seconds)
  double duration_s = 0.0;           // first issue -> last completion
  std::size_t sample_count = 0;
  double percentile_latency_s = 0.0;  // at settings.latency_percentile
  double mean_latency_s = 0.0;
  double throughput_sps = 0.0;        // samples per second

  // Run-rule validity (checked again, independently, by the submission
  // checker from the raw log).
  bool min_duration_met = false;
  bool min_query_count_met = false;
  // Server scenario: percentile latency within the latency bound.
  bool latency_bound_met = false;
  // Server scenario: shed + rejected queries within the allowed fraction
  // of offered load (settings.server_max_shed_fraction).  Always true for
  // other scenarios.
  bool shed_bound_met = true;

  // Error taxonomy (paper App. D: buggy delegates, dropped inferences,
  // watchdog-killed drivers are routine on mobile).  A misbehaving SUT
  // degrades the run instead of aborting it: each anomaly is counted and
  // logged, and a run that is structurally unusable gets an invalid_reason
  // instead of a thrown exception.
  std::size_t dropped_count = 0;    // issued, never completed (no watchdog)
  std::size_t timed_out_count = 0;  // expired by the per-query watchdog
  std::size_t duplicate_count = 0;  // repeat completions, ignored
  std::size_t unknown_count = 0;    // completions for unissued ids, ignored
  std::size_t shed_count = 0;       // refused by LoadGen admission control
  std::size_t rejected_count = 0;   // fast-failed by the SUT (breaker open)
  // Queries actually handed to the SUT.  Every issued query resolves as
  // exactly one of {on-time completion, timed_out, dropped, rejected}, so
  //   issued_count == sample_count + timed_out_count + dropped_count
  //                   + rejected_count
  // holds for every run (fleet conformance tests pin this identity).
  std::size_t issued_count = 0;
  // One line per anomaly, with QueryRecord::kKeep; empty with kNone.
  std::vector<std::string> error_log;
  // Empty for a structurally valid run.  Nonempty means the run produced
  // no usable measurement (no completions, stalled SUT, incomplete
  // accuracy coverage) — distinct from a valid run that misses a bound.
  std::string invalid_reason;

  [[nodiscard]] bool Errored() const { return !invalid_reason.empty(); }
  // Anomalies observed (the run may still be valid, just degraded).
  [[nodiscard]] std::size_t AnomalyCount() const {
    return dropped_count + timed_out_count + duplicate_count +
           unknown_count + shed_count + rejected_count;
  }

  // Accuracy mode: model outputs per dataset sample index, for the
  // harness to score against the data set.
  std::vector<std::vector<infer::Tensor>> accuracy_outputs;

  // Header and summary fields, plus every query's events with
  // QueryRecord::kKeep.
  TestLog log;
};

// Whether RunTest builds the per-query record: the log's issue,
// completion, shed and rejection events plus one error_log line per
// anomaly.  The submission checker and the submission journal read it; a
// caller that reads none of it (fleet shards) passes kNone, and gets a
// result whose log holds only its header and summary fields and whose
// error_log is empty.  Counters, latencies, summary fields, metrics
// and trace events are the same either way.
enum class QueryRecord : std::uint8_t { kKeep, kNone };

// The most query ids one test may use.  The trace's per-query async ids
// keep a query id in their low 32 bits, and RunTest sizes its per-query
// tables up front, so a larger count is refused before anything is
// allocated.
inline constexpr std::size_t kMaxQueryCount = 0xFFFFFFFF;

// Runs one test.  The clock must be the same one the SUT uses to report
// completions (wall clock for functional backends, the simulator's virtual
// clock otherwise).  Throws CheckError if the settings ask for more than
// kMaxQueryCount queries.
[[nodiscard]] TestResult RunTest(SystemUnderTest& sut,
                                 QuerySampleLibrary& qsl,
                                 const TestSettings& settings, Clock& clock,
                                 QueryRecord record = QueryRecord::kKeep);

// Binary-searches the highest server QPS whose run still meets the latency
// bound and the shed bound (a rate "served" only by refusing offered load
// past server_max_shed_fraction does not count).  `run_at_qps` must execute
// a fresh server-scenario test at the given rate (fresh SUT + clock per
// probe) and return its result.
// Returns 0 if even `lo` fails.  An errored probe (TestResult::Errored())
// is an invalid run, not a latency-bound miss: if the `lo` probe errors the
// search stops immediately without further probes, and an errored mid
// probe counts as a failure so the search cannot converge on garbage.
[[nodiscard]] double FindMaxServerQps(
    const std::function<TestResult(double qps)>& run_at_qps, double lo,
    double hi, int iterations = 10);

}  // namespace mlpm::loadgen
