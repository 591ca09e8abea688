// Structured test log (paper §4.1: the LoadGen "logs information about the
// system during execution to enable post-run validation"; §6.2: submissions
// include all log files unedited, and the checker validates them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/clock.h"

namespace mlpm::loadgen {

enum class LogEventKind : std::uint8_t {
  kQueryIssued,
  kQueryCompleted,
  // Admission-control taxonomy (DESIGN.md §12): `shed` = the LoadGen's
  // bounded issue queue refused the arrival before it reached the SUT;
  // `rejected` = the SUT-side breaker fast-failed an issued query.
  kQueryShed,
  kQueryRejected,
};

struct LogEvent {
  LogEventKind kind = LogEventKind::kQueryIssued;
  std::uint64_t query_id = 0;
  Seconds timestamp{0.0};
};

// Header fields + per-query event trace.  Serializes to a line-oriented
// text format wherever the log leaves the process; the submission checker
// cross-checks the summary against the raw events.  Grammar (DESIGN.md §5),
// one line each:
//   mlpm_loadgen_log v1
//   field <key> <value>
//   <issue|complete|shed|rejected> <u64 id> <fixed timestamp, 9 decimals>
class TestLog {
 public:
  void SetField(const std::string& key, std::string value);
  [[nodiscard]] const std::string* FieldOrNull(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, std::string>& fields() const {
    return fields_;
  }

  void Reserve(std::size_t events) { events_.reserve(events); }
  void Record(LogEventKind kind, std::uint64_t query_id, Seconds t);
  [[nodiscard]] const std::vector<LogEvent>& events() const { return events_; }

  // The one writer.
  [[nodiscard]] std::string Serialize() const;
  // Throws CheckError on any line that does not match the grammar in full.
  [[nodiscard]] static TestLog Parse(std::string_view text);

 private:
  std::map<std::string, std::string> fields_;
  std::vector<LogEvent> events_;
};

// A timestamp as the log's text writes it: `t` in whole nanoseconds,
// rounded half to even.  Nothing when `t` has its sign bit set, is not
// finite or is at least 2^33 s; the writer prints those through
// std::to_chars.  Below 2^53, double(n) / 1e9 is exactly the double that
// TestLog::Parse reads back from the written text.
[[nodiscard]] std::optional<std::uint64_t> TimestampNanoseconds(double t);

}  // namespace mlpm::loadgen
