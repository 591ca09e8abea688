// Structured test log (paper §4.1: the LoadGen "logs information about the
// system during execution to enable post-run validation"; §6.2: submissions
// include all log files unedited, and the checker validates them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
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
// text format; the submission checker parses it back and cross-checks the
// summary against the raw events.  Grammar (DESIGN.md §5), one line each:
//   mlpm_loadgen_log v1
//   field <key> <value>
//   <issue|complete|shed|rejected> <u64 id> <fixed timestamp, 9 decimals>
class TestLog {
 public:
  // The writer's piece size: every piece it emits is at most this long,
  // unless a single line is longer.
  static constexpr std::size_t kPieceBytes = std::size_t{64} << 10;

  void SetField(const std::string& key, std::string value);
  [[nodiscard]] const std::string* FieldOrNull(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, std::string>& fields() const {
    return fields_;
  }

  void Reserve(std::size_t events) { events_.reserve(events); }
  void Record(LogEventKind kind, std::uint64_t query_id, Seconds t);
  [[nodiscard]] const std::vector<LogEvent>& events() const { return events_; }

  // The one writer: calls `piece` with consecutive pieces of the text, each
  // made of whole lines.  A piece's bytes are valid only during the call.
  void Write(const std::function<void(std::string_view)>& piece) const;
  // The concatenation of Write()'s pieces.
  [[nodiscard]] std::string Serialize() const;
  // Throws CheckError on any line that does not match the grammar in full.
  [[nodiscard]] static TestLog Parse(std::string_view text);

 private:
  std::map<std::string, std::string> fields_;
  std::vector<LogEvent> events_;
};

// Receives a log's records from a LogReader, in line order.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Field(std::string_view key, std::string_view value) = 0;
  virtual void Event(const LogEvent& event) = 0;
};

// The strict reader (DESIGN.md §5) as a stream: it holds no text and no
// records, only its place in the grammar.  Each piece must end at a line
// boundary or at the end of the log; TestLog::Write's pieces do.
class LogReader {
 public:
  explicit LogReader(LogSink& sink) : sink_(sink) {}

  // Reads the piece's lines into the sink; throws CheckError on the first
  // line that does not match the grammar.
  void Feed(std::string_view piece);
  // Ends the log; throws CheckError if no byte was fed.
  void Finish() const;

 private:
  LogSink& sink_;
  bool header_read_ = false;
  bool ended_ = false;  // the last piece ended without a '\n'
};

}  // namespace mlpm::loadgen
