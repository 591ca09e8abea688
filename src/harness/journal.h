// Crash-safe submission journal (DESIGN.md §12): an append-only write-ahead
// log with one fsync'd, checksummed record per completed task, so a run
// killed mid-submission can resume where it stopped instead of starting
// over.
//
// File layout (all text, line-oriented):
//
//   mlpm_journal v1\n
//   meta <len> <fnv64-hex>\n
//   <len bytes of meta payload>\n
//   rec <len> <fnv64-hex>\n
//   <len bytes of task-record payload>\n
//   ... more rec frames ...
//
// `len` counts the payload bytes (excluding the trailing newline) and the
// checksum is FNV-1a 64 over exactly those bytes.  Payloads are themselves
// line-oriented tag/key/value entries; multi-line strings (test logs, fault
// logs) are length-prefixed so arbitrary bytes round-trip.  Doubles are
// encoded as C hexfloats, which round-trip bit-exactly — a replayed record
// reproduces the original report byte for byte.
//
// Durability contract: a record is flushed *and* fsync'd before Append
// returns, so a record is either completely on disk or it is the torn tail
// the loader truncates.  The loader never throws on a damaged file: it
// recovers the longest valid prefix and reports what it cut.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/frame_log.h"
#include "harness/record_schema.h"
#include "harness/run_session.h"
#include "models/zoo.h"
#include "soc/chipset.h"

namespace mlpm::harness {

// Identity of the run configuration a journal belongs to.  A journal only
// resumes a run whose meta matches on every field: replaying a record from
// a different seed or config would silently mix incompatible results.
struct JournalMeta {
  std::string chipset;
  std::string version;  // ToString(models::SuiteVersion)
  std::uint64_t seed = 0;
  std::uint64_t config_hash = 0;

  [[nodiscard]] bool Matches(const JournalMeta& other) const {
    return chipset == other.chipset && version == other.version &&
           seed == other.seed && config_hash == other.config_hash;
  }
};

// Canonical text of the LoadGen settings (their field table), fault plan
// and breaker options: the part of the run identity HashRunConfig and
// fleet::HashFleetConfig share, so a settings field added to the table
// joins both hashes.
[[nodiscard]] std::string CanonicalSettings(
    const loadgen::TestSettings& settings,
    const std::optional<soc::FaultPlan>& fault_plan,
    const std::optional<backends::CircuitBreakerOptions>& breaker);

// Deterministic digest of everything that shapes a submission's results:
// CanonicalSettings plus chipset, suite version, run flags and (with a
// fault plan) the recovery options.  Observability knobs (profile/trace),
// the journal path and the accuracy-phase thread count are excluded — they
// never change results.
[[nodiscard]] std::uint64_t HashRunConfig(const soc::ChipsetDesc& chipset,
                                          models::SuiteVersion version,
                                          const RunOptions& options);

// Record payload codecs (schema::Encode/Decode over the field tables
// below), exposed for tests and the mlpm_journal tool.  DecodeTaskRecord
// throws CheckError on malformed payloads; the decoded result carries only
// entry.id (the caller rebinds the live suite entry).
[[nodiscard]] std::string EncodeTaskRecord(const TaskRunResult& tr);
[[nodiscard]] TaskRunResult DecodeTaskRecord(const std::string& payload);
[[nodiscard]] std::string EncodeMeta(const JournalMeta& meta);
[[nodiscard]] JournalMeta DecodeMeta(const std::string& payload);
// LoadGen result codec (every TestResult field except accuracy_outputs),
// shared with the fleet journal's shard records.
[[nodiscard]] std::string EncodeTestResult(const loadgen::TestResult& r);
[[nodiscard]] loadgen::TestResult DecodeTestResult(const std::string& payload);

// What LoadJournal recovered from a file.
struct JournalLoad {
  JournalMeta meta;
  bool meta_valid = false;  // header + meta frame intact
  // Tasks decoded from intact records, in file order.
  std::vector<TaskRunResult> tasks;
  std::size_t intact_records = 0;
  // Bytes past the last intact frame (a torn append, or corruption).
  bool torn_tail = false;
  std::size_t torn_bytes = 0;
  // Offset where the valid prefix ends; a resuming writer truncates here.
  std::size_t valid_prefix_bytes = 0;
  // Human-readable findings (torn record, checksum mismatch, ...).
  std::vector<std::string> notes;
};

// Reads and validates a journal.  Never throws on damaged or missing
// files — the damage is described in `notes` and the valid prefix is
// returned.
[[nodiscard]] JournalLoad LoadJournal(const std::string& path);

// Append-side handle.  Open() either starts a fresh journal (truncating
// whatever was at `path`) or, with `resume`, re-opens an existing one:
// the torn tail, if any, is cut and appends continue after the last
// intact record.  Each Append is flushed and fsync'd before returning.
class JournalWriter {
 public:
  [[nodiscard]] static JournalWriter Open(const std::string& path,
                                          const JournalMeta& meta,
                                          bool resume = false);

  void Append(const TaskRunResult& tr);
  [[nodiscard]] const std::string& path() const { return log_.path(); }

 private:
  explicit JournalWriter(FrameLogWriter log) : log_(std::move(log)) {}

  FrameLogWriter log_;
};

}  // namespace mlpm::harness

// Field tables defined in journal.cpp: the journaled records, and the
// LoadGen settings CanonicalSettings encodes.
namespace mlpm::harness::schema {
template <> Table<loadgen::TestResult> FieldsOf<loadgen::TestResult>();
template <> Table<TaskRunResult> FieldsOf<TaskRunResult>();
template <> Table<JournalMeta> FieldsOf<JournalMeta>();
template <> Table<loadgen::TestSettings> FieldsOf<loadgen::TestSettings>();
}  // namespace mlpm::harness::schema
