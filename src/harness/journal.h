// Crash-safe submission journal (DESIGN.md §12): the journal of
// harness/frame_log.h with one `rec` frame per completed task, so a run
// killed mid-submission can resume where it stopped instead of starting
// over.
//
//   mlpm_journal v1\n
//   meta <len> <fnv64-hex>\n
//   <len bytes of meta payload>\n
//   rec <len> <fnv64-hex>\n
//   <len bytes of task-record payload>\n
//   ... more rec frames ...
//
// Payloads are line-oriented tag/key/value entries generated from the field
// tables below; multi-line strings (test logs, fault logs) are
// length-prefixed so arbitrary bytes round-trip, and doubles are C
// hexfloats, which round-trip bit-exactly: a replayed record reproduces
// the original report byte for byte.  A decoded task record carries only
// entry.id (the caller rebinds the live suite entry).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

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

  bool operator==(const JournalMeta&) const = default;
};

// The frame kind of a submission journal's task records.
inline constexpr std::string_view kTaskRecordKind = "rec";

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

}  // namespace mlpm::harness

// Field tables defined in journal.cpp: the journaled records, and the
// LoadGen settings CanonicalSettings encodes.
namespace mlpm::harness::schema {
template <> Table<loadgen::TestResult> FieldsOf<loadgen::TestResult>();
template <> Table<TaskRunResult> FieldsOf<TaskRunResult>();
template <> Table<JournalMeta> FieldsOf<JournalMeta>();
template <> Table<loadgen::TestSettings> FieldsOf<loadgen::TestSettings>();
}  // namespace mlpm::harness::schema
