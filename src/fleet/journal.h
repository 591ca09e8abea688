// Crash-safe fleet journal: the journal of harness/frame_log.h (the
// submission journal's header line, framing and checksums) carrying shard
// frames instead of task frames:
//
//   mlpm_journal v1\n
//   meta <len> <fnv64-hex>\n   — fleet identity (no `chipset` key, so a
//   <payload>\n                  fleet meta never decodes as a submission
//   shard <len> <fnv64-hex>\n    meta and vice versa)
//   <payload>\n                — one frame per finished shard
//
// Shards finish in worker-scheduling order, so the shard frames of two
// identical runs may be permuted; replay keys records by shard id (a later
// frame wins) and the aggregated report is built from the sorted shard
// vector, which keeps the determinism contract byte-exact even though the
// journal file itself is not canonical.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet.h"
#include "harness/frame_log.h"
#include "harness/record_schema.h"

namespace mlpm::fleet {

// Identity of the fleet configuration a journal belongs to; resume replays
// only from a journal whose meta matches on every field.
struct FleetJournalMeta {
  std::string version;  // ToString(models::SuiteVersion)
  std::uint64_t seed = 0;
  std::uint64_t shard_count = 0;
  std::uint64_t config_hash = 0;

  bool operator==(const FleetJournalMeta&) const = default;
};

// The frame kind of a fleet journal's shard records.
inline constexpr std::string_view kShardRecordKind = "shard";

// Deterministic digest of everything that shapes fleet results: suite
// version, mix, LoadGen settings, seed policy, fault plan, breaker options
// and the accuracy-plane flags.  Worker count and observability knobs are
// excluded — they never change results.
//
// The settings, fault plan and breaker part is harness::CanonicalSettings,
// shared with harness::HashRunConfig.
[[nodiscard]] std::uint64_t HashFleetConfig(const FleetOptions& options,
                                            const std::vector<FleetMixEntry>&
                                                mix);

}  // namespace mlpm::fleet

// Field tables defined in fleet/journal.cpp.  The shard record nests the
// LoadGen result through the TestResult table of harness/journal.h.
namespace mlpm::harness::schema {
template <> Table<fleet::FleetJournalMeta> FieldsOf<fleet::FleetJournalMeta>();
template <> Table<fleet::ShardResult> FieldsOf<fleet::ShardResult>();
}  // namespace mlpm::harness::schema
