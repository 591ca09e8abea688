// Crash-safe fleet journal: the submission journal's WAL format
// (harness/frame_log.h — same header line, framing and checksums) carrying
// fleet frames instead of task frames:
//
//   mlpm_journal v1\n
//   meta <len> <fnv64-hex>\n   — fleet identity (no `chipset` key, so a
//   <payload>\n                  fleet meta never decodes as a submission
//   shard <len> <fnv64-hex>\n    meta and vice versa)
//   <payload>\n                — one frame per finished shard
//
// Shards finish in worker-scheduling order, so the shard frames of two
// identical runs may be permuted; replay keys records by shard id and the
// aggregated report is built from the sorted shard vector, which keeps the
// determinism contract byte-exact even though the journal file itself is
// not canonical.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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

  [[nodiscard]] bool Matches(const FleetJournalMeta& other) const {
    return version == other.version && seed == other.seed &&
           shard_count == other.shard_count &&
           config_hash == other.config_hash;
  }
};

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

// Payload codecs: harness::schema::Encode/Decode over the field tables
// declared at the end of this header.
[[nodiscard]] std::string EncodeFleetMeta(const FleetJournalMeta& meta);
// Throws CheckError on malformed payloads (including a submission-journal
// meta, which lacks the shard_count key).
[[nodiscard]] FleetJournalMeta DecodeFleetMeta(const std::string& payload);

[[nodiscard]] std::string EncodeShardResult(const ShardResult& shard);
[[nodiscard]] ShardResult DecodeShardResult(const std::string& payload);

struct FleetJournalLoad {
  bool meta_valid = false;
  FleetJournalMeta meta;
  // Intact shard records keyed by shard id (later frames win, matching the
  // append-only overwrite semantics of a re-run shard).
  std::map<std::size_t, ShardResult> shards;
  std::size_t valid_prefix_bytes = 0;
  bool torn_tail = false;
  std::vector<std::string> notes;
};

// Never throws: recovers the longest interpretable prefix of the file and
// reports what it cut.  A missing file yields an empty load.
[[nodiscard]] FleetJournalLoad LoadFleetJournal(const std::string& path);

// Thread-safe appender: shards finish on worker threads, and the underlying
// FrameLogWriter requires external serialization, so every append takes the
// writer mutex.  Frames are fsync'd before Append returns (the FrameLog
// durability contract).
class FleetJournalWriter {
 public:
  // Truncates (or creates) `path` and writes the meta frame.
  [[nodiscard]] static std::unique_ptr<FleetJournalWriter> Create(
      const std::string& path, const FleetJournalMeta& meta);
  // Opens for append after a valid prefix of `valid_prefix_bytes` (from
  // LoadFleetJournal), truncating any torn tail.
  [[nodiscard]] static std::unique_ptr<FleetJournalWriter> Resume(
      const std::string& path, std::size_t valid_prefix_bytes);

  void Append(const ShardResult& shard);

 private:
  explicit FleetJournalWriter(harness::FrameLogWriter log)
      : log_(std::move(log)) {}

  std::mutex mu_;
  harness::FrameLogWriter log_;
};

}  // namespace mlpm::fleet

// Field tables defined in fleet/journal.cpp.  The shard record nests the
// LoadGen result through the TestResult table of harness/journal.h.
namespace mlpm::harness::schema {
template <> Table<fleet::FleetJournalMeta> FieldsOf<fleet::FleetJournalMeta>();
template <> Table<fleet::ShardResult> FieldsOf<fleet::ShardResult>();
}  // namespace mlpm::harness::schema
