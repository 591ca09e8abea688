// Journal validate/inspect tool (DESIGN.md §12, §16).  Reads a crash-safe
// journal — submission or fleet, auto-detected from the meta frame (a fleet
// meta has a shard count, a submission meta has a chipset; neither decodes
// as the other) — verifies the header, meta frame and every record
// checksum, and prints what a --resume run would replay: which suite tasks
// or fleet shards are already on disk, which would re-run, and whether a
// torn tail will be truncated.
//
// Usage:
//   mlpm_journal [--verbose] FILE
//
// Exit codes:
//   0  journal is clean (valid meta, no torn tail)
//   1  journal is damaged but resumable (torn tail / bad records were cut)
//   2  journal is unreadable (missing file, bad header or meta frame)
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "fleet/journal.h"
#include "harness/journal.h"
#include "models/zoo.h"

namespace {

using namespace mlpm;

using FleetLoad =
    harness::JournalLoad<fleet::FleetJournalMeta, fleet::ShardResult>;

int Usage() {
  std::fprintf(stderr, "usage: mlpm_journal [--verbose] FILE\n");
  return 2;
}

// The meta frame stores the suite version as text; map it back to the enum
// so the tool can list which suite tasks are still missing from the file.
std::vector<models::BenchmarkEntry> SuiteForVersionName(
    const std::string& name) {
  for (models::SuiteVersion v :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0})
    if (name == ToString(v)) return models::SuiteFor(v);
  return {};
}

// Notes on what the load cut, then the torn tail a resume would truncate.
void PrintDamage(const harness::JournalScan& scan) {
  for (const std::string& n : scan.notes)
    std::printf("  note: %s\n", n.c_str());
  if (scan.torn_tail)
    std::printf("  torn tail: %zu byte(s) after offset %zu would be "
                "truncated on resume\n",
                scan.torn_bytes, scan.valid_prefix_bytes);
}

// Fleet-journal path (DESIGN.md §16): shard frames keyed by id (a later
// frame wins), resume replays intact shards and re-runs the rest.
int InspectFleetJournal(const std::string& path, const FleetLoad& load,
                        bool verbose) {
  const fleet::FleetJournalMeta& meta = *load.meta;
  std::map<std::size_t, const fleet::ShardResult*> shards;
  for (const fleet::ShardResult& shard : load.records)
    shards[shard.shard_id] = &shard;
  std::printf("fleet journal: %s\n", path.c_str());
  std::printf("  version:     %s\n", meta.version.c_str());
  std::printf("  seed:        %llu\n",
              static_cast<unsigned long long>(meta.seed));
  std::printf("  shards:      %llu\n",
              static_cast<unsigned long long>(meta.shard_count));
  std::printf("  config hash: %016llx\n",
              static_cast<unsigned long long>(meta.config_hash));
  std::printf("  records:     %zu intact shard(s)\n", shards.size());

  for (const auto& [id, record] : shards) {
    const fleet::ShardResult& shard = *record;
    const std::string status{ToString(shard.state)};
    std::printf("  shard %-4zu %-15s slo=%s %s\n", id, status.c_str(),
                shard.slo_met ? "yes" : "no", shard.config_key.c_str());
    if (verbose) {
      std::printf("      issued=%zu shed=%zu trips=%zu faults=%zu\n",
                  shard.result.issued_count, shard.result.shed_count,
                  shard.breaker_trips, shard.fault_count);
    }
  }

  PrintDamage(load);

  std::string pending;
  std::size_t missing = 0;
  for (std::size_t id = 0; id < meta.shard_count; ++id) {
    if (shards.count(id) != 0) continue;
    ++missing;
    if (missing <= 8) {
      if (!pending.empty()) pending += ", ";
      pending += std::to_string(id);
    }
  }
  if (missing > 8) pending += ", ...";
  std::printf("  resume: %zu of %llu shard(s) replayable%s%s\n",
              shards.size(),
              static_cast<unsigned long long>(meta.shard_count),
              pending.empty() ? "" : "; pending: ", pending.c_str());

  return load.torn_tail ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  const auto load =
      harness::LoadJournal<harness::JournalMeta, harness::TaskRunResult>(
          path, harness::kTaskRecordKind);
  if (!load.meta) {
    // Same file format, different meta: maybe it's a fleet journal.
    const FleetLoad fload =
        harness::LoadJournal<fleet::FleetJournalMeta, fleet::ShardResult>(
            path, fleet::kShardRecordKind);
    if (fload.meta) return InspectFleetJournal(path, fload, verbose);
    std::fprintf(stderr, "%s: not a readable journal\n", path.c_str());
    for (const std::string& n : load.notes)
      std::fprintf(stderr, "  %s\n", n.c_str());
    return 2;
  }

  const harness::JournalMeta& meta = *load.meta;
  std::printf("journal: %s\n", path.c_str());
  std::printf("  chipset:     %s\n", meta.chipset.c_str());
  std::printf("  version:     %s\n", meta.version.c_str());
  std::printf("  seed:        %llu\n",
              static_cast<unsigned long long>(meta.seed));
  std::printf("  config hash: %016llx\n",
              static_cast<unsigned long long>(meta.config_hash));
  std::printf("  records:     %zu intact\n", load.records.size());

  for (const harness::TaskRunResult& t : load.records) {
    const std::string status{ToString(t.status)};
    std::printf("  rec %-24s status=%s accuracy=%.4f quality=%s\n",
                t.entry.id.c_str(), status.c_str(), t.accuracy,
                t.quality_passed ? "pass" : "FAIL");
    if (verbose) {
      std::printf("      faults=%zu shed=%zu rejected=%zu trips=%zu "
                  "attempts=%d\n",
                  t.fault_count, t.shed_count, t.rejected_count,
                  t.breaker_trips, t.performance_attempts);
    }
  }

  PrintDamage(load);

  // What a --resume run would actually do: errored records re-run, intact
  // non-errored ones replay, anything absent from the file runs fresh.
  const std::vector<models::BenchmarkEntry> suite =
      SuiteForVersionName(meta.version);
  if (!suite.empty()) {
    std::size_t replayable = 0;
    std::string pending;
    for (const models::BenchmarkEntry& entry : suite) {
      bool done = false;
      for (const harness::TaskRunResult& t : load.records)
        done |= t.entry.id == entry.id &&
                t.status != harness::TaskStatus::kErrored;
      if (done) {
        ++replayable;
      } else {
        if (!pending.empty()) pending += ", ";
        pending += entry.id;
      }
    }
    std::printf("  resume: %zu of %zu suite task(s) replayable%s%s\n",
                replayable, suite.size(),
                pending.empty() ? "" : "; pending: ", pending.c_str());
  }

  return load.torn_tail ? 1 : 0;
}
