// Fleet serving mode (DESIGN.md §16): one prepared-model build per config,
// seeded determinism of the aggregated report, query-accounting
// conformance under overload, equivalence with the legacy single-stream
// path, and crash-safe journal resume.  Also pins loadgen::FindMaxServerQps
// bisection behavior (monotone convergence, errored probes, the shed
// bound).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backends/vendor_policy.h"
#include "common/check.h"
#include "common/statistics.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "datasets/stub_dataset.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/mix.h"
#include "fleet/report.h"
#include "harness/run_session.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "soc/chipset.h"
#include "oracle.h"

namespace mlpm {
namespace {

// A scratch file named after the running test, so test cases that run at
// the same time never share one.
std::string TmpPath(const std::string& name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string p = testing::TempDir();
  if (!p.empty() && p.back() != '/') p += '/';
  return p + info->test_suite_name() + "_" + info->name() + "_" + name;
}

// ---------------------------------------------------------------------------
// Fleet determinism + sharing (property)

fleet::FleetOptions SmallFleet(std::size_t shards) {
  fleet::FleetOptions fo;
  fo.shard_count = shards;
  fo.settings.server_query_count = 256;
  fo.settings.server_max_queue_depth = 64;
  fo.settings.server_max_shed_fraction = 1.0;
  return fo;
}

// Every shard's reported p99 is the bits of Percentile over its own
// latencies (0 without any), whether it ran or was replayed.
void ExpectShardP99sAreTheirLatencies(const fleet::FleetReport& r) {
  ASSERT_FALSE(r.shards.empty());
  for (const fleet::ShardResult& s : r.shards) {
    const std::vector<double>& latencies = s.result.latencies_s;
    const double want =
        latencies.empty() ? 0.0 : Percentile(latencies, 99.0);
    EXPECT_EQ(std::memcmp(&s.p99_latency_s, &want, sizeof want), 0)
        << "shard " << s.shard_id << ": " << s.p99_latency_s << " vs "
        << want;
    EXPECT_GT(s.p99_latency_s, 0.0) << "shard " << s.shard_id;
  }
}

TEST(Fleet, SameSeedSixtyFourShardsIsByteIdentical) {
  const fleet::FleetOptions fo = SmallFleet(64);
  const fleet::FleetReport a = fleet::RunFleet(fo);
  const fleet::FleetReport b = fleet::RunFleet(fo);
  EXPECT_EQ(fleet::FormatFleetReport(a), fleet::FormatFleetReport(b));
  EXPECT_EQ(a.shards.size(), 64u);
  EXPECT_FALSE(a.interrupted);
  ExpectShardP99sAreTheirLatencies(a);
}

TEST(Fleet, ReportInvariantUnderWorkerCount) {
  fleet::FleetOptions fo = SmallFleet(16);
  fo.workers = 1;
  const std::string serial = fleet::FormatFleetReport(fleet::RunFleet(fo));
  fo.workers = 4;
  const std::string parallel = fleet::FormatFleetReport(fleet::RunFleet(fo));
  EXPECT_EQ(serial, parallel);
}

TEST(Fleet, DifferentSeedsDiverge) {
  fleet::FleetOptions fo = SmallFleet(8);
  const std::string a = fleet::FormatFleetReport(fleet::RunFleet(fo));
  fo.settings.seed = fo.settings.seed + 1;
  const std::string b = fleet::FormatFleetReport(fleet::RunFleet(fo));
  EXPECT_NE(a, b);
}

TEST(Fleet, SharesPreparedModelsAcrossShardsOfOneConfig) {
  const fleet::FleetReport r = fleet::RunFleet(SmallFleet(64));
  // Default v1.0 mix: full catalog x suite tasks, far fewer configs than
  // shards — and exactly one build per distinct config.
  EXPECT_GT(r.shard_count, r.distinct_configs);
  EXPECT_EQ(r.prepared_models_built, r.distinct_configs);
}

TEST(Fleet, MixNamingOneConfigTwiceBuildsOneModel) {
  fleet::FleetOptions fo = SmallFleet(8);
  fo.mix = fleet::ParseFleetMix("Dimensity 1100:ic;Dimensity 1100:ic");
  fo.workers = 4;
  const fleet::FleetReport r = fleet::RunFleet(fo);
  EXPECT_EQ(r.shards.size(), 8u);
  EXPECT_EQ(r.distinct_configs, 1u);
  EXPECT_EQ(r.prepared_models_built, 1u);
}

// ---------------------------------------------------------------------------
// Query-accounting conformance under 2x overload (conformance)

TEST(Fleet, OverloadAccountingIdentityHolds) {
  fleet::FleetOptions fo;
  fo.shard_count = 4;
  fo.mix = fleet::ParseFleetMix("Dimensity 1100:ic");
  fo.settings.server_query_count = 512;
  // Far past any mobile SoC's single-stream service rate: admission
  // control must shed, and the identity has to hold anyway.
  fo.settings.server_target_qps = 2000.0;
  fo.settings.server_max_queue_depth = 8;
  fo.settings.server_max_shed_fraction = 1.0;
  fo.settings.query_timeout = loadgen::Seconds{0.200};

  const fleet::FleetReport r = fleet::RunFleet(fo);
  ASSERT_EQ(r.shards.size(), 4u);
  std::size_t total_shed = 0;
  for (const fleet::ShardResult& s : r.shards) {
    const loadgen::TestResult& t = s.result;
    // Every offered query is either issued or shed...
    EXPECT_EQ(t.issued_count + t.shed_count,
              fo.settings.server_query_count)
        << "shard " << s.shard_id;
    // ...and every issued query resolves exactly once.
    EXPECT_EQ(t.issued_count, t.sample_count + t.timed_out_count +
                                  t.dropped_count + t.rejected_count)
        << "shard " << s.shard_id;
    total_shed += t.shed_count;
  }
  EXPECT_GT(total_shed, 0u) << "2x overload should trip admission control";
  EXPECT_EQ(r.offered, r.issued + r.shed);
  EXPECT_EQ(r.issued,
            r.completed + r.timed_out + r.dropped + r.rejected);
}

// Counters are sums, so an overloaded fleet that sheds, crashes drivers and
// trips breakers leaves the same counter snapshot at 1 and at 4 workers.
// The pinned values are what one registry update per event gives.
TEST(Fleet, CounterSnapshotInvariantUnderWorkerCount) {
  fleet::FleetOptions fo;
  fo.shard_count = 8;
  fo.mix = fleet::ParseFleetMix("Dimensity 1100:ic;Exynos 2100:od");
  fo.settings.server_query_count = 512;
  fo.settings.server_target_qps = 2000.0;
  fo.settings.server_max_queue_depth = 8;
  fo.settings.server_max_shed_fraction = 1.0;
  fo.settings.query_timeout = loadgen::Seconds{0.200};
  fo.fault_plan =
      soc::FaultPlan{}.DriverCrashes(0.2).ThermalEmergencies(0.02);
  fo.circuit_breaker = backends::CircuitBreakerOptions{};
  const auto counters = [&](std::size_t workers) {
    obs::MetricsRegistry::Global().Reset();
    fo.workers = workers;
    static_cast<void>(fleet::RunFleet(fo));
    return obs::MetricsRegistry::Global().Snap().counters;
  };
  const std::vector<std::pair<std::string, std::uint64_t>> serial =
      counters(1);
  EXPECT_EQ(serial, counters(4));
  const std::vector<std::pair<std::string, std::uint64_t>> per_event = {
      {"backend.breaker_transitions", 2},
      {"loadgen.queries_completed", 431},
      {"loadgen.queries_errored", 3665},
      {"loadgen.queries_issued", 977},
      {"loadgen.queries_rejected", 443},
      {"loadgen.queries_shed", 3119},
      {"loadgen.tests", 8},
      {"soc.faults_injected", 111},
      {"soc.inferences", 534},
      {"soc.thermal_emergencies", 8},
      {"soc.throttled_inferences", 196},
  };
  EXPECT_EQ(serial, per_event);
  obs::MetricsRegistry::Global().Reset();
}

// The coordinator moves each shard's result into the report and selects the
// fleet percentiles in place: the aggregate must be the bits a sort of the
// reported shards' latencies gives, and no reported shard may be a
// moved-from husk (latencies and log fields present).  Shards run the
// LoadGen without the per-query record, so none carries log events or
// error lines; loadgen_test holds the record itself to one line per anomaly.
TEST(Fleet, AggregatePercentilesMatchSortedMergedLatencies) {
  fleet::FleetOptions fo = SmallFleet(16);
  fo.settings.server_max_queue_depth = 8;  // heavy shards shed
  std::vector<std::size_t> serial_anomalies;
  for (const std::size_t workers : {1u, 4u}) {
    fo.workers = workers;
    const fleet::FleetReport r = fleet::RunFleet(fo);
    ASSERT_EQ(r.shards.size(), 16u);
    std::vector<double> merged;
    std::size_t anomalies = 0;
    for (std::size_t i = 0; i < r.shards.size(); ++i) {
      const loadgen::TestResult& t = r.shards[i].result;
      EXPECT_EQ(t.latencies_s.size(), t.sample_count) << "shard " << i;
      EXPECT_FALSE(t.log.fields().empty()) << "shard " << i;
      EXPECT_TRUE(t.log.events().empty()) << "shard " << i;
      EXPECT_TRUE(t.error_log.empty()) << "shard " << i;
      if (workers == 1)
        serial_anomalies.push_back(t.AnomalyCount());
      else
        EXPECT_EQ(t.AnomalyCount(), serial_anomalies[i]) << "shard " << i;
      anomalies += t.AnomalyCount();
      merged.insert(merged.end(), t.latencies_s.begin(), t.latencies_s.end());
    }
    EXPECT_GT(anomalies, 0u) << "overload should shed queries";
    ASSERT_EQ(merged.size(), r.completed);
    std::sort(merged.begin(), merged.end());
    const auto same_bits = [](double a, double b) {
      return std::memcmp(&a, &b, sizeof a) == 0;
    };
    EXPECT_TRUE(same_bits(r.p50_ms, PercentileOfSorted(merged, 50.0) * 1e3))
        << "workers " << workers;
    EXPECT_TRUE(same_bits(r.p90_ms, PercentileOfSorted(merged, 90.0) * 1e3))
        << "workers " << workers;
    EXPECT_TRUE(same_bits(r.p99_ms, PercentileOfSorted(merged, 99.0) * 1e3))
        << "workers " << workers;
  }
}

// ---------------------------------------------------------------------------
// Fleet path vs legacy single-stream path (property)

TEST(Fleet, SingleShardMatchesLegacySingleStreamPath) {
  const models::SuiteVersion version = models::SuiteVersion::kV1_0;
  const std::string chipset_name = "Dimensity 1100";

  fleet::FleetOptions fo;
  fo.shard_count = 1;
  fo.version = version;
  fo.mix = fleet::ParseFleetMix(chipset_name + ":ic");
  fo.settings.scenario = loadgen::TestScenario::kSingleStream;
  fo.settings.min_query_count = 256;
  fo.settings.min_duration = loadgen::Seconds{1.0};
  fo.split_seed_per_shard = false;  // oracle uses the same seed verbatim
  const fleet::FleetReport r = fleet::RunFleet(fo);
  ASSERT_EQ(r.shards.size(), 1u);
  const loadgen::TestResult& via_fleet = r.shards[0].result;

  // Legacy path: same chipset, task, graph, settings and seed on a fresh
  // simulator — per-query latencies must agree exactly.
  soc::ChipsetDesc chipset;
  for (const soc::ChipsetDesc& c : soc::CatalogV10())
    if (c.name == chipset_name) chipset = c;
  ASSERT_EQ(chipset.name, chipset_name);
  models::BenchmarkEntry entry;
  for (const models::BenchmarkEntry& e : models::SuiteFor(version))
    if (e.task == models::TaskType::kImageClassification) entry = e;
  const backends::SubmissionConfig config =
      backends::GetSubmission(chipset, entry.task, version);
  const graph::Graph full =
      models::BuildReferenceGraph(entry, version, models::ModelScale::kFull);
  const datasets::StubDataset stub;
  const loadgen::TestResult oracle = testutil::RunSingleStreamPerformance(
      chipset, config, full, stub, fo.settings);

  ASSERT_EQ(via_fleet.latencies_s.size(), oracle.latencies_s.size());
  for (std::size_t i = 0; i < oracle.latencies_s.size(); ++i)
    EXPECT_DOUBLE_EQ(via_fleet.latencies_s[i], oracle.latencies_s[i])
        << "query " << i;
  EXPECT_DOUBLE_EQ(via_fleet.throughput_sps, oracle.throughput_sps);
  EXPECT_DOUBLE_EQ(via_fleet.percentile_latency_s,
                   oracle.percentile_latency_s);
  EXPECT_EQ(via_fleet.sample_count, oracle.sample_count);
}

TEST(Fleet, AccuracyPlaneMatchesTaskBundleScores) {
  const models::SuiteVersion version = models::SuiteVersion::kV1_0;
  fleet::FleetOptions fo;
  fo.shard_count = 2;  // two shards, one config: scored once, stamped twice
  fo.mix = fleet::ParseFleetMix("Dimensity 1100:ic");
  fo.settings.server_query_count = 128;
  fo.accuracy = true;
  const fleet::FleetReport r = fleet::RunFleet(fo);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_GT(r.shards[0].accuracy, 0.0);
  EXPECT_EQ(r.shards[0].accuracy, r.shards[1].accuracy);
  EXPECT_EQ(r.shards[0].ratio_to_fp32, r.shards[1].ratio_to_fp32);

  // Oracle: the same scores the harness accuracy plane computes.
  models::BenchmarkEntry entry;
  for (const models::BenchmarkEntry& e : models::SuiteFor(version))
    if (e.task == models::TaskType::kImageClassification) entry = e;
  harness::SuiteBundles bundles;
  const harness::TaskBundle& bundle = bundles.Get(entry, version);
  const harness::TaskBundle::PreparedModel prepared =
      bundle.Prepare(infer::NumericsMode::kInt8, false);
  ASSERT_NE(prepared.executor, nullptr);
  const double accuracy = bundle.ScoreAccuracy(*prepared.executor, nullptr);
  const double fp32 = bundle.Fp32Score(nullptr);
  EXPECT_DOUBLE_EQ(r.shards[0].accuracy, accuracy);
  EXPECT_DOUBLE_EQ(r.shards[0].fp32_reference, fp32);
  EXPECT_EQ(r.shards[0].quality_passed,
            fp32 > 0 && accuracy / fp32 >= entry.quality_target);
}

// ---------------------------------------------------------------------------
// Journal kill-and-resume (property)

using FleetLoad =
    harness::JournalLoad<fleet::FleetJournalMeta, fleet::ShardResult>;

FleetLoad LoadShards(const std::string& path) {
  return harness::LoadJournal<fleet::FleetJournalMeta, fleet::ShardResult>(
      path, fleet::kShardRecordKind);
}

// A load's shard records keyed by shard id, a later frame winning, as a
// resume keys them.
std::map<std::size_t, fleet::ShardResult> ById(const FleetLoad& load) {
  std::map<std::size_t, fleet::ShardResult> shards;
  for (const fleet::ShardResult& shard : load.records)
    shards.insert_or_assign(shard.shard_id, shard);
  return shards;
}

std::unique_ptr<harness::JournalWriter<fleet::ShardResult>> CreateJournal(
    const std::string& path, const fleet::FleetJournalMeta& meta) {
  return harness::OpenJournal<fleet::ShardResult>(
             path, meta, fleet::kShardRecordKind, /*resume=*/false)
      .writer;
}

TEST(Fleet, KillAndResumeReplaysIntactShardsToIdenticalReport) {
  const std::string path = TmpPath("fleet_resume.journal");

  fleet::FleetOptions fo = SmallFleet(8);
  fo.workers = 1;  // deterministic interruption point

  // Uninterrupted reference run, no journal.
  const std::string reference =
      fleet::FormatFleetReport(fleet::RunFleet(fo));

  // Killed run: cancel after three shards started.
  fleet::FleetOptions killed = fo;
  killed.journal_path = path;
  std::atomic<int> starts{0};
  killed.cancel = [&] { return starts.fetch_add(1) >= 3; };
  const fleet::FleetReport partial = fleet::RunFleet(killed);
  EXPECT_TRUE(partial.interrupted);
  ASSERT_GT(partial.shards.size(), 0u);
  ASSERT_LT(partial.shards.size(), 8u);

  // The journal holds exactly the finished shards, intact.
  const FleetLoad load = LoadShards(path);
  ASSERT_TRUE(load.meta.has_value());
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(ById(load).size(), partial.shards.size());

  // Resumed run: replays the journal, runs the rest, matches byte-for-byte.
  fleet::FleetOptions resumed = fo;
  resumed.journal_path = path;
  resumed.resume = true;
  const fleet::FleetReport full = fleet::RunFleet(resumed);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(full.resumed_shards, partial.shards.size());
  EXPECT_EQ(fleet::FormatFleetReport(full), reference);
  ExpectShardP99sAreTheirLatencies(partial);
  ExpectShardP99sAreTheirLatencies(full);
}

TEST(Fleet, ResumeThatReplaysEveryShardBuildsNoModel) {
  // Models build lazily, for shards that start: a resume with nothing
  // left to run builds none and still prints the first run's report.
  fleet::FleetOptions fo = SmallFleet(8);
  fo.workers = 4;
  fo.journal_path = TmpPath("fleet_full.journal");
  const fleet::FleetReport first = fleet::RunFleet(fo);
  EXPECT_EQ(first.prepared_models_built, first.distinct_configs);

  fo.resume = true;
  const fleet::FleetReport replayed = fleet::RunFleet(fo);
  EXPECT_EQ(replayed.resumed_shards, 8u);
  EXPECT_EQ(replayed.prepared_models_built, 0u);
  EXPECT_EQ(fleet::FormatFleetReport(replayed),
            fleet::FormatFleetReport(first));
}

TEST(Fleet, ResumesJournalWhoseShardFramesCarryTheQueryRecord) {
  // Shard frames written before shards dropped the per-query record carry
  // log events and one error line per anomaly.  Such a journal still
  // decodes and resumes to the report of an uninterrupted run; frames
  // written now carry neither.
  const std::string fresh = TmpPath("fleet_fresh.journal");
  const std::string old = TmpPath("fleet_old.journal");
  fleet::FleetOptions fo = SmallFleet(8);
  fo.settings.server_max_queue_depth = 8;  // heavy shards shed
  fo.workers = 1;
  fo.journal_path = fresh;
  const std::string reference =
      fleet::FormatFleetReport(fleet::RunFleet(fo));

  const FleetLoad load = LoadShards(fresh);
  ASSERT_TRUE(load.meta.has_value());
  const std::map<std::size_t, fleet::ShardResult> shards = ById(load);
  ASSERT_EQ(shards.size(), 8u);
  std::size_t anomalies = 0;
  for (const auto& [id, shard] : shards) {
    EXPECT_TRUE(shard.result.log.events().empty()) << "shard " << id;
    EXPECT_TRUE(shard.result.error_log.empty()) << "shard " << id;
    anomalies += shard.result.AnomalyCount();
  }
  EXPECT_GT(anomalies, 0u) << "overload should shed queries";

  // The first five shards as an older build journaled them: an issue and
  // a completion per completed query, a shed event per shed one, and an
  // error line per anomaly.
  {
    const auto writer = CreateJournal(old, *load.meta);
    for (const auto& [id, shard] : shards) {
      if (id >= 5) break;
      fleet::ShardResult with_record = shard;
      loadgen::TestResult& t = with_record.result;
      std::uint64_t query = 0;
      for (const double latency : t.latencies_s) {
        t.log.Record(loadgen::LogEventKind::kQueryIssued, ++query,
                     loadgen::Seconds{0.0});
        t.log.Record(loadgen::LogEventKind::kQueryCompleted, query,
                     loadgen::Seconds{latency});
      }
      for (std::size_t k = 0; k < t.shed_count; ++k)
        t.log.Record(loadgen::LogEventKind::kQueryShed, ++query,
                     loadgen::Seconds{0.0});
      for (std::size_t k = 0; k < t.AnomalyCount(); ++k)
        t.error_log.push_back("query " + std::to_string(k + 1) +
                              " shed by admission control (issue queue "
                              "full)");
      writer->Append(with_record);
    }
  }
  const FleetLoad old_load = LoadShards(old);
  ASSERT_EQ(ById(old_load).size(), 5u);
  EXPECT_FALSE(old_load.torn_tail);
  for (const auto& [id, shard] : ById(old_load)) {
    EXPECT_FALSE(shard.result.log.events().empty()) << "shard " << id;
    EXPECT_EQ(shard.result.error_log.size(), shard.result.AnomalyCount())
        << "shard " << id;
  }

  fleet::FleetOptions resumed = fo;
  resumed.journal_path = old;
  resumed.resume = true;
  const fleet::FleetReport full = fleet::RunFleet(resumed);
  EXPECT_EQ(full.resumed_shards, 5u);
  EXPECT_EQ(fleet::FormatFleetReport(full), reference);
  ExpectShardP99sAreTheirLatencies(full);
  // The three shards run on resume are journaled without the record.
  const std::map<std::size_t, fleet::ShardResult> after =
      ById(LoadShards(old));
  ASSERT_EQ(after.size(), 8u);
  for (const auto& [id, shard] : after) {
    if (id < 5) continue;
    EXPECT_TRUE(shard.result.log.events().empty()) << "shard " << id;
    EXPECT_TRUE(shard.result.error_log.empty()) << "shard " << id;
  }
}

TEST(Fleet, ResumeIgnoresJournalOfDifferentConfiguration) {
  const std::string path = TmpPath("fleet_mismatch.journal");
  fleet::FleetOptions fo = SmallFleet(4);
  fo.journal_path = path;
  const fleet::FleetReport first = fleet::RunFleet(fo);
  EXPECT_EQ(first.resumed_shards, 0u);

  // Different seed → different config identity → full re-run.
  fleet::FleetOptions other = fo;
  other.settings.seed = fo.settings.seed + 7;
  other.resume = true;
  const fleet::FleetReport second = fleet::RunFleet(other);
  EXPECT_EQ(second.resumed_shards, 0u);
  EXPECT_EQ(second.shards.size(), 4u);
}

TEST(Fleet, LoadCutsTheJournalAtAShardWithAnOutOfRangeEnum) {
  const std::string path = TmpPath("fleet_bad_enum.journal");
  fleet::FleetJournalMeta meta;
  meta.version = "v1.0";
  meta.shard_count = 2;
  fleet::ShardResult good;
  good.numerics = DataType::kInt8;
  fleet::ShardResult bad = good;
  bad.shard_id = 1;
  CreateJournal(path, meta)->Append(good);
  const std::size_t good_end = LoadShards(path).valid_prefix_bytes;

  // A checksum-clean frame whose numerics value names no DataType.
  std::string payload = harness::schema::Encode(bad);
  const std::string int8 = "u numerics 2\n";
  ASSERT_NE(payload.find(int8), std::string::npos);
  payload.replace(payload.find(int8), int8.size(), "u numerics 9\n");
  EXPECT_THROW((void)harness::schema::Decode<fleet::ShardResult>(payload),
               CheckError);
  harness::FrameLogWriter::OpenAt(path, good_end).AppendFrame("shard", payload);

  const FleetLoad load = LoadShards(path);
  EXPECT_TRUE(load.meta.has_value());
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0].shard_id, 0u);
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(load.valid_prefix_bytes, good_end);
  ASSERT_EQ(load.notes.size(), 1u);
  EXPECT_NE(load.notes[0].find("numerics 9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FindMaxServerQps bisection behavior (unit)

loadgen::TestResult ProbeResult(bool latency_ok, bool shed_ok,
                                bool errored = false) {
  loadgen::TestResult r;
  r.scenario = loadgen::TestScenario::kServer;
  r.sample_count = 1;
  r.latency_bound_met = latency_ok;
  r.shed_bound_met = shed_ok;
  if (errored) r.invalid_reason = "synthetic probe failure";
  return r;
}

TEST(FindMaxServerQps, ConvergesOnMonotonePredicate) {
  const double capacity = 37.5;
  int probes = 0;
  const double qps = loadgen::FindMaxServerQps(
      [&](double q) {
        ++probes;
        return ProbeResult(q <= capacity, true);
      },
      1.0, 100.0, 20);
  EXPECT_LE(qps, capacity);
  EXPECT_NEAR(qps, capacity, (100.0 - 1.0) / (1 << 20) * 4);
  EXPECT_EQ(probes, 22);  // lo + hi + 20 bisection probes
}

TEST(FindMaxServerQps, ReturnsHiWhenHiPasses) {
  const double qps = loadgen::FindMaxServerQps(
      [](double) { return ProbeResult(true, true); }, 1.0, 64.0);
  EXPECT_DOUBLE_EQ(qps, 64.0);
}

TEST(FindMaxServerQps, ErroredLoProbeStopsSearchImmediately) {
  int probes = 0;
  const double qps = loadgen::FindMaxServerQps(
      [&](double) {
        ++probes;
        return ProbeResult(true, true, /*errored=*/true);
      },
      1.0, 100.0);
  EXPECT_DOUBLE_EQ(qps, 0.0);
  EXPECT_EQ(probes, 1);
}

TEST(FindMaxServerQps, AlwaysFailingPredicateReturnsZero) {
  const double qps = loadgen::FindMaxServerQps(
      [](double) { return ProbeResult(false, true); }, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(qps, 0.0);
}

TEST(FindMaxServerQps, ErroredMidProbeCountsAsFailure) {
  // Valid at low rates, structurally broken above 30: the search must
  // treat errored probes as failures and stay below the error cliff.
  const double qps = loadgen::FindMaxServerQps(
      [](double q) { return ProbeResult(true, true, /*errored=*/q > 30.0); },
      1.0, 100.0, 20);
  EXPECT_LE(qps, 30.0);
  EXPECT_NEAR(qps, 30.0, 0.01);
}

TEST(FindMaxServerQps, ShedBoundViolationIsNotServingTheRate) {
  // The SUT "meets latency" at any rate by refusing most of the load past
  // 20 qps; the search must not count those probes as passes.
  const double qps = loadgen::FindMaxServerQps(
      [](double q) { return ProbeResult(true, /*shed_ok=*/q <= 20.0); },
      1.0, 100.0, 20);
  EXPECT_LE(qps, 20.0);
  EXPECT_NEAR(qps, 20.0, 0.01);
}

// ---------------------------------------------------------------------------
// Mix parsing (unit)

TEST(FleetMix, ParsesSpecWithAliasesAndWeights) {
  const std::vector<fleet::FleetMixEntry> mix =
      fleet::ParseFleetMix("Dimensity 1100:ic:2;Exynos 2100:qa");
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].chipset, "Dimensity 1100");
  EXPECT_EQ(mix[0].task_id, "image_classification");
  EXPECT_DOUBLE_EQ(mix[0].weight, 2.0);
  EXPECT_EQ(mix[1].task_id, "question_answering");
  EXPECT_DOUBLE_EQ(mix[1].weight, 1.0);
}

TEST(FleetMix, ShardCountsFollowWeightsExactly) {
  std::vector<fleet::FleetMixEntry> mix =
      fleet::ParseFleetMix("A:ic:3;B:ic:1");
  const std::vector<std::size_t> counts =
      fleet::AssignShardCounts(mix, 8);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 6u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[0] + counts[1], 8u);
}

TEST(FleetMix, UnknownChipsetThrows) {
  fleet::FleetOptions fo;
  fo.shard_count = 1;
  fo.mix = fleet::ParseFleetMix("No Such SoC:ic");
  EXPECT_THROW({ auto r = fleet::RunFleet(fo); }, CheckError);
}

}  // namespace
}  // namespace mlpm
