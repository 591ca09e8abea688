// Declarative record schemas (harness/record_schema.h): the journal codecs,
// CSV export and config hashes generated from the field tables.
//   * golden bytes: the encoders and the CSV writer reproduce the committed
//     outputs of the hand-written codecs they replaced;
//   * per-table property: every listed field is both written and read, and
//     keys the table does not list are skipped;
//   * hostile payloads: bad counts, lengths, enums and tags are CheckErrors;
//   * config hashes: every shared settings field feeds both hashes, the
//     observability knobs feed neither, and the default values are pinned.
#include <gtest/gtest.h>

#include <climits>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "fleet/journal.h"
#include "fleet/mix.h"
#include "harness/export.h"
#include "harness/journal.h"
#include "record_fixtures.h"
#include "soc/chipset.h"

namespace mlpm {
namespace {

using harness::JournalMeta;
using harness::TaskRunResult;
using harness::schema::Decode;
using harness::schema::Encode;
using harness::schema::FieldDesc;
using harness::schema::FieldsOf;

std::string Golden(const std::string& name) {
  std::ifstream in(std::string(MLPM_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing golden " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

fleet::FleetJournalMeta GoldenFleetMeta() {
  fleet::FleetJournalMeta m;
  m.version = "v1.0";
  m.seed = 0x4D4C50657266ULL;
  m.shard_count = 64;
  m.config_hash = 0xfeedfacecafebeefULL;
  return m;
}

// ---- golden bytes ----------------------------------------------------------

TEST(RecordGolden, JournalEncodingsAreByteIdentical) {
  EXPECT_EQ(Encode(testutil::HostileTask("ic_tf")), Golden("task_record.txt"));
  EXPECT_EQ(Encode(testutil::PopulatedTask()),
            Golden("task_record_populated.txt"));
  EXPECT_EQ(Encode(*testutil::HostileTask("ic_tf").single_stream),
            Golden("test_result.txt"));
  EXPECT_EQ(Encode(testutil::TestMeta()), Golden("meta.txt"));
  EXPECT_EQ(Encode(GoldenFleetMeta()), Golden("fleet_meta.txt"));
  EXPECT_EQ(Encode(testutil::PopulatedShard()), Golden("shard_record.txt"));
}

TEST(RecordGolden, CsvExportsAreByteIdentical) {
  EXPECT_EQ(harness::ToCsv(testutil::HostileResult()), Golden("hostile.csv"));
  EXPECT_EQ(harness::ToCsv(testutil::SparseResult()), Golden("sparse.csv"));
}

TEST(RecordGolden, GoldenRecordsDecodeToTheirFixtures) {
  EXPECT_EQ(Encode(Decode<TaskRunResult>(Golden("task_record_populated.txt"))),
            Golden("task_record_populated.txt"));
  EXPECT_EQ(Encode(Decode<fleet::ShardResult>(Golden("shard_record.txt"))),
            Golden("shard_record.txt"));
  EXPECT_TRUE(Decode<JournalMeta>(Golden("meta.txt")) ==
              testutil::TestMeta());
  EXPECT_TRUE(Decode<fleet::FleetJournalMeta>(Golden("fleet_meta.txt")) ==
              GoldenFleetMeta());

  // HostileTask's record as written by a build that still journaled the
  // removed graph-transform stage's seven transform_* keys, before the
  // fixture's multi-line strings moved onto status_detail and lint_log.
  // Journals from that build must still resume: the keys are skipped.
  TaskRunResult then = testutil::HostileTask("ic_tf");
  then.status_detail = "retried twice";
  then.lint_log = "warning: something\n";
  EXPECT_EQ(Encode(Decode<TaskRunResult>(
                Golden("task_record_with_transform_keys.txt"))),
            Encode(then));
}

// ---- per-table property ----------------------------------------------------

template <class T>
std::string EncodeField(const FieldDesc<T>& field, const T& record) {
  std::string out;
  field.put(out, field.key, record);
  return out;
}

// Calls fn(field, record) for every field of T's table, where `record` is
// `base` with only that field replaced by its value in `populated`.  The
// replacement goes through the codec itself: decoding base's encoding
// followed by the one entry (a later entry overrides an earlier one).
template <class T, class Fn>
void ForEachSingleFieldChange(const T& base, const T& populated, Fn fn) {
  const std::string base_bytes = Encode(base);
  for (const FieldDesc<T>& field : FieldsOf<T>()) {
    SCOPED_TRACE("field " + std::string(field.key));
    const std::string value = EncodeField(field, populated);
    ASSERT_NE(value, EncodeField(field, base))
        << "the populated fixture leaves this field at the base value";
    fn(field, Decode<T>(base_bytes + value));
  }
}

template <class T>
void ExpectEveryFieldWrittenAndRead(const T& populated) {
  const T base{};
  const std::string base_bytes = Encode(base);
  ForEachSingleFieldChange(base, populated, [&](const FieldDesc<T>& field,
                                                const T& record) {
    // Exactly this field moved, to exactly the populated value.
    for (const FieldDesc<T>& other : FieldsOf<T>()) {
      const T& expected = other.key == field.key ? populated : base;
      EXPECT_EQ(EncodeField(other, record), EncodeField(other, expected))
          << "entry " << other.key;
    }
    const std::string bytes = Encode(record);
    EXPECT_NE(bytes, base_bytes);
    EXPECT_EQ(Encode(Decode<T>(bytes)), bytes);
  });
}

template <class T>
void ExpectUnknownKeysSkipped(const T& populated) {
  const std::string bytes = Encode(populated);
  const std::string noisy = "u zz_future_count 7\n" + bytes +
                            "s zz_future_blob 3\nabc\n"
                            "D zz_future_list 1 0x1p+0\n"
                            "L zz_future_strings 1\n2\nhi\n";
  EXPECT_EQ(Encode(Decode<T>(noisy)), bytes);
}

template <class T>
void ExpectDistinctKeys() {
  const auto fields = FieldsOf<T>();
  for (std::size_t i = 0; i < fields.size(); ++i)
    for (std::size_t j = i + 1; j < fields.size(); ++j)
      EXPECT_NE(fields[i].key, fields[j].key);
}

template <class T>
void ExpectSchemaProperties(const T& populated) {
  ExpectDistinctKeys<T>();
  ExpectEveryFieldWrittenAndRead(populated);
  ExpectUnknownKeysSkipped(populated);
}

loadgen::TestSettings PopulatedSettings() {
  // Every field differs from both the RunOptions and FleetOptions defaults.
  loadgen::TestSettings s;
  s.scenario = loadgen::TestScenario::kMultiStream;
  s.mode = loadgen::TestMode::kAccuracyOnly;
  s.seed = 7;
  s.min_query_count = 9;
  s.min_duration = loadgen::Seconds{1.5};
  s.offline_sample_count = 33;
  s.latency_percentile = 99.0;
  s.server_target_qps = 250.0;
  s.server_latency_bound = loadgen::Seconds{0.02};
  s.server_query_count = 77;
  s.server_max_queue_depth = 5;
  s.server_max_shed_fraction = 0.25;
  s.multistream_samples_per_query = 4;
  s.multistream_interval = loadgen::Seconds{0.1};
  s.multistream_query_count = 64;
  s.performance_sample_count = 12;
  s.query_timeout = loadgen::Seconds{2.0};
  return s;
}

TEST(RecordSchema, TestResultTable) {
  ExpectSchemaProperties(testutil::PopulatedTestResult());
}
TEST(RecordSchema, TaskRunResultTable) {
  ExpectSchemaProperties(testutil::PopulatedTask());
}
TEST(RecordSchema, JournalMetaTable) {
  ExpectSchemaProperties(testutil::TestMeta());
}
TEST(RecordSchema, ShardResultTable) {
  ExpectSchemaProperties(testutil::PopulatedShard());
}
TEST(RecordSchema, FleetJournalMetaTable) {
  ExpectSchemaProperties(GoldenFleetMeta());
}
TEST(RecordSchema, TestSettingsTable) {
  ExpectSchemaProperties(PopulatedSettings());
}

// ---- decode hygiene --------------------------------------------------------

TEST(RecordSchema, EnumsPastTheirLastEnumeratorAreRejected) {
  EXPECT_THROW((void)Decode<TaskRunResult>("s task 2\nic\nu numerics 5\n"),
               CheckError);
  EXPECT_THROW((void)Decode<TaskRunResult>("s task 2\nic\nu status 4\n"),
               CheckError);
  EXPECT_THROW((void)Decode<loadgen::TestResult>("u scenario 4\n"), CheckError);
  EXPECT_THROW((void)Decode<loadgen::TestResult>("u mode 2\n"), CheckError);
  EXPECT_THROW((void)Decode<fleet::ShardResult>("u numerics 9\n"), CheckError);
  EXPECT_THROW((void)Decode<fleet::ShardResult>("u state 4\n"), CheckError);
  EXPECT_EQ(Decode<fleet::ShardResult>("u numerics 4\n").numerics,
            DataType::kInt32);
}

TEST(RecordSchema, NarrowIntegersAreRangeChecked) {
  const std::string task = "s task 2\nic\n";
  EXPECT_EQ(Decode<TaskRunResult>(task + "u performance_attempts " +
                                  std::to_string(INT_MAX) + "\n")
                .performance_attempts,
            INT_MAX);
  EXPECT_THROW((void)Decode<TaskRunResult>(
                   task + "u performance_attempts 2147483648\n"),
               CheckError);
  EXPECT_THROW((void)Decode<TaskRunResult>(
                   task + "u performance_attempts 4294967297\n"),
               CheckError);
  // Signed fields carry the two's-complement image, so -1 round-trips.
  EXPECT_EQ(
      Decode<TaskRunResult>(task + "u tile_rows 18446744073709551615\n")
          .tile_rows,
      -1);
}

TEST(RecordSchema, WrongTagsAndMissingRequiredKeysAreRejected) {
  const std::string task = "s task 2\nic\n";
  EXPECT_THROW((void)Decode<TaskRunResult>(task + "s accuracy 1\nx\n"),
               CheckError);
  EXPECT_THROW((void)Decode<TaskRunResult>(task + "b quality_passed 2\n"),
               CheckError);
  EXPECT_THROW((void)Decode<TaskRunResult>("u fault_count 1\n"),
               CheckError);
  EXPECT_THROW((void)Decode<JournalMeta>("s chipset 1\nx\n"), CheckError);
  // A submission meta is not a fleet meta and vice versa.
  EXPECT_THROW(
      (void)Decode<fleet::FleetJournalMeta>(Encode(testutil::TestMeta())),
      CheckError);
  EXPECT_THROW((void)Decode<JournalMeta>(Encode(GoldenFleetMeta())),
               CheckError);
}

// ---- hostile payloads ------------------------------------------------------

void ExpectParseError(const std::string& payload) {
  harness::wire::PayloadParser parser(payload);
  harness::wire::Field f;
  EXPECT_THROW(
      {
        while (parser.Next(f)) {
        }
      },
      CheckError)
      << payload;
}

TEST(PayloadParser, HugeCountsAndLengthsAreCheckErrors) {
  ExpectParseError("D k 18446744073709551615\n");
  ExpectParseError("U k 18446744073709551615\n");
  ExpectParseError("L k 4000000000\n");
  ExpectParseError("s k 18446744073709551615\n");
  ExpectParseError("s k 18446744073709551614\n");
  ExpectParseError("L k 1\n18446744073709551615\n");
  // The same inputs reach the record decoders as CheckErrors too.
  EXPECT_THROW((void)Decode<TaskRunResult>("L k 4000000000\n"),
               CheckError);
  EXPECT_THROW(
      (void)Decode<loadgen::TestResult>("D latencies_s 18446744073709551615\n"),
      CheckError);
  EXPECT_THROW(
      (void)Decode<fleet::ShardResult>("s chipset 18446744073709551615\n"),
      CheckError);
}

TEST(PayloadParser, CountsUpToTheBytesLeftStillParse) {
  const std::string payload =
      "D k 2 0x1p+0 0x1p+1\nU u 0\nL l 2\n0\n\n1\nx\ns s 0\n\n";
  harness::wire::PayloadParser parser(payload);
  harness::wire::Field f;
  ASSERT_TRUE(parser.Next(f));
  EXPECT_EQ(f.doubles, (std::vector<double>{1.0, 2.0}));
  ASSERT_TRUE(parser.Next(f));
  EXPECT_TRUE(f.uints.empty());
  ASSERT_TRUE(parser.Next(f));
  EXPECT_EQ(f.strings, (std::vector<std::string>{"", "x"}));
  ASSERT_TRUE(parser.Next(f));
  EXPECT_EQ(f.bytes, "");
  EXPECT_FALSE(parser.Next(f));
}

// ---- config hashes ---------------------------------------------------------

constexpr models::SuiteVersion kVersion = models::SuiteVersion::kV1_0;

std::uint64_t RunHash(const harness::RunOptions& o) {
  return harness::HashRunConfig(soc::Exynos2100(), kVersion, o);
}
std::uint64_t FleetHash(const fleet::FleetOptions& o) {
  return fleet::HashFleetConfig(o, fleet::DefaultFleetMix(kVersion));
}

TEST(ConfigHash, DefaultValuesArePinned) {
  EXPECT_EQ(RunHash(harness::RunOptions{}), 0x0a474d58114f5b54ULL);
  EXPECT_EQ(FleetHash(fleet::FleetOptions{}), 0xd31ae3e93d10a7a7ULL);
}

TEST(ConfigHash, EverySharedSettingsFieldChangesBothHashes) {
  const harness::RunOptions run_base;
  const fleet::FleetOptions fleet_base;
  const std::uint64_t run_hash = RunHash(run_base);
  const std::uint64_t fleet_hash = FleetHash(fleet_base);
  const loadgen::TestSettings populated = PopulatedSettings();

  ForEachSingleFieldChange(
      run_base.performance_settings, populated,
      [&](const FieldDesc<loadgen::TestSettings>&,
          const loadgen::TestSettings& s) {
        harness::RunOptions o = run_base;
        o.performance_settings = s;
        EXPECT_NE(RunHash(o), run_hash);
      });
  ForEachSingleFieldChange(
      fleet_base.settings, populated,
      [&](const FieldDesc<loadgen::TestSettings>&,
          const loadgen::TestSettings& s) {
        fleet::FleetOptions o = fleet_base;
        o.settings = s;
        EXPECT_NE(FleetHash(o), fleet_hash);
      });
}

TEST(ConfigHash, EveryFaultPlanAndBreakerFieldChangesBothHashes) {
  soc::FaultPlan plan;
  plan.DriverCrashes(0.1);
  harness::RunOptions run_base;
  fleet::FleetOptions fleet_base;
  run_base.fault_plan = fleet_base.fault_plan = plan;
  run_base.circuit_breaker = fleet_base.circuit_breaker =
      backends::CircuitBreakerOptions{};
  const std::uint64_t run_hash = RunHash(run_base);
  const std::uint64_t fleet_hash = FleetHash(fleet_base);
  EXPECT_NE(run_hash, RunHash(harness::RunOptions{}));
  EXPECT_NE(fleet_hash, FleetHash(fleet::FleetOptions{}));

  using Mutation =
      void (*)(soc::FaultPlan& p, backends::CircuitBreakerOptions& b);
  const Mutation kMutations[] = {
      [](auto& p, auto&) { p.seed += 1; },
      [](auto& p, auto&) { p.specs[0].kind = soc::FaultKind::kSampleDrop; },
      [](auto& p, auto&) { p.specs[0].probability = 0.2; },
      [](auto& p, auto&) { p.specs[0].stall_scale = 2.0; },
      [](auto& p, auto&) { p.specs[0].crash_latency_fraction = 0.3; },
      [](auto& p, auto&) { p.specs.push_back({}); },
      [](auto&, auto& b) { b.trip_threshold += 1; },
      [](auto&, auto& b) { b.open_duration_s *= 2; },
      [](auto&, auto& b) { b.backoff_factor *= 2; },
      [](auto&, auto& b) { b.max_open_duration_s *= 2; },
      [](auto&, auto& b) { b.probe_jitter_frac *= 2; },
      [](auto&, auto& b) { b.seed += 1; },
      [](auto&, auto& b) { b.rejection_latency_s *= 2; },
  };
  for (std::size_t i = 0; i < std::size(kMutations); ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    harness::RunOptions r = run_base;
    fleet::FleetOptions f = fleet_base;
    kMutations[i](*r.fault_plan, *r.circuit_breaker);
    kMutations[i](*f.fault_plan, *f.circuit_breaker);
    EXPECT_NE(RunHash(r), run_hash);
    EXPECT_NE(FleetHash(f), fleet_hash);
  }
}

TEST(ConfigHash, EachHashKeepsItsOwnKeys) {
  const harness::RunOptions run_base;
  const std::uint64_t run_hash = RunHash(run_base);
  harness::RunOptions r = run_base;
  r.cooldown_s = 5.0;
  EXPECT_NE(RunHash(r), run_hash);
  EXPECT_NE(harness::HashRunConfig(soc::Exynos2100(),
                                   models::SuiteVersion::kV0_7, run_base),
            run_hash);
  // Recovery options count only with a fault plan.
  r = run_base;
  r.fault_tolerance.max_attempts = 9;
  EXPECT_EQ(RunHash(r), run_hash);
  r.fault_plan = soc::FaultPlan{};
  const std::uint64_t with_plan = RunHash(r);
  EXPECT_NE(with_plan, run_hash);
  const auto ft_changes = [&](auto mutate) {
    harness::RunOptions changed = r;
    mutate(changed.fault_tolerance);
    return RunHash(changed) != with_plan;
  };
  EXPECT_TRUE(ft_changes([](auto& ft) { ft.max_attempts += 1; }));
  EXPECT_TRUE(ft_changes([](auto& ft) { ft.backoff_base_s *= 2; }));
  EXPECT_TRUE(ft_changes([](auto& ft) { ft.crash_fallback_threshold += 1; }));
  EXPECT_TRUE(ft_changes([](auto& ft) { ft.emergency_cooldown_s *= 2; }));
  EXPECT_TRUE(ft_changes([](auto& ft) { ft.backoff_jitter_frac *= 2; }));
  EXPECT_TRUE(ft_changes([](auto& ft) { ft.backoff_seed += 1; }));

  const fleet::FleetOptions fleet_base;
  const std::uint64_t fleet_hash = FleetHash(fleet_base);
  fleet::FleetOptions f = fleet_base;
  f.split_seed_per_shard = false;
  EXPECT_NE(FleetHash(f), fleet_hash);
  EXPECT_NE(fleet::HashFleetConfig(
                fleet_base, fleet::ParseFleetMix("Exynos 2100:ic:1")),
            fleet_hash);
}

TEST(ConfigHash, ObservabilityAndPlumbingChangeNeitherHash) {
  const harness::RunOptions run_base;
  const std::uint64_t run_hash = RunHash(run_base);
  harness::RunOptions r = run_base;
  r.threads = 8;
  r.profile = true;
  r.trace_path = "run.trace.json";
  r.journal_path = "run.mjl";
  r.resume = true;
  EXPECT_EQ(RunHash(r), run_hash);

  const fleet::FleetOptions fleet_base;
  const std::uint64_t fleet_hash = FleetHash(fleet_base);
  fleet::FleetOptions f = fleet_base;
  f.workers = 3;
  f.journal_path = "fleet.mjl";
  f.resume = true;
  EXPECT_EQ(FleetHash(f), fleet_hash);
}

}  // namespace
}  // namespace mlpm
