// The headless_cli front end, run as the built binary:
//   * goldens: five invocations covering both modes and every flag family
//     reproduce stdout (and the CSV) committed from an earlier release;
//   * bad input (malformed numbers and enums, unknown flags, a value flag
//     given last) exits 2 with the usage, which lists every flag once; so
//     does the removed --transform, in mlpm_lint too;
//   * flag semantics the goldens do not reach: the last of --accuracy and
//     --performance-only wins, and --task keeps a traced run's profile
//     tables;
//   * mlpm_journal on the journals the CLI writes: a clean journal exits 0,
//     one with a torn tail exits 1 and names the bytes a resume would cut,
//     and a file that is not a journal exits 2.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

namespace {

std::string Slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string Golden(const std::string& name) {
  return Slurp(std::filesystem::path(MLPM_GOLDEN_DIR) / name);
}

// One headless_cli invocation in a scratch directory of its own (named
// after the running test), removed again when the run goes out of scope.
// `args` are shell words, so quoted chipset names and mix specs work.
class CliRun {
 public:
  explicit CliRun(const std::string& args) {
    const testing::TestInfo* info =
        testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(testing::TempDir()) /
           ("cli_test_" + std::string(info->test_suite_name()) + "_" +
            info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    status_ = Run(MLPM_HEADLESS_CLI, args, out_, err_);
  }
  ~CliRun() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  CliRun(const CliRun&) = delete;
  CliRun& operator=(const CliRun&) = delete;

  [[nodiscard]] int status() const { return status_; }
  [[nodiscard]] const std::string& out() const { return out_; }
  [[nodiscard]] const std::string& err() const { return err_; }
  // A file the run wrote into its working directory.
  [[nodiscard]] std::string File(const std::string& name) const {
    return Slurp(dir_ / name);
  }
  void WriteFile(const std::string& name, const std::string& bytes) const {
    std::ofstream(dir_ / name, std::ios::binary) << bytes;
  }

  // Runs `binary` with shell words `args` in the run's directory; returns
  // its exit status (-1 when it did not exit) and what it printed.
  int Run(const std::string& binary, const std::string& args,
          std::string& out, std::string& err) const {
    const std::string command = "cd '" + dir_.string() + "' && '" + binary +
                                "' " + args + " > stdout.txt 2> stderr.txt";
    const int rc = std::system(command.c_str());
    out = File("stdout.txt");
    err = File("stderr.txt");
    return rc != -1 && WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

 private:
  std::filesystem::path dir_;
  int status_ = -1;
  std::string out_;
  std::string err_;
};

// ---- goldens ---------------------------------------------------------------

TEST(CliGolden, PerformanceOnlyClassificationWithCsv) {
  const CliRun run(
      "--performance-only --cooldown 0 --kernel-isa scalar --task ic "
      "--csv cli_ic.csv");
  EXPECT_EQ(run.status(), 0) << run.err();
  EXPECT_EQ(run.out(), Golden("cli_perf_ic.txt"));
  EXPECT_EQ(run.File("cli_ic.csv"), Golden("cli_ic.csv"));
}

TEST(CliGolden, FaultedDetectionOnExynos2100) {
  const CliRun run(
      "--chipset \"Exynos 2100\" --performance-only --cooldown 0 "
      "--kernel-isa scalar --task od --faults 0.2 --fault-seed 7");
  EXPECT_EQ(run.status(), 1) << run.err();  // the checker rejects the run
  EXPECT_EQ(run.out(), Golden("cli_faults_od.txt"));
}

TEST(CliGolden, V07SegmentationWithEveryAccuracyPlaneFlag) {
  const CliRun run(
      "--version v0.7 --chipset \"Snapdragon 865+\" --performance-only "
      "--cooldown 0 --kernel-isa scalar --e2e --lint strict --tile 8 "
      "--task is");
  EXPECT_EQ(run.status(), 0) << run.err();
  EXPECT_EQ(run.out(), Golden("cli_v07_is.txt"));
}

TEST(CliGolden, DefaultFleet) {
  const CliRun run("--fleet 16 --fleet-queries 512");
  EXPECT_EQ(run.status(), 0) << run.err();
  EXPECT_EQ(run.out(), Golden("cli_fleet.txt"));
}

TEST(CliGolden, FleetWithEveryFleetFlag) {
  const CliRun run(
      "--fleet 16 --fleet-queries 512 "
      "--fleet-mix 'Snapdragon 888:ic:3;Exynos 2100:qa' --faults 0.2 "
      "--fault-seed 7 --fleet-depth 8 --fleet-qps 150 --fleet-slo-ms 40 "
      "--fleet-workers 2");
  EXPECT_EQ(run.status(), 0) << run.err();
  EXPECT_EQ(run.out(), Golden("cli_fleet_mix.txt"));
}

// ---- bad input and the usage -----------------------------------------------

TEST(CliFlags, BadInputExitsTwoWithTheUsage) {
  for (const char* args :
       {"--fleet 4x", "--cooldown abc", "--version v9", "--tile 0",
        "--kernel-isa foo", "--bogus", "--performance-only --csv",
        "--fleet 4 --fleet-mix ''"}) {
    SCOPED_TRACE(args);
    const CliRun run(args);
    EXPECT_EQ(run.status(), 2);
    EXPECT_EQ(run.out(), "");
    EXPECT_NE(run.err().find("usage: headless_cli"), std::string::npos);
  }
}

TEST(CliFlags, FleetQueriesAboveTheLoadGenLimitIsAUsageError) {
  // The LoadGen's per-test limit is 2^32 - 1 query ids; a count above it
  // is refused at the flag, before any shard reserves its query tables.
  for (const char* count : {"4294967296", "1000000000000"}) {
    SCOPED_TRACE(count);
    const CliRun run(std::string("--fleet 1 --fleet-queries ") + count);
    EXPECT_EQ(run.status(), 2);
    EXPECT_EQ(run.out(), "");
    EXPECT_NE(run.err().find(std::string("--fleet-queries: ") + count +
                             " is out of range"),
              std::string::npos)
        << run.err();
    EXPECT_NE(run.err().find("usage: headless_cli"), std::string::npos);
  }
}

TEST(CliFlags, UsageListsEveryFlagOnce) {
  const CliRun run("--bogus");
  const std::string& usage = run.err();
  std::size_t listed = 0;
  for (std::size_t at = usage.find("[--"); at != std::string::npos;
       at = usage.find("[--", at + 1))
    ++listed;
  EXPECT_EQ(listed, 26u) << usage;
  for (const char* flag :
       {"--chipset", "--version", "--task", "--accuracy", "--performance-only",
        "--e2e", "--cooldown", "--csv", "--log", "--faults", "--fault-seed",
        "--threads", "--kernel-isa", "--lint", "--tile",
        "--trace", "--profile", "--journal", "--resume", "--fleet",
        "--fleet-mix", "--fleet-qps", "--fleet-slo-ms", "--fleet-queries",
        "--fleet-depth", "--fleet-workers"}) {
    // 26 entries naming 26 distinct flags: each is listed exactly once.
    const std::string entry = std::string("[") + flag;
    EXPECT_TRUE(usage.find(entry + " ") != std::string::npos ||
                usage.find(entry + "]") != std::string::npos)
        << flag << " missing from\n" << usage;
  }
}

// The graph-transform stage and its flag were removed from both tools; a
// script still passing --transform is told so rather than silently ignored.
TEST(CliFlags, RemovedTransformFlagIsAUsageErrorInBothTools) {
  const CliRun run("--transform");
  EXPECT_EQ(run.status(), 2);
  EXPECT_EQ(run.out(), "");
  EXPECT_NE(run.err().find("usage: headless_cli"), std::string::npos);

  std::string out;
  std::string err;
  EXPECT_EQ(run.Run(MLPM_LINT_TOOL, "--transform", out, err), 2);
  EXPECT_EQ(out, "");
  EXPECT_NE(err.find("usage: "), std::string::npos) << err;
  EXPECT_EQ(err.find("--transform"), std::string::npos) << err;
}

// ---- flag semantics --------------------------------------------------------

TEST(CliFlags, LastOfAccuracyAndPerformanceOnlyWinsInFleetMode) {
  const CliRun run("--fleet 16 --fleet-queries 512 --accuracy "
                   "--performance-only");
  EXPECT_EQ(run.status(), 0) << run.err();
  EXPECT_EQ(run.out(), Golden("cli_fleet.txt"));
}

TEST(CliProfile, TaskFilterKeepsTheProfileTablesOfATracedRun) {
  const CliRun run(
      "--performance-only --cooldown 0 --task ic --trace run.trace.json");
  EXPECT_EQ(run.status(), 0) << run.err();
  EXPECT_NE(run.out().find("simulated IP steps"), std::string::npos)
      << run.out();
  // A performance-only run labels no data set, so no executor ran.
  EXPECT_EQ(run.out().find("executor ops (host)"), std::string::npos)
      << run.out();
  EXPECT_NE(run.File("run.trace.json").find("traceEvents"), std::string::npos);
}

// ---- mlpm_journal -----------------------------------------------------------

struct Inspection {
  int status = -1;
  std::string out;
  std::string err;
};

Inspection InspectJournal(const CliRun& run, const std::string& file) {
  Inspection i;
  i.status = run.Run(MLPM_JOURNAL_TOOL, "--verbose " + file, i.out, i.err);
  return i;
}

// Checks the tool on the journal `run` wrote to `file`: clean, then with
// its last 5 bytes cut (a torn append), then replaced by garbage.
void ExpectJournalInspection(const CliRun& run, const std::string& file,
                             const std::string& heading,
                             const std::string& replayable) {
  const std::string bytes = run.File(file);
  ASSERT_GT(bytes.size(), 5u);

  const Inspection clean = InspectJournal(run, file);
  EXPECT_EQ(clean.status, 0) << clean.out << clean.err;
  EXPECT_EQ(clean.out.rfind(heading + file + "\n", 0), 0u) << clean.out;
  EXPECT_NE(clean.out.find(replayable), std::string::npos) << clean.out;
  EXPECT_EQ(clean.out.find("torn tail"), std::string::npos) << clean.out;

  // The cut leaves the last frame torn: everything from its header line
  // on goes, and the line says how many bytes that is.
  const std::size_t cut_size = bytes.size() - 5;
  run.WriteFile("torn.mjl", bytes.substr(0, cut_size));
  const Inspection torn = InspectJournal(run, "torn.mjl");
  EXPECT_EQ(torn.status, 1) << torn.out << torn.err;
  const std::size_t at = torn.out.find("  torn tail: ");
  ASSERT_NE(at, std::string::npos) << torn.out;
  std::size_t cut_bytes = 0;
  std::size_t offset = 0;
  ASSERT_EQ(std::sscanf(torn.out.c_str() + at,
                        "  torn tail: %zu byte(s) after offset %zu would be "
                        "truncated on resume",
                        &cut_bytes, &offset),
            2)
      << torn.out;
  EXPECT_GT(cut_bytes, 0u);
  EXPECT_EQ(offset + cut_bytes, cut_size);
  EXPECT_EQ(bytes[offset - 1], '\n');
  EXPECT_EQ(torn.out.find(replayable), std::string::npos) << torn.out;

  run.WriteFile("garbage.mjl", "not a journal\n\x01\x02\x03");
  const Inspection garbage = InspectJournal(run, "garbage.mjl");
  EXPECT_EQ(garbage.status, 2) << garbage.out;
  EXPECT_EQ(garbage.out, "");
  EXPECT_NE(garbage.err.find("not a readable journal"), std::string::npos)
      << garbage.err;
}

TEST(CliJournal, InspectsASubmissionJournal) {
  const CliRun run("--performance-only --cooldown 0 --journal run.mjl");
  ASSERT_EQ(run.status(), 0) << run.err();
  ExpectJournalInspection(run, "run.mjl", "journal: ",
                          "resume: 4 of 4 suite task(s) replayable\n");
}

TEST(CliJournal, InspectsAFleetJournal) {
  const CliRun run("--fleet 2 --fleet-queries 64 --journal fleet.mjl");
  ASSERT_EQ(run.status(), 0) << run.err();
  ExpectJournalInspection(run, "fleet.mjl", "fleet journal: ",
                          "resume: 2 of 2 shard(s) replayable\n");
}

}  // namespace
