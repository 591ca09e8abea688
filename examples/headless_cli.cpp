// The headless native command-line application (paper §4.3: "for laptops,
// submitters can build a native command-line application. The LoadGen
// integrates this application... The only difference is the absence of a
// graphical user interface").
//
// The flags are the kFlags table below; any bad input prints the usage
// generated from it and exits 2.
//
// Examples:
//   headless_cli --chipset "Core i7-11375H" --version v1.0
//   headless_cli --chipset "Exynos 2100" --task is --accuracy
//   headless_cli --chipset "Dimensity 1100" --performance-only --faults 0.9
//   headless_cli --trace run.trace.json --profile   # open in ui.perfetto.dev
//   headless_cli --journal run.mjl        # crash-safe WAL (DESIGN.md §12)
//   headless_cli --resume run.mjl         # replay finished tasks, run rest
//
// Fleet serving mode (DESIGN.md §16): N device-simulator shards, each a
// LoadGen Server-scenario instance, sharing prepared models per distinct
// (chipset, task) config:
//   headless_cli --fleet 64
//   headless_cli --fleet 16 --fleet-mix "Snapdragon 865+:ic:3;Exynos 990:qa:1"
//   headless_cli --fleet 64 --fleet-qps 200 --fleet-slo-ms 50 --fleet-depth 8
//   headless_cli --fleet 64 --journal fleet.mjl   # kill -INT, then --resume
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "fleet/fleet.h"
#include "fleet/report.h"
#include "harness/app.h"
#include "harness/export.h"
#include "harness/report.h"
#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace mlpm;

// SIGINT/SIGTERM request a graceful stop: the run loop checks this flag
// between suite tasks (or fleet shards), journals everything finished so
// far, and emits a partial report with an explicit "interrupted" run state
// (DESIGN.md §12).  std::sig_atomic_t keeps the handler async-signal-safe.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void HandleStopSignal(int /*signum*/) { g_interrupted = 1; }

// Everything one invocation configures.  Flags write straight into the
// options of the mode they configure: `run` for a submission, `fleet` for
// --fleet N.  A flag both modes honour writes both; the suite version lives
// in `fleet.version` only (RunOptions has none) and a submission reads it
// from there, as fleet mode reads --trace and --profile from `run`.
struct Cli {
  Cli() {
    run.threads = 0;        // hardware concurrency unless --threads
    fleet.shard_count = 0;  // no --fleet: run one submission
  }

  harness::RunOptions run;
  fleet::FleetOptions fleet;
  // Values with no home in either options struct.
  std::string chipset = "Core i7-11375H";
  std::optional<models::TaskType> only_task;  // --task display filter
  std::string csv_path;
  std::string log_path;
  // Driver-crash probability per accelerated inference (0 = no fault plan;
  // soc/faults.h has the full plan vocabulary) and the plan's seed.
  double crash_probability = 0.0;
  std::uint64_t fault_seed = 0x464C54;
};

struct Flag {
  const char* name;
  const char* metavar;  // the value's placeholder in the usage; null = switch
  // Writes `value` into `cli`; a value the flag rejects is a CheckError
  // saying why.
  void (*apply)(Cli& cli, const Flag& flag, const std::string& value);
};

[[noreturn]] void Reject(const Flag& flag, const std::string& value) {
  throw CheckError("'" + value + "' is not one of " + flag.metavar);
}

// Strict numeric flag value: the whole string must be a number in
// [lo, hi].  Empty input, trailing garbage ("4x"), a sign on an unsigned
// flag ("-1") and out-of-range values are each rejected.
template <class T>
T Number(const std::string& s, T lo, T hi) {
  T v{};
  const char* const end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || stop != end || ec == std::errc::invalid_argument)
    throw CheckError("'" + s + "' is not a number");
  if (ec == std::errc::result_out_of_range || !(v >= lo && v <= hi))
    throw CheckError(s + " is out of range");
  return v;
}

// The value `s` names in `choices`.
template <class T>
T Choice(const Flag& flag, const std::string& s,
         std::initializer_list<std::pair<std::string_view, T>> choices) {
  for (const auto& [name, v] : choices)
    if (s == name) return v;
  Reject(flag, s);
}

const std::string& NonEmpty(const Flag& flag, const std::string& s) {
  if (s.empty()) throw CheckError(std::string("empty ") + flag.metavar);
  return s;
}

// Bounds for the numeric flags; kTiny makes a lower bound exclusive of 0.
constexpr double kTiny = std::numeric_limits<double>::denorm_min();
constexpr double kMaxDouble = std::numeric_limits<double>::max();
constexpr std::size_t kMaxSize = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kMaxShards = 65536;
constexpr std::size_t kMaxThreads = 4096;

// The command line, in usage order.  A flag added here parses and shows up
// in the usage with no other edit.
constexpr Flag kFlags[] = {
    {"--chipset", "NAME",
     [](Cli& c, const Flag&, const std::string& v) { c.chipset = v; }},
    {"--version", "v0.7|v1.0",
     [](Cli& c, const Flag& f, const std::string& v) {
       c.fleet.version = Choice<models::SuiteVersion>(
           f, v,
           {{"v0.7", models::SuiteVersion::kV0_7},
            {"v1.0", models::SuiteVersion::kV1_0}});
     }},
    // Filters the displayed rows; the run rules still run the full order.
    {"--task", "all|ic|od|is|nlp",
     [](Cli& c, const Flag& f, const std::string& v) {
       using models::TaskType;
       c.only_task = Choice<std::optional<TaskType>>(
           f, v,
           {{"all", std::nullopt},
            {"ic", TaskType::kImageClassification},
            {"od", TaskType::kObjectDetection},
            {"is", TaskType::kImageSegmentation},
            {"nlp", TaskType::kQuestionAnswering}});
     }},
    // Accuracy is on by default for a submission and opt-in for a fleet;
    // of --accuracy and --performance-only the last one given wins.
    {"--accuracy", nullptr,
     [](Cli& c, const Flag&, const std::string&) {
       c.run.run_accuracy = c.fleet.accuracy = true;
     }},
    {"--performance-only", nullptr,
     [](Cli& c, const Flag&, const std::string&) {
       c.run.run_accuracy = c.fleet.accuracy = false;
     }},
    {"--e2e", nullptr,
     [](Cli& c, const Flag&, const std::string&) { c.run.end_to_end = true; }},
    {"--cooldown", "SECONDS",
     [](Cli& c, const Flag&, const std::string& v) {
       c.run.cooldown_s = Number(v, 0.0, kMaxDouble);
     }},
    {"--csv", "FILE",
     [](Cli& c, const Flag&, const std::string& v) { c.csv_path = v; }},
    // The unedited LoadGen log of the first task.
    {"--log", "FILE",
     [](Cli& c, const Flag&, const std::string& v) { c.log_path = v; }},
    {"--faults", "CRASH_PROB",
     [](Cli& c, const Flag&, const std::string& v) {
       c.crash_probability = Number(v, kTiny, 1.0);
     }},
    {"--fault-seed", "N",
     [](Cli& c, const Flag&, const std::string& v) {
       c.fault_seed = Number(v, std::uint64_t{0},
                             std::numeric_limits<std::uint64_t>::max());
     }},
    // Worker threads: the accuracy phase's inference, labelling and
    // calibration, or a performance-only run's tasks and their checks.
    // Every output is byte-identical for any value.
    {"--threads", "N",
     [](Cli& c, const Flag&, const std::string& v) {
       c.run.threads = Number(v, 1, static_cast<int>(kMaxThreads));
     }},
    // Kernel table for the accuracy-phase executors: auto picks the best
    // the host supports; a forced ISA the host lacks falls back to scalar
    // with a RUN007 lint diagnostic.
    {"--kernel-isa", "auto|scalar|avx2|neon",
     [](Cli& c, const Flag& f, const std::string& v) {
       const std::optional<infer::kernels::KernelIsa> isa =
           infer::kernels::ParseKernelIsa(v);
       if (!isa) Reject(f, v);
       c.run.kernel_isa = c.fleet.kernel_isa = *isa;
     }},
    {"--lint", "off|report|strict",
     [](Cli& c, const Flag& f, const std::string& v) {
       using harness::LintMode;
       c.run.lint = Choice<LintMode>(f, v,
                                     {{"off", LintMode::kOff},
                                      {"report", LintMode::kReport},
                                      {"strict", LintMode::kStrict}});
     }},
    // Tiled, fused execution (DESIGN.md §15): auto sizes row bands against
    // the cache budget, N forces N output rows per tile.
    {"--tile", "auto|off|N",
     [](Cli& c, const Flag&, const std::string& v) {
       c.run.tiling.enabled = v != "off";
       if (v == "auto")
         c.run.tiling.rows = -1;
       else if (v != "off")
         c.run.tiling.rows = Number(v, std::int64_t{1},
                                    std::numeric_limits<std::int64_t>::max());
     }},
    // Observability (DESIGN.md §11): --trace writes a Chrome trace_event
    // JSON; --profile appends the per-op aggregate tables and process
    // metrics to the report (and the aggregates to the CSV).
    {"--trace", "FILE",
     [](Cli& c, const Flag& f, const std::string& v) {
       c.run.trace_path = NonEmpty(f, v);
     }},
    {"--profile", nullptr,
     [](Cli& c, const Flag&, const std::string&) { c.run.profile = true; }},
    // Crash safety (DESIGN.md §12): --journal appends one fsync'd record
    // per finished task or shard; --resume replays intact records from FILE
    // and keeps journaling to it.
    {"--journal", "FILE",
     [](Cli& c, const Flag& f, const std::string& v) {
       c.run.journal_path = c.fleet.journal_path = NonEmpty(f, v);
     }},
    {"--resume", "FILE",
     [](Cli& c, const Flag& f, const std::string& v) {
       c.run.journal_path = c.fleet.journal_path = NonEmpty(f, v);
       c.run.resume = c.fleet.resume = true;
     }},
    {"--fleet", "N",
     [](Cli& c, const Flag&, const std::string& v) {
       c.fleet.shard_count = Number(v, std::size_t{1}, kMaxShards);
     }},
    {"--fleet-mix", "SPEC",  // "<chipset>:<task>[:<weight>];..."
     [](Cli& c, const Flag&, const std::string& v) {
       c.fleet.mix = fleet::ParseFleetMix(v);
     }},
    {"--fleet-qps", "X",
     [](Cli& c, const Flag&, const std::string& v) {
       c.fleet.settings.server_target_qps = Number(v, kTiny, kMaxDouble);
     }},
    {"--fleet-slo-ms", "X",
     [](Cli& c, const Flag&, const std::string& v) {
       c.fleet.settings.server_latency_bound =
           loadgen::Seconds{Number(v, kTiny, kMaxDouble) * 1e-3};
     }},
    // Queries per shard, at most the LoadGen's per-test limit.
    {"--fleet-queries", "N",
     [](Cli& c, const Flag&, const std::string& v) {
       c.fleet.settings.server_query_count =
           Number(v, std::size_t{1}, loadgen::kMaxQueryCount);
     }},
    // Admission queue depth (0 = unbounded).
    {"--fleet-depth", "N",
     [](Cli& c, const Flag&, const std::string& v) {
       c.fleet.settings.server_max_queue_depth =
           Number(v, std::size_t{0}, kMaxSize);
     }},
    // Worker threads (0 = hardware concurrency).
    {"--fleet-workers", "N",
     [](Cli& c, const Flag&, const std::string& v) {
       c.fleet.workers = Number(v, std::size_t{0}, kMaxThreads);
     }},
};

// Applies argv to `cli` through kFlags.  False, after a message, on an
// unknown flag, a value flag given last, or a value its flag rejects.
bool Parse(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* const flag =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const Flag& f) { return arg == f.name; });
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return false;
    }
    try {
      if (flag->metavar != nullptr && i + 1 >= argc)
        throw CheckError(std::string("missing ") + flag->metavar);
      flag->apply(cli, *flag, flag->metavar != nullptr ? argv[++i] : "");
    } catch (const CheckError& e) {
      std::fprintf(stderr, "%s: %s\n", flag->name, e.what());
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  std::string line = "usage: headless_cli";
  const std::size_t indent = line.size();
  for (const Flag& f : kFlags) {
    std::string item = std::string(" [") + f.name;
    if (f.metavar != nullptr) item += std::string(" ") + f.metavar;
    item += "]";
    if (line.size() + item.size() > 79) {  // wrap before column 80
      std::fprintf(stderr, "%s\n", line.c_str());
      line.assign(indent, ' ');
    }
    line += item;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

void WriteTrace(const std::string& path) {
  if (path.empty()) return;
  std::ofstream trace(path);
  trace << obs::TraceRecorder::Global().ToChromeJson();
  std::printf("wrote %s (Chrome trace; open with ui.perfetto.dev)\n",
              path.c_str());
}

// Conventional "terminated by SIGINT" exit status; the journal already
// holds every finished task or shard, so the printed rerun completes it.
int Interrupted(std::size_t finished, const char* unit,
                const std::string& resume_args) {
  std::fprintf(stderr,
               "interrupted after %zu %s(s); resume with: headless_cli %s\n",
               finished, unit, resume_args.c_str());
  return 130;
}

// Fleet serving mode: runs the fleet, prints the byte-stable aggregated
// report, and maps the outcome to an exit status (invalid shards -> 1,
// interrupted -> 130).
int RunFleetMode(const Cli& cli) {
  const bool tracing = cli.run.profile || !cli.run.trace_path.empty();
  if (tracing) obs::TraceRecorder::Global().Enable();
  const fleet::FleetReport report = fleet::RunFleet(cli.fleet);
  if (tracing) obs::TraceRecorder::Global().Disable();

  std::string text = fleet::FormatFleetReport(report);
  if (cli.run.profile)
    text += "\n" +
            obs::RenderMetricsTable(obs::MetricsRegistry::Global().Snap());
  std::printf("%s", text.c_str());
  WriteTrace(cli.run.trace_path);
  if (report.interrupted)
    return Interrupted(report.shards.size(), "shard",
                       "--fleet " + std::to_string(cli.fleet.shard_count) +
                           " --resume " + cli.fleet.journal_path);
  return report.invalid_count == 0 ? 0 : 1;
}

std::optional<soc::ChipsetDesc> FindChipset(const std::string& name) {
  for (auto catalog : {soc::CatalogV07(), soc::CatalogV10()})
    for (soc::ChipsetDesc& c : catalog)
      if (c.name == name) return c;
  if (name == "Apple A14") return soc::AppleA14();
  return std::nullopt;
}

// Submission mode: the whole suite on one chipset under the run rules,
// then the report, checker verdict and any requested artifacts.
int RunSubmissionMode(const Cli& cli) {
  const std::optional<soc::ChipsetDesc> chipset = FindChipset(cli.chipset);
  if (!chipset) {
    std::fprintf(stderr, "unknown chipset '%s'; known chipsets:\n",
                 cli.chipset.c_str());
    for (auto catalog : {soc::CatalogV07(), soc::CatalogV10()})
      for (const soc::ChipsetDesc& c : catalog)
        std::fprintf(stderr, "  %s\n", c.name.c_str());
    std::fprintf(stderr, "  Apple A14\n");
    return 2;
  }

  harness::SuiteBundles bundles;
  harness::AppRunOutput out =
      harness::RunMobileApp(*chipset, cli.fleet.version, bundles, cli.run);
  if (cli.only_task) {
    std::erase_if(out.result.tasks, [&](const harness::TaskRunResult& t) {
      return t.entry.task != *cli.only_task;
    });
    out.report_text = harness::FormatSubmission(out.result) +
                      harness::FormatProfileTables(cli.run);
  }
  std::printf("%s\n%s", out.report_text.c_str(), out.checker_text.c_str());
  WriteTrace(cli.run.trace_path);

  if (!cli.csv_path.empty()) {
    std::ofstream csv(cli.csv_path);
    csv << harness::ToCsv(out.result);
    if (cli.run.profile) {
      const harness::OpProfile ops = harness::CollectOpProfile();
      for (const auto* aggregates : {&ops.host, &ops.sim})
        if (!aggregates->empty()) csv << "\n" << obs::AggregateCsv(*aggregates);
    }
    std::printf("wrote %s\n", cli.csv_path.c_str());
  }
  if (!cli.log_path.empty() && !out.result.tasks.empty() &&
      out.result.tasks[0].single_stream) {
    std::ofstream log(cli.log_path);
    log << out.result.tasks[0].single_stream->log.Serialize();
    std::printf("wrote %s (unedited LoadGen log, first task)\n",
                cli.log_path.c_str());
  }
  if (out.result.interrupted)
    return Interrupted(out.result.tasks.size(), "task",
                       "--resume " + cli.run.journal_path);
  return out.submission_valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!Parse(argc, argv, cli)) {
    PrintUsage();
    return 2;
  }
  // One fault plan for whichever mode runs, with a 10 s query timeout so a
  // hung inference becomes a timed-out query.
  if (cli.crash_probability > 0.0) {
    soc::FaultPlan plan;
    plan.seed = cli.fault_seed;
    plan.DriverCrashes(cli.crash_probability);
    cli.run.fault_plan = cli.fleet.fault_plan = std::move(plan);
    cli.run.performance_settings.query_timeout =
        cli.fleet.settings.query_timeout = loadgen::Seconds{10.0};
  }
  if (!cli.run.journal_path.empty()) {
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    cli.run.cancel = cli.fleet.cancel = [] { return g_interrupted != 0; };
  }
  if (cli.fleet.shard_count == 0) return RunSubmissionMode(cli);
  try {
    return RunFleetMode(cli);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "fleet: %s\n", e.what());
    return 2;
  }
}
