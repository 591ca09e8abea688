// mlpm_lint: standalone static-verification CLI (DESIGN.md §9).
//
// Lints model-IR files, the shipped reference models, and the vendor
// submission configurations without executing anything.  Exit codes keep
// lint findings distinct from tool failure so CI can gate on each
// separately:
//   0  clean (notes do not gate)
//   1  findings at warning or error severity
//   2  usage error or internal failure — nothing was fully linted
//
// Usage:
//   mlpm_lint [--json] [--version v0.7|v1.0|all] [FILE.graph ...]
//   mlpm_lint --models             lint every suite reference graph
//   mlpm_lint --chipset NAME|all   lint vendor submissions for the chipset(s)
//   mlpm_lint --codes              print the diagnostic-code catalogue
//   mlpm_lint --memory             static activation-memory summary for the
//                                  reference models (planner only, nothing
//                                  is executed)
//   mlpm_lint --kernel-isa NAME    lint a run configuration that forces the
//                                  kernel ISA NAME against this host's
//                                  kernel registry (RUN007 when unknown or
//                                  unavailable)
//   mlpm_lint --tile auto|N        lint a run configuration that requests
//                                  tiled execution with the given tile
//                                  height against every selected reference
//                                  model (RUN008 when the height is invalid
//                                  or a model has no fusable segment)
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/passes.h"
#include "backends/vendor_policy.h"
#include "graph/serialize.h"
#include "infer/kernels/registry.h"
#include "infer/memory_plan.h"
#include "infer/tile_planner.h"
#include "models/zoo.h"
#include "soc/chipset.h"

namespace {

using namespace mlpm;  // NOLINT(google-build-using-namespace): CLI entry point

struct TargetReport {
  std::string name;
  analysis::DiagnosticEngine engine;
};

struct Options {
  bool json = false;
  bool lint_models = false;
  bool print_codes = false;
  bool memory_summary = false;
  std::string chipset;     // empty = none, "all" = every catalog chipset
  std::string kernel_isa;  // empty = not requested
  std::string tile;        // empty = not requested; "auto" or a row count
  std::vector<models::SuiteVersion> versions = {models::SuiteVersion::kV0_7,
                                                models::SuiteVersion::kV1_0};
  std::vector<std::string> files;
};

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--json] [--version v0.7|v1.0|all] [--models]"
               " [--chipset NAME|all] [--codes] [--memory]"
               " [--kernel-isa auto|scalar|avx2|neon] [--tile auto|N]"
               " [FILE.graph ...]\n";
  return 2;
}

// Static activation-memory summary (DESIGN.md §10): per reference model,
// the planner's packed arena footprint vs the naive one-buffer-per-tensor
// sum.  Pure planning — no weights are initialized, nothing runs.
void PrintMemorySummary(const Options& opt) {
  std::printf("%-40s %12s %12s %8s %8s\n", "model", "arena KiB", "naive KiB",
              "saved", "aliases");
  for (const models::SuiteVersion v : opt.versions) {
    for (const models::BenchmarkEntry& e : models::SuiteFor(v)) {
      const graph::Graph g =
          models::BuildReferenceGraph(e, v, models::ModelScale::kFull);
      const infer::MemoryPlan plan = infer::MemoryPlan::Build(g);
      const std::string name =
          std::string(ToString(v)) + "/" + e.id + " (" + e.model_name + ")";
      std::printf("%-40s %12.1f %12.1f %7.1f%% %8zu\n", name.c_str(),
                  static_cast<double>(plan.peak_arena_bytes()) / 1024.0,
                  static_cast<double>(plan.naive_bytes()) / 1024.0,
                  100.0 * plan.savings_ratio(), plan.alias_count());
    }
  }
}

// Lint one serialized graph file: syntax-only load, then the model passes.
void LintFile(const std::string& path, std::vector<TargetReport>& reports) {
  TargetReport r;
  r.name = path;
  std::ifstream in(path);
  if (!in) {
    r.engine.Report("GRAPH005", analysis::GraphSource(path),
                    "cannot open file");
    reports.push_back(std::move(r));
    return;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const graph::Graph g = graph::ParseGraphUnchecked(text.str());
    analysis::RunModelPasses(g, r.engine);
  } catch (const std::exception& e) {
    // Even the syntax-only parser can reject a file (bad header, malformed
    // record); that is structural corruption by definition.
    r.engine.Report("GRAPH005", analysis::GraphSource(path), e.what());
  }
  reports.push_back(std::move(r));
}

void LintReferenceModels(const Options& opt,
                         std::vector<TargetReport>& reports) {
  for (const models::SuiteVersion v : opt.versions) {
    for (const models::BenchmarkEntry& e : models::SuiteFor(v)) {
      TargetReport r;
      r.name = std::string(ToString(v)) + "/" + e.id + " (" + e.model_name +
               ")";
      const graph::Graph g =
          models::BuildReferenceGraph(e, v, models::ModelScale::kFull);
      analysis::RunModelPasses(g, r.engine);
      reports.push_back(std::move(r));
    }
  }
}

void LintChipset(const soc::ChipsetDesc& chipset, models::SuiteVersion v,
                 std::vector<TargetReport>& reports) {
  for (const models::BenchmarkEntry& e : models::SuiteFor(v)) {
    TargetReport r;
    r.name = chipset.name + "/" + std::string(ToString(v)) + "/" + e.id;
    const backends::SubmissionConfig sub =
        backends::GetSubmission(chipset, e.task, v);
    const graph::Graph g =
        models::BuildReferenceGraph(e, v, models::ModelScale::kFull);

    analysis::QuantConfigView q;
    q.activation_dtype = sub.numerics;
    analysis::CheckQuantLegality(g, q, r.engine);

    analysis::MappingConfigView m;
    m.chipset = &chipset;
    m.numerics = sub.numerics;
    m.policy = &sub.single_stream;
    m.label = r.name + "/single_stream";
    analysis::CheckSocMapping(g, m, r.engine);
    for (std::size_t i = 0; i < sub.offline_replicas.size(); ++i) {
      m.policy = &sub.offline_replicas[i];
      m.label = r.name + "/offline[" + std::to_string(i) + "]";
      analysis::CheckSocMapping(g, m, r.engine);
    }
    reports.push_back(std::move(r));
  }
}

void LintSubmissions(const Options& opt, std::vector<TargetReport>& reports) {
  bool matched = false;
  for (const models::SuiteVersion v : opt.versions) {
    const std::vector<soc::ChipsetDesc> catalog =
        v == models::SuiteVersion::kV0_7 ? soc::CatalogV07()
                                         : soc::CatalogV10();
    for (const soc::ChipsetDesc& c : catalog) {
      if (opt.chipset != "all" && c.name != opt.chipset) continue;
      matched = true;
      LintChipset(c, v, reports);
    }
  }
  if (!matched) {
    TargetReport r;
    r.name = opt.chipset;
    r.engine.Report("SOC001", analysis::ConfigSource("--chipset"),
                    "no chipset named '" + opt.chipset +
                        "' in the selected catalog round(s)");
    reports.push_back(std::move(r));
  }
}

// Lints a run configuration that forces `name` as the kernel ISA, resolved
// against this host's kernel registry — the pre-run diagnostic for a CLI
// `--kernel-isa` value that would silently fall back to scalar (RUN007).
void LintKernelIsa(const std::string& name,
                   std::vector<TargetReport>& reports) {
  TargetReport r;
  r.name = "run-config (--kernel-isa " + name + ")";
  analysis::RunConfigView rc;
  rc.kernel_isa = name;
  const std::optional<infer::kernels::KernelIsa> isa =
      infer::kernels::ParseKernelIsa(name);
  rc.kernel_isa_available =
      isa && infer::kernels::KernelRegistry::Global().Available(*isa);
  analysis::CheckRunConfig(rc, r.engine);
  reports.push_back(std::move(r));
}

// Lints a run configuration that requests tiled execution with tile height
// `value` ("auto" or a decimal row count) against every selected reference
// model: RUN008 error for an invalid height, RUN008 warning per model with
// no fusable segment (infer::HasFusableSegment) — the pre-run diagnostic
// for a CLI `--tile` value that would have no effect (DESIGN.md §15).
void LintTileConfig(const Options& opt, const std::string& value,
                    std::vector<TargetReport>& reports) {
  std::int64_t rows = -1;
  if (value != "auto") {
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end == value.c_str() || *end != '\0' ||
        errno == ERANGE) {
      TargetReport r;
      r.name = "run-config (--tile " + value + ")";
      r.engine.Report("RUN008", analysis::ConfigSource("run.tile_rows"),
                      "tile height '" + value +
                          "' is not a number; use auto or a positive row "
                          "count");
      reports.push_back(std::move(r));
      return;
    }
    rows = parsed;
  }
  for (const models::SuiteVersion v : opt.versions) {
    for (const models::BenchmarkEntry& e : models::SuiteFor(v)) {
      TargetReport r;
      r.name = std::string(ToString(v)) + "/" + e.id + " (--tile " + value +
               ")";
      const graph::Graph g =
          models::BuildReferenceGraph(e, v, models::ModelScale::kFull);
      analysis::RunConfigView rc;
      rc.tiling_requested = true;
      rc.tile_rows = rows;
      rc.graph_has_fusable_segment = infer::HasFusableSegment(g);
      analysis::CheckRunConfig(rc, r.engine);
      reports.push_back(std::move(r));
    }
  }
}

void PrintCodes() {
  for (const analysis::CodeInfo& c : analysis::DiagnosticCatalogue())
    std::cout << c.code << "  " << ToString(c.default_severity) << "  "
              << c.summary << '\n';
}

void AppendJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (c == '\n') os << "\\n";
    else os << c;
  }
  os << '"';
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--models") {
      opt.lint_models = true;
    } else if (arg == "--codes") {
      opt.print_codes = true;
    } else if (arg == "--memory") {
      opt.memory_summary = true;
    } else if (arg == "--chipset") {
      if (++i >= argc) return Usage(argv[0]);
      opt.chipset = argv[i];
    } else if (arg == "--kernel-isa") {
      if (++i >= argc) return Usage(argv[0]);
      opt.kernel_isa = argv[i];
    } else if (arg == "--tile") {
      if (++i >= argc) return Usage(argv[0]);
      opt.tile = argv[i];
    } else if (arg == "--version") {
      if (++i >= argc) return Usage(argv[0]);
      const std::string v = argv[i];
      if (v == "v0.7") opt.versions = {models::SuiteVersion::kV0_7};
      else if (v == "v1.0") opt.versions = {models::SuiteVersion::kV1_0};
      else if (v == "all") { /* keep both */ }
      else return Usage(argv[0]);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      opt.files.push_back(arg);
    }
  }
  if (opt.print_codes) {
    PrintCodes();
    return 0;
  }
  if (opt.memory_summary) {
    try {
      PrintMemorySummary(opt);
    } catch (const std::exception& e) {
      std::cerr << "mlpm_lint: " << e.what() << '\n';
      return 2;
    }
    return 0;
  }
  if (!opt.lint_models && opt.chipset.empty() && opt.kernel_isa.empty() &&
      opt.tile.empty() && opt.files.empty())
    return Usage(argv[0]);

  std::vector<TargetReport> reports;
  try {
    for (const std::string& f : opt.files) LintFile(f, reports);
    if (opt.lint_models) LintReferenceModels(opt, reports);
    if (!opt.chipset.empty()) LintSubmissions(opt, reports);
    if (!opt.kernel_isa.empty()) LintKernelIsa(opt.kernel_isa, reports);
    if (!opt.tile.empty()) LintTileConfig(opt, opt.tile, reports);
  } catch (const std::exception& e) {
    std::cerr << "mlpm_lint: " << e.what() << '\n';
    return 2;
  }

  analysis::Severity max = analysis::Severity::kNote;
  bool any = false;
  for (const TargetReport& r : reports) {
    if (!r.engine.empty()) {
      any = true;
      if (r.engine.MaxSeverity() > max) max = r.engine.MaxSeverity();
    }
  }

  if (opt.json) {
    std::cout << "{\"targets\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i) std::cout << ',';
      std::cout << "{\"name\":";
      AppendJsonString(std::cout, reports[i].name);
      std::cout << ",\"report\":" << reports[i].engine.ToJson() << '}';
    }
    std::cout << "],\"max_severity\":\""
              << (any ? ToString(max) : std::string_view("clean")) << "\"}\n";
  } else {
    for (const TargetReport& r : reports) {
      if (r.engine.empty()) continue;
      std::cout << "== " << r.name << " ==\n" << r.engine.ToText();
    }
    std::cout << reports.size() << " target(s) linted, "
              << (any ? std::string("max severity ") +
                            std::string(ToString(max))
                      : std::string("all clean"))
              << '\n';
  }
  // Findings exit 1 regardless of severity tier; 2 is reserved for usage
  // and internal errors so automation can tell "the model is bad" from
  // "the tool invocation is bad".  Notes alone do not gate.
  return (any && max >= analysis::Severity::kWarning) ? 1 : 0;
}
