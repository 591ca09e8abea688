#include "harness/report.h"

#include <sstream>

#include "common/statistics.h"
#include "common/table.h"

namespace mlpm::harness {
namespace {

// Activation bytes render in KiB/MiB; raw byte counts are unreadable at
// full-scale-model sizes.
std::string FormatBytes(std::size_t bytes) {
  const double b = static_cast<double>(bytes);
  if (bytes >= 1024 * 1024)
    return FormatDouble(b / (1024.0 * 1024.0), 2) + " MiB";
  if (bytes >= 1024) return FormatDouble(b / 1024.0, 1) + " KiB";
  return std::to_string(bytes) + " B";
}

}  // namespace

std::string FormatSubmission(const SubmissionResult& result) {
  TextTable t("MLPerf Mobile " + std::string(ToString(result.version)) +
              " — " + result.chipset_name);
  t.SetHeader({"Task", "Numerics", "Framework", "Accelerator", "Kernels",
               "Accuracy", "vs FP32", "Quality", "p90 latency",
               "1/latency (q/s)", "Offline FPS", "mJ/inf", "Arena",
               "Act. saved"});
  for (const TaskRunResult& task : result.tasks) {
    std::vector<std::string> row;
    row.push_back(task.entry.id);
    row.push_back(std::string(ToString(task.numerics)));
    row.push_back(task.framework_name);
    row.push_back(task.accelerator_label);
    row.push_back(task.kernel_isa.empty() ? "-" : task.kernel_isa);
    row.push_back(FormatDouble(task.accuracy, 4) + " " +
                  task.entry.metric_name);
    row.push_back(FormatPercent(task.ratio_to_fp32, 1));
    row.push_back(task.quality_passed ? "PASS" : "FAIL");
    if (task.single_stream) {
      row.push_back(FormatMs(task.single_stream->percentile_latency_s));
      row.push_back(FormatDouble(
          task.single_stream->percentile_latency_s > 0
              ? 1.0 / task.single_stream->percentile_latency_s
              : 0.0,
          1));
    } else {
      row.push_back("-");
      row.push_back("-");
    }
    row.push_back(task.offline
                      ? FormatDouble(task.offline->throughput_sps, 1)
                      : "-");
    row.push_back(FormatDouble(task.energy_per_inference_j * 1e3, 2));
    // Planned activation arena vs the naive per-tensor footprint
    // (DESIGN.md §10); "saved" is the fraction the planner recovered.
    if (task.naive_activation_bytes > 0) {
      row.push_back(FormatBytes(task.peak_arena_bytes));
      row.push_back(FormatPercent(
          1.0 - static_cast<double>(task.peak_arena_bytes) /
                    static_cast<double>(task.naive_activation_bytes),
          1));
    } else {
      row.push_back("-");
      row.push_back("-");
    }
    t.AddRow(std::move(row));
  }
  std::string out = t.Render();

  // Latency distribution: the paper's headline metric is the 90th
  // percentile, but tail behaviour (p97/p99) distinguishes thermally
  // stable chipsets from ones coasting on burst clocks.  Percentiles
  // selects a task's four order-statistic pairs from one copy; nothing is
  // sorted.
  bool any_latencies = false;
  for (const TaskRunResult& task : result.tasks)
    any_latencies |=
        task.single_stream && !task.single_stream->latencies_s.empty();
  if (any_latencies) {
    TextTable d("single-stream latency percentiles");
    d.SetHeader({"Task", "p50", "p90", "p97", "p99"});
    constexpr double kPercentiles[] = {50.0, 90.0, 97.0, 99.0};
    for (const TaskRunResult& task : result.tasks) {
      if (!task.single_stream || task.single_stream->latencies_s.empty())
        continue;
      const std::vector<double> p =
          Percentiles(task.single_stream->latencies_s, kPercentiles);
      d.AddRow({task.entry.id, FormatMs(p[0]), FormatMs(p[1]), FormatMs(p[2]),
                FormatMs(p[3])});
    }
    out += "\n";
    out += d.Render();
  }

  // Degraded-run transparency: if anything went wrong anywhere in the
  // submission, the reader sees it next to the scores, not buried in logs.
  bool any_fault = false;
  for (const TaskRunResult& task : result.tasks)
    any_fault |= task.status != TaskStatus::kValid || task.fault_count > 0;
  if (any_fault) {
    TextTable f("fault / degradation summary");
    f.SetHeader({"Task", "Status", "Faults", "Recoveries", "Dropped",
                 "Timed out", "Shed", "Rejected", "Trips", "Attempts",
                 "Detail"});
    for (const TaskRunResult& task : result.tasks) {
      f.AddRow({task.entry.id, std::string(ToString(task.status)),
                std::to_string(task.fault_count),
                std::to_string(task.degradation_count),
                std::to_string(
                    SumOverTests(task, &loadgen::TestResult::dropped_count)),
                std::to_string(
                    SumOverTests(task, &loadgen::TestResult::timed_out_count)),
                std::to_string(task.shed_count),
                std::to_string(task.rejected_count),
                std::to_string(task.breaker_trips),
                std::to_string(task.performance_attempts),
                task.status_detail});
    }
    out += "\n";
    out += f.Render();
  }

  // Static-verification transparency (DESIGN.md §9): diagnostics from the
  // pre-run analysis passes appear next to the scores they gate.
  bool any_lint = false;
  for (const TaskRunResult& task : result.tasks)
    any_lint |= task.lint_error_count > 0 || task.lint_warning_count > 0;
  if (any_lint) {
    TextTable l("static analysis");
    l.SetHeader({"Task", "Errors", "Warnings", "First diagnostic"});
    for (const TaskRunResult& task : result.tasks) {
      std::string first = task.lint_log.substr(0, task.lint_log.find('\n'));
      if (first.size() > 72) first = first.substr(0, 69) + "...";
      l.AddRow({task.entry.id, std::to_string(task.lint_error_count),
                std::to_string(task.lint_warning_count), std::move(first)});
    }
    out += "\n";
    out += l.Render();
  }

  // Tiled-execution transparency (DESIGN.md §15): when tiling was
  // requested, the report shows per task whether the accuracy executors
  // actually ran fused tile segments, how many chains fused, the tile
  // height in effect, and the per-worker slab footprint that replaced the
  // segment interiors' arena share.
  bool any_tiling = false;
  for (const TaskRunResult& task : result.tasks)
    any_tiling |= task.tiling_requested;
  if (any_tiling) {
    TextTable g("tiled execution");
    g.SetHeader({"Task", "Applied", "Segments", "Tile rows", "Slab"});
    for (const TaskRunResult& task : result.tasks) {
      if (!task.tiling_requested) continue;
      // "planned": the plan fused segments (the arena figures above are
      // tile-aware) but no accuracy executor ran, so nothing executed
      // tiled — performance-only runs land here.
      const char* applied = task.tiling_applied    ? "yes"
                            : task.tile_segments > 0 ? "planned"
                                                     : "WHOLE-OP";
      g.AddRow({task.entry.id, applied,
                std::to_string(task.tile_segments),
                task.tile_rows == -1 ? "auto"
                                     : std::to_string(task.tile_rows),
                task.tile_segments > 0 ? FormatBytes(task.tile_slab_bytes)
                                       : "-"});
    }
    out += "\n";
    out += g.Render();
  }

  // Interruption transparency (DESIGN.md §12): a partial run says so in
  // the report body, never silently.  An uninterrupted (or fully resumed)
  // run emits nothing here, keeping resumed reports byte-identical to
  // their uninterrupted baselines.
  if (result.interrupted) {
    out += "\nrun state: interrupted — " +
           std::to_string(result.tasks.size()) + " of " +
           std::to_string(models::SuiteFor(result.version).size()) +
           " suite tasks completed; resume from the journal to finish\n";
  }
  return out;
}

std::string FormatCheckReport(const CheckReport& report) {
  std::ostringstream os;
  os << "submission checker: " << (report.valid ? "VALID" : "INVALID")
     << '\n';
  for (const std::string& p : report.problems) os << "  problem: " << p
                                                  << '\n';
  return os.str();
}

std::string FormatAuditReport(const AuditReport& report) {
  TextTable t(std::string("audit (5% tolerance): ") +
              (report.accepted ? "ACCEPTED" : "REJECTED"));
  t.SetHeader({"Metric", "Submitted", "Reproduced", "Delta", "OK"});
  for (const AuditFinding& f : report.findings) {
    t.AddRow({f.what, FormatDouble(f.submitted, 6),
              FormatDouble(f.reproduced, 6),
              FormatPercent(f.relative_delta, 2),
              f.within_tolerance ? "yes" : "NO"});
  }
  return t.Render();
}

}  // namespace mlpm::harness
