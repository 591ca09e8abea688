#include "fleet/report.h"

#include <cstdio>

namespace mlpm::fleet {
namespace {

[[nodiscard]] std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

}  // namespace

std::string FormatFleetReport(const FleetReport& report) {
  std::string out;
  char line[256];

  out += "fleet report (";
  out += ToString(report.version);
  std::snprintf(line, sizeof line, ", seed 0x%llx, %zu shards)%s\n",
                static_cast<unsigned long long>(report.seed),
                report.shard_count,
                report.interrupted ? " [interrupted]" : "");
  out += line;
  out += "  mix: " + report.mix_spec + "\n";
  out += "  fleet qps: " + Fmt("%.3f", report.fleet_qps) + "\n";
  std::size_t slo_met = 0;
  for (const ShardResult& s : report.shards)
    if (s.slo_met) ++slo_met;
  std::snprintf(line, sizeof line, "  slo met: %zu/%zu (%s)\n", slo_met,
                report.shards.size(),
                Fmt("%.1f%%", report.slo_met_fraction * 100.0).c_str());
  out += line;
  std::snprintf(line, sizeof line,
                "  shards: %zu valid, %zu degraded, %zu invalid\n",
                report.valid_count, report.degraded_count,
                report.invalid_count);
  out += line;
  std::snprintf(line, sizeof line,
                "  queries: offered %zu, issued %zu, completed %zu, "
                "shed %zu, rejected %zu, timed out %zu, dropped %zu\n",
                report.offered, report.issued, report.completed, report.shed,
                report.rejected, report.timed_out, report.dropped);
  out += line;
  out += "  latency p50/p90/p99 ms: " + Fmt("%.3f", report.p50_ms) + " / " +
         Fmt("%.3f", report.p90_ms) + " / " + Fmt("%.3f", report.p99_ms) +
         "\n";
  // Deliberately omits this run's build count: replayed shards build
  // nothing, and the text must stay byte-identical across resume.
  std::snprintf(line, sizeof line,
                "  prepared models: %zu distinct configs shared across "
                "%zu shards\n",
                report.distinct_configs, report.shard_count);
  out += line;
  if (report.breaker_trips > 0) {
    std::snprintf(line, sizeof line, "  breaker trips: %zu\n",
                  report.breaker_trips);
    out += line;
  }
  // resumed_shards is likewise run-local (how this process got the
  // results, not what they are) and stays out of the text.

  out += "\n  shard  state           slo  qps        p99_ms   issued  shed  "
         "config\n";
  for (const ShardResult& s : report.shards) {
    const double p99_ms = s.p99_latency_s * 1e3;
    std::snprintf(line, sizeof line,
                  "  %-6zu %-15s %-4s %-10s %-8s %-7zu %-5zu %s\n",
                  s.shard_id, std::string(ToString(s.state)).c_str(),
                  s.slo_met ? "yes" : "no",
                  Fmt("%.3f", s.result.throughput_sps).c_str(),
                  Fmt("%.3f", p99_ms).c_str(), s.result.issued_count,
                  s.result.shed_count, s.config_key.c_str());
    out += line;
    if (s.accuracy > 0.0) {
      std::snprintf(line, sizeof line,
                    "         accuracy %s (%s of fp32 %s) %s\n",
                    Fmt("%.4f", s.accuracy).c_str(),
                    Fmt("%.4f", s.ratio_to_fp32).c_str(),
                    Fmt("%.4f", s.fp32_reference).c_str(),
                    s.quality_passed ? "pass" : "FAIL");
      out += line;
    }
  }
  return out;
}

}  // namespace mlpm::fleet
