#include "harness/export.h"

#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace mlpm::harness {
namespace {

using R = loadgen::TestResult;
using S = SubmissionResult;
using T = TaskRunResult;

// CSV-quote a field if it contains a comma, quote or line break (RFC 4180:
// fields containing CR or LF must be enclosed in double quotes too, or a
// multi-line chipset/framework name silently splits one record into two).
std::string Quote(std::string_view v) {
  if (v.find_first_of(",\"\n\r") == std::string_view::npos)
    return std::string(v);
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

// One cell: bools as true/false, text quoted as needed, numbers at the
// stream's precision (6 significant digits), an absent figure empty.
template <class V>
void Write(std::ostream& os, const V& v) {
  if constexpr (std::is_same_v<V, bool>) os << (v ? "true" : "false");
  else if constexpr (std::is_convertible_v<V, std::string_view>) os << Quote(v);
  else if constexpr (!std::is_same_v<V, std::optional<double>>) os << v;
  else if (v) os << *v;
}

// A figure of one performance test scaled to the column's unit; absent
// when the test did not run.
std::optional<double> Figure(const std::optional<R>& test, double R::*m,
                             double scale = 1.0) {
  if (!test) return std::nullopt;
  return (*test).*m * scale;
}

struct Column {
  std::string_view header;
  void (*cell)(std::ostream& os, const S& s, const T& t);
};

// A column holding task member F, or F(submission, task).
template <auto F>
constexpr Column Col(std::string_view header) {
  return {header, [](std::ostream& os, const S& s, const T& t) {
            if constexpr (std::is_member_object_pointer_v<decltype(F)>)
              Write(os, t.*F);
            else
              Write(os, F(s, t));
          }};
}

// The documented column order; changing it breaks downstream consumers.
constexpr Column kColumns[] = {
    Col<[](auto& s, auto&) { return s.chipset_name; }>("chipset"),
    Col<[](auto& s, auto&) { return ToString(s.version); }>("version"),
    Col<[](auto&, auto& t) { return t.entry.id; }>("task"),
    Col<[](auto&, auto& t) { return t.entry.model_name; }>("model"),
    Col<[](auto&, auto& t) { return ToString(t.numerics); }>("numerics"),
    Col<&T::framework_name>("framework"),
    Col<&T::accelerator_label>("accelerator"),
    Col<&T::accuracy>("accuracy"),
    Col<&T::fp32_reference>("fp32_reference"),
    Col<&T::ratio_to_fp32>("ratio_to_fp32"),
    Col<&T::quality_passed>("quality_passed"),
    Col<[](auto&, auto& t) {
      return Figure(t.single_stream, &R::percentile_latency_s, 1e3);
    }>("p90_latency_ms"),
    Col<[](auto&, auto& t) {
      return Figure(t.single_stream, &R::mean_latency_s, 1e3);
    }>("mean_latency_ms"),
    Col<[](auto&, auto& t) { return Figure(t.offline, &R::throughput_sps); }>(
        "offline_fps"),
    Col<[](auto&, auto& t) { return t.energy_per_inference_j * 1e3; }>(
        "energy_mj_per_inference"),
    Col<[](auto&, auto& t) { return ToString(t.status); }>("status"),
    Col<&T::fault_count>("fault_count"),
    Col<&T::degradation_count>("degradation_count"),
    Col<[](auto&, auto& t) { return SumOverTests(t, &R::dropped_count); }>(
        "dropped"),
    Col<[](auto&, auto& t) { return SumOverTests(t, &R::timed_out_count); }>(
        "timed_out"),
    Col<&T::lint_error_count>("lint_errors"),
    Col<&T::lint_warning_count>("lint_warnings"),
    Col<&T::peak_arena_bytes>("peak_arena_bytes"),
    Col<&T::naive_activation_bytes>("naive_activation_bytes"),
    Col<&T::shed_count>("shed"),
    Col<&T::rejected_count>("rejected"),
    Col<&T::breaker_trips>("breaker_trips"),
    Col<&T::kernel_isa>("kernel_isa"),
    Col<&T::tiling_applied>("tiling_applied"),
    Col<&T::tile_segments>("tile_segments"),
    Col<&T::tile_rows>("tile_rows"),
    Col<&T::tile_slab_bytes>("tile_slab_bytes"),
};

}  // namespace

std::string ToCsv(const SubmissionResult& result, bool include_header) {
  std::ostringstream os;
  if (include_header) {
    for (const Column& c : kColumns) {
      if (&c != &kColumns[0]) os << ',';
      os << c.header;
    }
    os << '\n';
  }
  os.precision(6);
  for (const TaskRunResult& t : result.tasks) {
    for (const Column& c : kColumns) {
      if (&c != &kColumns[0]) os << ',';
      c.cell(os, result, t);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace mlpm::harness
