#include "analysis/diagnostics.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/check.h"

namespace mlpm::analysis {
namespace {

// Sorted by code.  Codes are append-only across releases: a code is never
// renumbered or reused, so downstream tooling can key on them.
constexpr std::array<CodeInfo, 30> kCatalogue{{
    {"GRAPH001", Severity::kWarning,
     "dead tensor: produced but never consumed nor marked as output"},
    {"GRAPH002", Severity::kWarning,
     "unreachable node: no dataflow path to any graph output"},
    {"GRAPH003", Severity::kError,
     "aliasing write: tensor written twice, or node output aliases an "
     "input / graph input / weight"},
    {"GRAPH004", Severity::kError, "dataflow cycle between nodes"},
    {"GRAPH005", Severity::kError,
     "structural corruption: out-of-range tensor id or wrong tensor kind"},
    {"QUANT001", Severity::kError,
     "illegal quantization bit width (the run rules freeze the 8-bit grid)"},
    {"QUANT002", Severity::kError,
     "activation range yields an illegal scale or zero-point"},
    {"QUANT003", Severity::kError,
     "invalid per-channel axis (weights are laid out [out_channels, ...])"},
    {"QUANT004", Severity::kError,
     "illegal u8/s8 mixing between weights and activations"},
    {"QUANT005", Severity::kError,
     "QAT/PTQ rule conflict: QAT weights are mutually agreed for INT8 "
     "submissions only"},
    {"QUANT006", Severity::kError,
     "calibration sample outside the approved calibration set"},
    {"QUANT007", Severity::kWarning,
     "stale activation range: refers to a missing or weight tensor"},
    {"QUANT008", Severity::kWarning,
     "activation range cannot represent zero exactly"},
    {"RUN001", Severity::kError, "invalid worker thread count"},
    {"RUN002", Severity::kWarning,
     "cooldown outside the run rules' 0-5 minute window"},
    {"RUN003", Severity::kError, "fault probability outside [0, 1]"},
    {"RUN004", Severity::kError, "negative performance-retry budget"},
    {"RUN005", Severity::kError,
     "scratch buffer shared across worker threads (nondeterministic reuse)"},
    {"RUN006", Severity::kWarning,
     "ad-hoc (non-pool) threading: partitioning is not deterministic"},
    {"RUN007", Severity::kError,
     "kernel ISA is unknown or unavailable on this host"},
    {"RUN008", Severity::kError,
     "tile configuration is invalid or has no effect on this graph"},
    {"SHAPE001", Severity::kError,
     "node output shape disagrees with shape inference"},
    {"SHAPE002", Severity::kError,
     "wrong input/weight arity or attribute record for the op"},
    {"SHAPE003", Severity::kError,
     "operand violates the op's rank/shape/axis constraints"},
    {"SHAPE004", Severity::kError,
     "weight tensor shape disagrees with the op's attributes"},
    {"SOC001", Severity::kError,
     "execution policy references an engine the chipset does not have"},
    {"SOC002", Severity::kError,
     "mapped engine does not support the submission numerics"},
    {"SOC003", Severity::kError,
     "op class disabled on its mapped engine (CPU-fallback hazard)"},
    {"SOC004", Severity::kWarning,
     "policy declares CPU-fallback op-coverage holes"},
    {"SOC005", Severity::kError, "malformed execution policy"},
}};

static_assert(kCatalogue.size() == 30);

}  // namespace

std::span<const CodeInfo> DiagnosticCatalogue() { return kCatalogue; }

const CodeInfo* FindCode(std::string_view code) {
  const auto it = std::lower_bound(
      kCatalogue.begin(), kCatalogue.end(), code,
      [](const CodeInfo& info, std::string_view c) { return info.code < c; });
  if (it == kCatalogue.end() || it->code != code) return nullptr;
  return &*it;
}

SourceRef GraphSource(std::string name) {
  return SourceRef{SourceKind::kGraph, std::move(name), -1};
}
SourceRef NodeSource(std::string name, std::int32_t index) {
  return SourceRef{SourceKind::kNode, std::move(name), index};
}
SourceRef TensorSource(std::string name, std::int32_t id) {
  return SourceRef{SourceKind::kTensor, std::move(name), id};
}
SourceRef ConfigSource(std::string key) {
  return SourceRef{SourceKind::kConfigKey, std::move(key), -1};
}

void DiagnosticEngine::Report(std::string_view code, SourceRef source,
                              std::string message) {
  const CodeInfo* info = FindCode(code);
  Expects(info != nullptr,
          [&] { return "unregistered diagnostic code: " + std::string(code); });
  Report(code, info->default_severity, std::move(source), std::move(message));
}

void DiagnosticEngine::Report(std::string_view code, Severity severity,
                              SourceRef source, std::string message) {
  Diagnostic d{std::string(code), severity, std::move(source),
               std::move(message)};
  // Keep the list ordered by (code, source id), stable for ties: pass
  // output then never depends on pass-internal iteration order, so golden
  // JSON tests cannot flake.
  const auto pos = std::upper_bound(
      diagnostics_.begin(), diagnostics_.end(), d,
      [](const Diagnostic& a, const Diagnostic& b) {
        if (a.code != b.code) return a.code < b.code;
        return a.source.id < b.source.id;
      });
  diagnostics_.insert(pos, std::move(d));
}

Severity DiagnosticEngine::MaxSeverity() const {
  Severity max = Severity::kNote;
  for (const Diagnostic& d : diagnostics_)
    if (d.severity > max) max = d.severity;
  return max;
}

bool DiagnosticEngine::SeenCode(std::string_view code) const {
  return std::any_of(diagnostics_.begin(), diagnostics_.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

std::size_t DiagnosticEngine::Count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [&](const Diagnostic& d) { return d.severity == s; }));
}

std::string DiagnosticEngine::ToText() const {
  if (diagnostics_.empty()) return {};
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics_) {
    os << ToString(d.severity) << ' ' << d.code << ' '
       << ToString(d.source.kind);
    if (!d.source.name.empty()) os << " '" << d.source.name << '\'';
    if (d.source.id >= 0) os << " (#" << d.source.id << ')';
    os << ": " << d.message << '\n';
  }
  os << error_count() << " error(s), " << warning_count() << " warning(s), "
     << note_count() << " note(s)\n";
  return os.str();
}

namespace {

void AppendJsonString(std::ostringstream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string DiagnosticEngine::ToJson() const {
  std::ostringstream os;
  os << "{\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    if (i) os << ',';
    os << "{\"code\":";
    AppendJsonString(os, d.code);
    os << ",\"severity\":";
    AppendJsonString(os, ToString(d.severity));
    os << ",\"source\":{\"kind\":";
    AppendJsonString(os, ToString(d.source.kind));
    os << ",\"name\":";
    AppendJsonString(os, d.source.name);
    os << ",\"id\":" << d.source.id;
    os << "},\"message\":";
    AppendJsonString(os, d.message);
    os << '}';
  }
  os << "],\"counts\":{\"error\":" << error_count()
     << ",\"warning\":" << warning_count() << ",\"note\":" << note_count()
     << "}}";
  return os.str();
}

}  // namespace mlpm::analysis
