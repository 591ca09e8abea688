#include "core/logging.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <system_error>
#include <utility>

#include "common/check.h"

namespace mlpm::loadgen {
namespace {

constexpr std::string_view kHeader = "mlpm_loadgen_log v1";
constexpr std::string_view kFieldTag = "field";

// One table serves the writer (indexed by kind) and the reader (scanned by
// tag), so the two sides cannot disagree on a spelling.
struct EventTag {
  LogEventKind kind;
  std::string_view tag;
};
constexpr std::array<EventTag, 4> kEventTags = {{
    {LogEventKind::kQueryIssued, "issue"},
    {LogEventKind::kQueryCompleted, "complete"},
    {LogEventKind::kQueryShed, "shed"},
    {LogEventKind::kQueryRejected, "rejected"},
}};
static_assert(std::ranges::all_of(kEventTags, [](const EventTag& t) {
  return kEventTags[static_cast<std::size_t>(t.kind)].kind == t.kind;
}));

constexpr int kTimestampDecimals = 9;
constexpr std::uint64_t kNanosPerSecond = 1'000'000'000;
// One event line: the longest tag, a space, a 20-digit id, a space, any
// double in fixed notation (sign, up to 309 integer digits, a point and 9
// decimals) and the newline.
constexpr std::size_t kMaxEventLineBytes =
    8 + 1 + 20 + 1 + std::numeric_limits<double>::max_exponent10 + 12 + 1;
// A typical event line ("complete 12345 61.234567890\n") is under 32 bytes;
// longer ones just grow Serialize()'s string.
constexpr std::size_t kTypicalEventBytes = 32;

// Writes `v` exactly as printf("%.9f") does: from its whole nanoseconds
// where TimestampNanoseconds gives them, else through std::to_chars, which
// is exact but several times slower.
char* WriteTimestamp(char* p, char* last, double v) {
  const std::optional<std::uint64_t> n = TimestampNanoseconds(v);
  if (!n) {
    const auto r = std::to_chars(p, last, v, std::chars_format::fixed,
                                 kTimestampDecimals);
    Ensures(r.ec == std::errc{}, "log timestamp does not fit its buffer");
    return r.ptr;
  }
  p = std::to_chars(p, last, *n / kNanosPerSecond).ptr;
  *p++ = '.';
  std::uint64_t frac = *n % kNanosPerSecond;
  for (int i = kTimestampDecimals; i > 0; --i, frac /= 10)
    p[i - 1] = static_cast<char>('0' + frac % 10);
  return p + kTimestampDecimals;
}

std::string_view TagOf(LogEventKind kind) {
  return kEventTags[static_cast<std::size_t>(kind)].tag;
}

const EventTag* FindEventTag(std::string_view tag) {
  for (const EventTag& t : kEventTags)
    if (t.tag == tag) return &t;
  return nullptr;
}

// Removes and returns the next line of `text`, without its '\n'.
std::string_view TakeLine(std::string_view& text) {
  const std::size_t eol = std::min(text.find('\n'), text.size());
  const std::string_view line = text.substr(0, eol);
  text.remove_prefix(std::min(eol + 1, text.size()));
  return line;
}

// Matches `<u64> <fixed>` in full: no sign or padding on the id, exactly
// one separating space, a finite fixed-notation timestamp and no trailing
// bytes.
bool ParseEventBody(std::string_view body, std::uint64_t& id, double& t) {
  const char* const end = body.data() + body.size();
  const auto [id_end, id_ec] = std::from_chars(body.data(), end, id);
  if (id_ec != std::errc{} || id_end == end || *id_end != ' ') return false;
  const auto [t_end, t_ec] =
      std::from_chars(id_end + 1, end, t, std::chars_format::fixed);
  return t_ec == std::errc{} && t_end == end && std::isfinite(t);
}

}  // namespace

// Non-negative values below 2^33 s (every timestamp a run produces) have
// an exact integer path: t = m * 2^-s with s >= 20, so t * 1e9 rounded half
// to even is (m * 1e9) >> s, rounded on the shifted-out bits, in 128-bit
// arithmetic.
std::optional<std::uint64_t> TimestampNanoseconds(double t) {
  if (std::signbit(t) || !(t < 0x1p33)) return std::nullopt;
  const auto bits = std::bit_cast<std::uint64_t>(t);
  const auto biased = static_cast<int>(bits >> 52);
  const std::uint64_t m =
      (bits & ((std::uint64_t{1} << 52) - 1)) |
      (biased == 0 ? 0 : std::uint64_t{1} << 52);
  const int shift = 1075 - std::max(biased, 1);
  if (shift >= 84) return 0;  // m * 1e9 < 2^83: a shift past 83 rounds to 0
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(m) * kNanosPerSecond;
  const unsigned __int128 q = scaled >> shift;
  const unsigned __int128 rem = scaled - (q << shift);
  const unsigned __int128 half = static_cast<unsigned __int128>(1)
                                 << (shift - 1);
  return static_cast<std::uint64_t>(q) +
         ((rem > half || (rem == half && (q & 1) != 0)) ? 1 : 0);
}

void TestLog::SetField(const std::string& key, std::string value) {
  Expects(!key.empty() && key.find(' ') == std::string::npos &&
              key.find('\n') == std::string::npos,
          "log field keys must be non-empty and contain no whitespace");
  Expects(value.find('\n') == std::string::npos,
          "log field values must be single-line");
  fields_[key] = std::move(value);
}

const std::string* TestLog::FieldOrNull(const std::string& key) const {
  const auto it = fields_.find(key);
  return it == fields_.end() ? nullptr : &it->second;
}

void TestLog::Record(LogEventKind kind, std::uint64_t query_id, Seconds t) {
  events_.push_back(LogEvent{kind, query_id, t});
}

std::string TestLog::Serialize() const {
  std::string out(kHeader);
  out.push_back('\n');
  for (const auto& [k, v] : fields_)
    out.append(kFieldTag).append(" ").append(k).append(" ").append(v).push_back(
        '\n');
  // Event lines are written in place: the string is sized for typical
  // lines, doubled whenever the longest line would not fit, and cut to the
  // bytes written at the end.
  std::size_t used = out.size();
  out.resize(used + events_.size() * kTypicalEventBytes + kMaxEventLineBytes);
  for (const LogEvent& e : events_) {
    if (out.size() - used < kMaxEventLineBytes) out.resize(2 * out.size());
    char* p = out.data() + used;
    char* const last = p + kMaxEventLineBytes - 1;  // room for the newline
    const std::string_view tag = TagOf(e.kind);
    p = std::copy(tag.begin(), tag.end(), p);
    *p++ = ' ';
    p = std::to_chars(p, last, e.query_id).ptr;
    *p++ = ' ';
    p = WriteTimestamp(p, last, e.timestamp.count());
    *p++ = '\n';
    used = static_cast<std::size_t>(p - out.data());
  }
  out.resize(used);
  return out;
}

TestLog TestLog::Parse(std::string_view text) {
  Expects(!text.empty(), "empty log");
  if (const std::string_view header = TakeLine(text); header != kHeader)
    Expects(false,
            [&] { return "unknown log format: " + std::string(header); });
  TestLog log;
  // At most one event per line: the reservation is bounded by the input.
  log.events_.reserve(
      static_cast<std::size_t>(std::ranges::count(text, '\n')) + 1);
  while (!text.empty()) {
    const std::string_view line = TakeLine(text);
    if (line.empty()) continue;

    const std::size_t sp = line.find(' ');
    const std::string_view tag = line.substr(0, sp);
    const std::string_view body =
        sp == std::string_view::npos ? std::string_view{} : line.substr(sp + 1);
    if (const EventTag* event = FindEventTag(tag); event != nullptr) {
      std::uint64_t id = 0;
      double t = 0.0;
      if (!ParseEventBody(body, id, t)) [[unlikely]]
        Expects(false,
                [&] { return "malformed log event: " + std::string(line); });
      log.events_.push_back(LogEvent{event->kind, id, Seconds{t}});
    } else if (tag == kFieldTag) {
      // `field <key> <value>`: the key is non-empty and space-free, the
      // value is the rest of the line verbatim (possibly empty).
      const std::size_t key_end = body.find(' ');
      if (key_end == 0 || key_end == std::string_view::npos) [[unlikely]]
        Expects(false,
                [&] { return "malformed log field: " + std::string(line); });
      log.fields_.insert_or_assign(std::string(body.substr(0, key_end)),
                                   std::string(body.substr(key_end + 1)));
    } else {
      Expects(false,
              [&] { return "unknown log line tag: " + std::string(tag); });
    }
  }
  return log;
}

}  // namespace mlpm::loadgen
