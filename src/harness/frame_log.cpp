#include "harness/frame_log.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if __has_include(<unistd.h>)
#include <unistd.h>
#define MLPM_JOURNAL_HAS_FSYNC 1
#else
#define MLPM_JOURNAL_HAS_FSYNC 0
#endif

namespace mlpm::harness {

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
constexpr std::string_view kHeader = "mlpm_journal v1";
}  // namespace

namespace wire {

std::string HexDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t ParseU64(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  Expects(errno == 0 && end != text.c_str() && *end == '\0',
          [&] { return "journal: bad integer '" + text + "'"; });
  return v;
}

double ParseDouble(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  Expects(end != text.c_str() && *end == '\0',
          [&] { return "journal: bad double '" + text + "'"; });
  return v;
}

bool PayloadParser::Next(Field& f) {
  if (pos_ >= payload_.size()) return false;
  const std::string line = TakeLine();
  std::istringstream ls(line);
  std::string tag;
  ls >> tag;
  Expects(tag.size() == 1,
          [&] { return "journal: bad entry tag '" + tag + "'"; });
  f = Field{};
  f.tag = tag[0];
  ls >> f.key;
  Expects(!f.key.empty(), "journal: entry without key");
  switch (f.tag) {
    case 'u':
    case 'd':
    case 'b': {
      ls >> f.scalar;
      Expects(!ls.fail(),
              [&] { return "journal: missing value for key " + f.key; });
      break;
    }
    case 's': {
      std::string len_text;
      ls >> len_text;
      f.bytes = TakeBlock(ParseU64(len_text));
      break;
    }
    case 'D':
    case 'U': {
      // Every listed value takes at least two bytes of the line.
      const std::uint64_t n = TakeCount(ls, line.size() / 2);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string v;
        ls >> v;
        Expects(!ls.fail(), [&] { return "journal: short list for " + f.key; });
        if (f.tag == 'D') f.doubles.push_back(ParseDouble(v));
        else f.uints.push_back(ParseU64(v));
      }
      break;
    }
    case 'L': {
      // Every element takes at least three bytes: "<len>\n<bytes>\n".
      const std::uint64_t n = TakeCount(ls, (payload_.size() - pos_) / 3);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::string len_line = TakeLine();
        f.strings.push_back(TakeBlock(ParseU64(len_line)));
      }
      break;
    }
    default:
      Expects(false, [&] {
        return "journal: unknown entry tag '" + std::string(1, f.tag) + "'";
      });
  }
  return true;
}

std::string PayloadParser::TakeLine() {
  const std::size_t nl = payload_.find('\n', pos_);
  Expects(nl != std::string::npos, "journal: unterminated entry line");
  std::string line = payload_.substr(pos_, nl - pos_);
  pos_ = nl + 1;
  return line;
}

std::uint64_t PayloadParser::TakeCount(std::istream& line,
                                       std::uint64_t limit) {
  std::string n_text;
  line >> n_text;
  const std::uint64_t n = ParseU64(n_text);
  Expects(n <= limit, [&] {
    return "journal: list of " + n_text + " entries runs past the payload";
  });
  return n;
}

std::string PayloadParser::TakeBlock(std::uint64_t len) {
  // len + 1 <= bytes left, written so a hostile len cannot overflow.
  Expects(len < payload_.size() - pos_,
          "journal: block runs past the payload");
  std::string bytes = payload_.substr(pos_, len);
  pos_ += len;
  Expects(payload_[pos_] == '\n', "journal: block missing terminator");
  ++pos_;
  return bytes;
}

}  // namespace wire

// ---- journal loader ------------------------------------------------------

namespace {

// One frame header line: "<kind> <len> <hash-hex>".  Returns false when
// the bytes at `pos` cannot possibly be an intact frame.  The kind is any
// short lowercase word (where each kind may stand is checked by the
// scan), but arbitrary binary garbage must not parse as a header.
struct FrameHeader {
  std::string kind;
  std::uint64_t len = 0;
  std::uint64_t hash = 0;
  std::size_t payload_pos = 0;  // offset of the first payload byte
};

bool IsFrameKind(const std::string& kind) {
  if (kind.empty() || kind.size() > 16) return false;
  for (const char c : kind)
    if ((c < 'a' || c > 'z') && c != '_') return false;
  return true;
}

bool ParseFrameHeader(const std::string& data, std::size_t pos,
                      FrameHeader& out, std::string& why) {
  const std::size_t nl = data.find('\n', pos);
  if (nl == std::string::npos) {
    why = "unterminated frame header";
    return false;
  }
  std::istringstream ls(data.substr(pos, nl - pos));
  std::string kind, len_text, hash_text;
  ls >> kind >> len_text >> hash_text;
  if (ls.fail() || !IsFrameKind(kind)) {
    why = "malformed frame header";
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t len = std::strtoull(len_text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') {
    why = "bad frame length";
    return false;
  }
  errno = 0;
  const std::uint64_t hash = std::strtoull(hash_text.c_str(), &end, 16);
  if (errno != 0 || *end != '\0') {
    why = "bad frame checksum";
    return false;
  }
  out.kind = kind;
  out.len = len;
  out.hash = hash;
  out.payload_pos = nl + 1;
  return true;
}

}  // namespace

JournalScan ScanJournal(
    const std::string& path, std::string_view record_kind,
    const std::function<void(const std::string& payload, std::size_t index)>&
        take) {
  JournalScan scan;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    scan.notes.push_back("cannot open journal: " + path);
    return scan;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  // Header line.
  const std::size_t header_end = data.find('\n');
  if (header_end == std::string::npos ||
      data.substr(0, header_end) != kHeader) {
    scan.notes.push_back("not a journal: missing '" + std::string(kHeader) +
                         "' header");
    scan.torn_tail = !data.empty();
    scan.torn_bytes = data.size();
    return scan;
  }

  std::size_t pos = header_end + 1;
  for (std::size_t index = 0; pos < data.size(); ++index) {
    FrameHeader frame;
    std::string why;
    if (!ParseFrameHeader(data, pos, frame, why)) {
      scan.notes.push_back("torn tail at byte " + std::to_string(pos) + ": " +
                           why);
      break;
    }
    // Payload must be fully present, terminated, and checksum-clean.
    if (frame.payload_pos + frame.len + 1 > data.size()) {
      scan.notes.push_back("torn tail at byte " + std::to_string(pos) +
                           ": frame truncated mid-payload");
      break;
    }
    if (data[frame.payload_pos + frame.len] != '\n') {
      scan.notes.push_back("torn tail at byte " + std::to_string(pos) +
                           ": frame payload unterminated");
      break;
    }
    const std::string payload = data.substr(frame.payload_pos, frame.len);
    if (Fnv1a64(payload) != frame.hash) {
      scan.notes.push_back("torn tail at byte " + std::to_string(pos) +
                           ": checksum mismatch on '" + frame.kind +
                           "' frame");
      break;
    }
    // An intact frame that is misplaced or does not decode is cut too.
    try {
      const std::string_view expected = index == 0 ? "meta" : record_kind;
      Expects(frame.kind == expected, [&] {
        return "expected a '" + std::string(expected) + "' frame";
      });
      take(payload, index);
    } catch (const std::exception& e) {
      scan.notes.push_back("undecodable '" + frame.kind + "' frame at byte " +
                           std::to_string(pos) + ": " + e.what());
      break;
    }
    pos = frame.payload_pos + frame.len + 1;
  }

  scan.valid_prefix_bytes = pos;
  scan.torn_bytes = data.size() - pos;
  scan.torn_tail = scan.torn_bytes > 0;
  return scan;
}

// ---- writer ------------------------------------------------------------

FrameLogWriter FrameLogWriter::Create(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "wb"));
  Expects(file != nullptr, [&] { return "cannot create journal: " + path; });
  FrameLogWriter writer(path, std::move(file));
  const std::string header = std::string(kHeader) + "\n";
  Expects(std::fwrite(header.data(), 1, header.size(), writer.file_.get()) ==
              header.size(),
          [&] { return "journal header write failed: " + path; });
  return writer;
}

FrameLogWriter FrameLogWriter::OpenAt(const std::string& path,
                                      std::size_t valid_prefix_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_prefix_bytes, ec);
  Expects(!ec, [&] {
    return "cannot truncate journal: " + path + ": " + ec.message();
  });
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "ab"));
  Expects(file != nullptr, [&] { return "cannot append to journal: " + path; });
  return FrameLogWriter(path, std::move(file));
}

void FrameLogWriter::AppendFrame(std::string_view kind,
                                 const std::string& payload) {
  char head[64];
  std::snprintf(head, sizeof head, "%.*s %zu %016llx\n",
                static_cast<int>(kind.size()), kind.data(), payload.size(),
                static_cast<unsigned long long>(Fnv1a64(payload)));
  std::string frame = head;
  frame += payload;
  frame += '\n';
  Expects(std::fwrite(frame.data(), 1, frame.size(), file_.get()) ==
              frame.size(),
          [&] { return "journal write failed: " + path_; });

  // Durability point: the record is not "appended" until it has hit the
  // disk.  fsync latency is the price of crash safety — surface it.
  const auto t0 = std::chrono::steady_clock::now();
  Expects(std::fflush(file_.get()) == 0,
          [&] { return "journal flush failed: " + path_; });
#if MLPM_JOURNAL_HAS_FSYNC
  Expects(::fsync(::fileno(file_.get())) == 0,
          [&] { return "journal fsync failed: " + path_; });
#endif
  const double fsync_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Increment("journal.records");
  metrics.MaxGauge("journal.fsync_seconds_max", fsync_s);
  if (obs::TraceRecorder& rec = obs::TraceRecorder::Global(); rec.enabled())
    rec.AddInstant(
        obs::Domain::kHost, "journal", "journal:append", rec.NowUs(),
        {obs::Arg("bytes", static_cast<std::uint64_t>(frame.size())),
         obs::Arg("fsync_ms", fsync_s * 1e3)},
        "journal");
}

}  // namespace mlpm::harness
