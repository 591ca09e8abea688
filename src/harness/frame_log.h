// Generic crash-safe frame log: the storage layer under the submission
// journal (DESIGN.md §12) and the fleet journal (§16).  A frame log is an
// append-only text file of checksummed frames,
//
//   mlpm_journal v1\n
//   <kind> <len> <fnv64-hex>\n
//   <len bytes of payload>\n
//   ...
//
// where `kind` names the frame type (the *interpretation* of kinds — which
// one must come first, what a payload decodes to — belongs to the caller).
// `len` counts the payload bytes excluding the trailing newline and the
// checksum is FNV-1a 64 over exactly those bytes.  Appends are flushed and
// fsync'd before returning; the loader never throws on damage, it recovers
// the longest physically-valid prefix and describes what it cut.
//
// The `wire` namespace holds the payload syntax: line-oriented
// tag/key/value entries with length-prefixed byte blocks (arbitrary bytes
// round-trip) and hexfloat doubles (bit-exact round trip).  Records are
// written and read through their field tables (harness/record_schema.h).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mlpm::harness {

// FNV-1a 64-bit over a byte string; the frame checksum.
[[nodiscard]] std::uint64_t Fnv1a64(std::string_view bytes);

namespace wire {

// ---- payload encoding --------------------------------------------------
//
// Entries are one of:
//   u <key> <uint>\n
//   d <key> <hexfloat>\n            (bit-exact double round trip)
//   b <key> 0|1\n
//   s <key> <len>\n<len bytes>\n    (arbitrary bytes, incl. newlines)
//   D <key> <n> <hexfloat>...\n
//   U <key> <n> <uint>...\n
//   L <key> <n>\n  then n x  <len>\n<len bytes>\n
//
// schema::Put (harness/record_schema.h) writes them.

// C hexfloat text of a double; ParseDouble reads it back bit-exactly.
[[nodiscard]] std::string HexDouble(double v);

// ---- payload decoding --------------------------------------------------

struct Field {
  char tag = '?';
  std::string key;
  std::string scalar;                // u/d/b value text
  std::string bytes;                 // s payload
  std::vector<double> doubles;       // D
  std::vector<std::uint64_t> uints;  // U
  std::vector<std::string> strings;  // L
};

// Strict scalar parsers; throw CheckError on anything but a full match.
[[nodiscard]] std::uint64_t ParseU64(const std::string& text);
[[nodiscard]] double ParseDouble(const std::string& text);

// Walks a payload, yielding entries.  Throws CheckError on any structural
// damage, including counts and lengths larger than the bytes left — the
// caller decides whether that aborts (writer-side) or just truncates the
// valid prefix (loader-side).
class PayloadParser {
 public:
  explicit PayloadParser(const std::string& payload) : payload_(payload) {}

  [[nodiscard]] bool Next(Field& f);

 private:
  [[nodiscard]] std::string TakeLine();
  // The element count of a D/U/L entry, at most `limit` (the most the
  // remaining bytes can hold), so a hostile count never reaches reserve().
  [[nodiscard]] std::uint64_t TakeCount(std::istream& line,
                                        std::uint64_t limit);
  [[nodiscard]] std::string TakeBlock(std::uint64_t len);

  const std::string& payload_;
  std::size_t pos_ = 0;
};

}  // namespace wire

// ---- frame-level loader ------------------------------------------------

struct RawFrame {
  std::string kind;
  std::string payload;
  std::size_t offset = 0;  // byte offset of the frame header line
  std::size_t end = 0;     // one past the payload terminator
};

struct FrameLogLoad {
  bool header_valid = false;  // file starts with the mlpm_journal header
  std::vector<RawFrame> frames;
  std::size_t file_size = 0;
  // Bytes past the last intact frame (a torn append, or corruption).
  bool torn_tail = false;
  std::size_t torn_bytes = 0;
  // Offset where the physically-valid prefix ends.
  std::size_t valid_prefix_bytes = 0;
  // Human-readable findings (torn record, checksum mismatch, ...).
  std::vector<std::string> notes;
};

// Reads every physically intact frame (header parses, payload present and
// terminated, checksum matches).  Never throws on damaged or missing files.
[[nodiscard]] FrameLogLoad LoadFrameLog(const std::string& path);

// Passes the intact frames in order to `take(frame, index)`.  The first one
// it throws on (misplaced, or checksum-clean but undecodable) is cut like a
// torn tail; its note replaces the notes on bytes past the cut.
void InterpretFrames(
    FrameLogLoad& load,
    const std::function<void(const RawFrame& frame, std::size_t index)>&
        take);

// Append-side handle.  Create() starts a fresh log (truncating whatever was
// at `path` and writing the header); OpenAt() re-opens an existing one for
// append after rewriting its first `valid_prefix_bytes` bytes (cutting any
// torn tail so the next append lands on a frame boundary).  AppendFrame is
// flushed and fsync'd before returning, and is NOT thread-safe — callers
// appending from several threads serialize externally.
class FrameLogWriter {
 public:
  [[nodiscard]] static FrameLogWriter Create(const std::string& path);
  [[nodiscard]] static FrameLogWriter OpenAt(const std::string& path,
                                             std::size_t valid_prefix_bytes);

  void AppendFrame(std::string_view kind, const std::string& payload);
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };

  FrameLogWriter(std::string path,
                 std::unique_ptr<std::FILE, FileCloser> file)
      : path_(std::move(path)), file_(std::move(file)) {}

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
};

}  // namespace mlpm::harness
