// Generic crash-safe frame log and the journal built on it: the storage
// layer under the submission journal (DESIGN.md §12) and the fleet journal
// (§16).  A frame log is an append-only text file of checksummed frames,
//
//   mlpm_journal v1\n
//   <kind> <len> <fnv64-hex>\n
//   <len bytes of payload>\n
//   ...
//
// where `kind` names the frame type.  `len` counts the payload bytes
// excluding the trailing newline and the checksum is FNV-1a 64 over
// exactly those bytes.  Appends are flushed and fsync'd before returning;
// the loader never throws on damage, it recovers the longest valid prefix
// and describes what it cut.
//
// A journal is a frame log whose first frame is a `meta` frame (the
// identity of the run it belongs to) and whose later frames each hold one
// record of the caller's kind: `rec` for a submission's tasks, `shard` for
// a fleet's shards.  Payloads are schema::Encode of the meta and record
// types.
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
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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

// Append-side handle.  Create() starts a fresh log (truncating whatever was
// at `path` and writing the header); OpenAt() re-opens an existing one for
// append after cutting it to its first `valid_prefix_bytes` bytes (so a
// torn tail goes and the next append lands on a frame boundary).
// AppendFrame is flushed and fsync'd before returning, and is NOT
// thread-safe: JournalWriter serializes its appends.
class FrameLogWriter {
 public:
  [[nodiscard]] static FrameLogWriter Create(const std::string& path);
  [[nodiscard]] static FrameLogWriter OpenAt(const std::string& path,
                                             std::size_t valid_prefix_bytes);

  void AppendFrame(std::string_view kind, const std::string& payload);

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

// ---- journal -------------------------------------------------------------

namespace schema {
// The field-table codecs (defined in harness/record_schema.h, which every
// header declaring a journaled type includes).
template <class T>
[[nodiscard]] std::string Encode(const T& record);
template <class T>
[[nodiscard]] T Decode(const std::string& payload);
}  // namespace schema

// What reading a journal found besides its meta and records.
struct JournalScan {
  // Bytes past the intact prefix: a torn append, damage, or a frame that
  // is misplaced or does not decode.
  bool torn_tail = false;
  std::size_t torn_bytes = 0;
  // Offset where the intact prefix ends; a resuming writer cuts here.
  std::size_t valid_prefix_bytes = 0;
  // Human-readable findings (torn record, checksum mismatch, ...).
  std::vector<std::string> notes;
};

// Reads the journal at `path` and passes each intact frame's payload to
// `take(payload, index)`: index 0 is the `meta` frame, later ones are
// `record_kind` frames.  The first frame that is misplaced, or that `take`
// throws on, is cut like a torn tail.  Never throws on a damaged or
// missing file.
[[nodiscard]] JournalScan ScanJournal(
    const std::string& path, std::string_view record_kind,
    const std::function<void(const std::string& payload, std::size_t index)>&
        take);

template <class Meta, class Record>
struct JournalLoad : JournalScan {
  std::optional<Meta> meta;     // set when the header and meta are intact
  std::vector<Record> records;  // the intact records, in file order
};

template <class Meta, class Record>
[[nodiscard]] JournalLoad<Meta, Record> LoadJournal(
    const std::string& path, std::string_view record_kind) {
  JournalLoad<Meta, Record> load;
  static_cast<JournalScan&>(load) = ScanJournal(
      path, record_kind,
      [&load](const std::string& payload, std::size_t index) {
        if (index == 0) load.meta = schema::Decode<Meta>(payload);
        else load.records.push_back(schema::Decode<Record>(payload));
      });
  return load;
}

// Append side of a journal.  Append is thread-safe, and a record is on disk
// (flushed and fsync'd) when it returns.
template <class Record>
class JournalWriter {
 public:
  JournalWriter(FrameLogWriter log, std::string_view record_kind)
      : log_(std::move(log)), record_kind_(record_kind) {}

  void Append(const Record& record) {
    const std::string payload = schema::Encode(record);
    std::scoped_lock lock(mu_);
    log_.AppendFrame(record_kind_, payload);
  }

 private:
  std::mutex mu_;
  FrameLogWriter log_;
  std::string record_kind_;
};

template <class Record>
struct OpenedJournal {
  std::vector<Record> replay;  // intact records of the run, in file order
  std::unique_ptr<JournalWriter<Record>> writer;
};

// Opens the journal at `path` for the run `meta` identifies, reading the
// file at most once.  With `resume`, when the file's meta frame is intact
// and equal to `meta`, its intact records come back to replay and the
// writer appends after them, cutting any torn tail.  Otherwise (no file,
// damage in the meta frame, another run's journal, or no `resume`) the
// writer starts a fresh journal holding `meta`, truncating what was there.
template <class Record, class Meta>
[[nodiscard]] OpenedJournal<Record> OpenJournal(const std::string& path,
                                                const Meta& meta,
                                                std::string_view record_kind,
                                                bool resume) {
  if (resume) {
    JournalLoad<Meta, Record> prior =
        LoadJournal<Meta, Record>(path, record_kind);
    if (prior.meta == meta)
      return {std::move(prior.records),
              std::make_unique<JournalWriter<Record>>(
                  FrameLogWriter::OpenAt(path, prior.valid_prefix_bytes),
                  record_kind)};
  }
  FrameLogWriter log = FrameLogWriter::Create(path);
  log.AppendFrame("meta", schema::Encode(meta));
  return {{}, std::make_unique<JournalWriter<Record>>(std::move(log),
                                                      record_kind)};
}

}  // namespace mlpm::harness
