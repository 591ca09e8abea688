// Round-trip tests for the CSV exporter (harness/export.h): RFC 4180
// quoting of hostile fields and stable column order, read back through
// ParseCsv, the writer's inverse kept here as the oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/export.h"
#include "models/zoo.h"

namespace mlpm::harness {
namespace {

// RFC 4180 reader: records of fields, handling quoted fields with embedded
// commas, doubled quotes and line breaks (CRLF or LF).  The exact inverse of
// ToCsv — ParseCsv(ToCsv(r)) gives back every field byte-for-byte.  A
// trailing newline does not produce an empty record.
std::vector<std::vector<std::string>> ParseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // distinguishes "" (one empty field) from EOF
  const auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  const auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';  // doubled quote = literal quote
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;  // commas and line breaks are data inside quotes
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        break;
      case '\r':
        if (i + 1 < text.size() && text[i + 1] == '\n') ++i;
        end_record();
        break;
      case '\n':
        end_record();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  // Final record when the text does not end in a newline.
  if (field_started || !record.empty()) end_record();
  return records;
}

// The documented column order — any change to this list is a breaking
// change for downstream consumers and must be deliberate.
const std::vector<std::string> kColumns = {
    "chipset",        "version",
    "task",           "model",
    "numerics",       "framework",
    "accelerator",    "accuracy",
    "fp32_reference", "ratio_to_fp32",
    "quality_passed", "p90_latency_ms",
    "mean_latency_ms", "offline_fps",
    "energy_mj_per_inference", "status",
    "fault_count",    "degradation_count",
    "dropped",        "timed_out",
    "lint_errors",    "lint_warnings",
    "peak_arena_bytes", "naive_activation_bytes",
    "shed",           "rejected",
    "breaker_trips",  "kernel_isa",
    "tiling_applied", "tile_segments",
    "tile_rows",      "tile_slab_bytes"};

// A submission whose string fields exercise every character RFC 4180
// forces into quotes: commas, double quotes, LF, CR and CRLF.
SubmissionResult HostileResult() {
  SubmissionResult result;
  result.chipset_name = "Snap,dragon \"888\"\nrev\r\n2";
  result.version = models::SuiteVersion::kV1_0;

  TaskRunResult task;
  task.entry = models::SuiteFor(models::SuiteVersion::kV1_0).front();
  task.entry.model_name = "MobileNet,Edge\"TPU\"";
  task.framework_name = "TF,Lite \"nightly\"\r\nbuild";
  task.accelerator_label = "npu\r+ gpu";
  task.accuracy = 0.75;
  task.fp32_reference = 0.76;
  task.ratio_to_fp32 = 0.9868;
  task.quality_passed = true;

  loadgen::TestResult ss;
  ss.percentile_latency_s = 0.0123;
  ss.mean_latency_s = 0.0101;
  task.single_stream = ss;
  loadgen::TestResult off;
  off.throughput_sps = 512.5;
  task.offline = off;

  task.energy_per_inference_j = 0.0042;
  task.fault_count = 3;
  task.degradation_count = 1;
  task.lint_error_count = 0;
  task.lint_warning_count = 2;
  task.peak_arena_bytes = 1 << 20;
  task.naive_activation_bytes = 1 << 22;
  task.shed_count = 7;
  task.rejected_count = 4;
  task.breaker_trips = 2;
  task.kernel_isa = "avx2,\"simd\",\r\nfma";
  task.tiling_requested = true;
  task.tiling_applied = true;
  task.tile_segments = 19;
  task.tile_rows = -1;  // auto
  task.tile_slab_bytes = 465920;
  result.tasks.push_back(std::move(task));
  return result;
}

// The writer's quoting rule, restated independently for the round-trip
// re-serialization check.
std::string Quote(const std::string& v) {
  if (v.find_first_of(",\"\n\r") == std::string::npos) return v;
  std::string q = "\"";
  for (char c : v) {
    if (c == '"') q += '"';
    q += c;
  }
  q += '"';
  return q;
}

TEST(ExportCsv, HeaderHasStableColumnOrder) {
  const auto records = ParseCsv(ToCsv(HostileResult()));
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0], kColumns);
}

TEST(ExportCsv, HostileFieldsRoundTripByteForByte) {
  const SubmissionResult result = HostileResult();
  const auto records = ParseCsv(ToCsv(result));
  ASSERT_EQ(records.size(), 2u);  // header + one task row
  const std::vector<std::string>& row = records[1];
  ASSERT_EQ(row.size(), kColumns.size());
  EXPECT_EQ(row[0], result.chipset_name);
  EXPECT_EQ(row[2], result.tasks[0].entry.id);
  EXPECT_EQ(row[3], result.tasks[0].entry.model_name);
  EXPECT_EQ(row[5], result.tasks[0].framework_name);
  EXPECT_EQ(row[6], result.tasks[0].accelerator_label);
  EXPECT_EQ(row[10], "true");
  EXPECT_EQ(row[16], "3");   // fault_count
  EXPECT_EQ(row[17], "1");   // degradation_count
  EXPECT_EQ(row[24], "7");   // shed
  EXPECT_EQ(row[25], "4");   // rejected
  EXPECT_EQ(row[26], "2");   // breaker_trips
  EXPECT_EQ(row[27], result.tasks[0].kernel_isa);
  EXPECT_EQ(row[28], "true");    // tiling_applied
  EXPECT_EQ(row[29], "19");      // tile_segments
  EXPECT_EQ(row[30], "-1");      // tile_rows (auto)
  EXPECT_EQ(row[31], "465920");  // tile_slab_bytes
}

TEST(ExportCsv, EveryRowHasHeaderWidth) {
  // A field with an embedded newline must not split its record.
  const auto records = ParseCsv(ToCsv(HostileResult()));
  for (const auto& r : records) EXPECT_EQ(r.size(), kColumns.size());
}

TEST(ExportCsv, ReserializingParsedRecordsReproducesTheFile) {
  const std::string csv = ToCsv(HostileResult());
  std::string rebuilt;
  for (const auto& record : ParseCsv(csv)) {
    for (std::size_t i = 0; i < record.size(); ++i) {
      if (i != 0) rebuilt += ',';
      rebuilt += Quote(record[i]);
    }
    rebuilt += '\n';
  }
  EXPECT_EQ(rebuilt, csv);
}

// ---- ParseCsv unit cases ----

TEST(ParseCsv, DoubledQuotesBecomeLiteralQuotes) {
  const auto r = ParseCsv("\"a\"\"b\",c\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::vector<std::string>{"a\"b", "c"}));
}

TEST(ParseCsv, QuotedFieldsKeepCommasAndLineBreaks) {
  const auto r = ParseCsv("\"a,b\",\"c\nd\",\"e\r\nf\"\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::vector<std::string>{"a,b", "c\nd", "e\r\nf"}));
}

TEST(ParseCsv, CrlfAndLfRecordEndsBothWork) {
  const auto r = ParseCsv("a,b\r\nc,d\ne,f");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r[1], (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ(r[2], (std::vector<std::string>{"e", "f"}));
}

TEST(ParseCsv, TrailingNewlineProducesNoEmptyRecord) {
  EXPECT_EQ(ParseCsv("a\n").size(), 1u);
  EXPECT_EQ(ParseCsv("a").size(), 1u);
  EXPECT_TRUE(ParseCsv("").empty());
}

TEST(ParseCsv, EmptyFieldsSurvive) {
  const auto r = ParseCsv(",,\na,,b\n");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], (std::vector<std::string>{"", "", ""}));
  EXPECT_EQ(r[1], (std::vector<std::string>{"a", "", "b"}));
}

TEST(ParseCsv, QuotedEmptyFieldIsOneEmptyField) {
  const auto r = ParseCsv("\"\"\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (std::vector<std::string>{""}));
}

}  // namespace
}  // namespace mlpm::harness
