// Tests for the CSV result export.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/export.h"

namespace mlpm {
namespace {

harness::SubmissionResult FakeResult() {
  harness::SubmissionResult r;
  r.chipset_name = "Test, SoC";  // comma forces CSV quoting
  r.version = models::SuiteVersion::kV1_0;
  harness::TaskRunResult t;
  t.entry = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  t.numerics = DataType::kUInt8;
  t.framework_name = "SDK";
  t.accelerator_label = "NPU";
  t.accuracy = 0.8;
  t.fp32_reference = 0.81;
  t.ratio_to_fp32 = 0.8 / 0.81;
  t.quality_passed = true;
  loadgen::TestResult perf;
  perf.percentile_latency_s = 0.002;
  perf.mean_latency_s = 0.0019;
  t.single_stream = perf;
  t.energy_per_inference_j = 0.004;
  r.tasks.push_back(std::move(t));
  return r;
}

TEST(Csv, HeaderAndRowCount) {
  const std::string csv = harness::ToCsv(FakeResult());
  std::istringstream is(csv);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 2u);  // header + one task
  EXPECT_EQ(csv.substr(0, 7), "chipset");
}

TEST(Csv, QuotesFieldsWithCommas) {
  const std::string csv = harness::ToCsv(FakeResult());
  EXPECT_NE(csv.find("\"Test, SoC\""), std::string::npos);
}

TEST(Csv, ContainsTransparencyColumns) {
  const std::string csv = harness::ToCsv(FakeResult());
  EXPECT_NE(csv.find("UINT8"), std::string::npos);
  EXPECT_NE(csv.find("SDK"), std::string::npos);
  EXPECT_NE(csv.find("NPU"), std::string::npos);
  EXPECT_NE(csv.find("true"), std::string::npos);
}

TEST(Csv, MissingOfflineLeavesEmptyField) {
  const std::string csv = harness::ToCsv(FakeResult(), false);
  // ...,p90,mean,<empty offline>,energy
  EXPECT_NE(csv.find(",,4"), std::string::npos);
}

}  // namespace
}  // namespace mlpm
