// Result records for the schema, golden-byte and CSV tests.  The "hostile"
// records carry content that stresses the codecs (multi-line strings,
// doubles with no finite decimal form, negative two's-complement images,
// CSV metacharacters); the "populated" ones additionally set every
// journaled field to a non-default value, so a field table entry whose
// encoder or decoder is missing shows up as an unchanged encoding.
//
// The golden files under tests/golden/ are the encodings of these records;
// changing a fixture means regenerating its golden with the same bytes the
// previous codec wrote.
#pragma once

#include <string>
#include <utility>

#include "fleet/fleet.h"
#include "harness/journal.h"
#include "harness/run_session.h"
#include "models/zoo.h"

namespace mlpm::testutil {

inline harness::JournalMeta TestMeta() {
  harness::JournalMeta m;
  m.chipset = "Test Chipset";
  m.version = "v1.0";
  m.seed = 0xC0FFEE;
  m.config_hash = 0x1234;
  return m;
}

// The task record of journal_test: multi-line logs, doubles that do not
// round-trip through decimal text, the smallest denormal, tile_rows = -1.
inline harness::TaskRunResult HostileTask(const std::string& id) {
  harness::TaskRunResult t;
  t.entry.id = id;
  t.numerics = DataType::kInt8;
  t.framework_name = "TF,Lite \"nightly\"\nbuild";
  t.accelerator_label = "npu + dsp";
  t.accuracy = 1.0 / 3.0;
  t.fp32_reference = 0.1;
  t.ratio_to_fp32 = 0.9999999999999999;
  t.quality_passed = true;
  t.calibration_indices = {3, 1, 4, 1, 5};
  t.accuracy_sample_count = 128;
  t.dataset_size = 128;

  loadgen::TestResult ss;
  ss.sample_count = 3;
  ss.duration_s = 0.123456789123456789;
  ss.percentile_latency_s = 0x1.fffffffffffffp-7;
  ss.mean_latency_s = 5e-324;
  ss.latencies_s = {0.001, 1.0 / 7.0, 0x1.5p-3};
  ss.error_log = {"query 7 timed out", "line\nwith\nbreaks"};
  ss.log.SetField("seed", "123");
  ss.log.Record(loadgen::LogEventKind::kQueryIssued, 1, loadgen::Seconds{0.5});
  ss.log.Record(loadgen::LogEventKind::kQueryShed, 2, loadgen::Seconds{0.6});
  ss.log.Record(loadgen::LogEventKind::kQueryRejected, 1,
                loadgen::Seconds{0.7});
  t.single_stream = ss;

  t.energy_per_inference_j = 0.00123;
  t.peak_temperature_c = 43.5;
  t.peak_arena_bytes = 1 << 20;
  t.naive_activation_bytes = 1 << 22;
  t.status = harness::TaskStatus::kValidDegraded;
  t.status_detail = "retried twice,\nwith\nbreaks";
  t.fault_count = 5;
  t.degradation_count = 2;
  t.shed_count = 7;
  t.rejected_count = 3;
  t.breaker_trips = 1;
  t.degraded_to_cpu = true;
  t.performance_attempts = 2;
  t.fault_log = "fault stall q=1\nbreaker closed->open query=9\n";
  t.lint_error_count = 0;
  t.lint_warning_count = 4;
  t.lint_log = "warning: something\nnote: probe failed on sample 0\n";
  t.kernel_isa = "avx2";
  t.tiling_requested = true;
  t.tiling_applied = true;
  t.tile_segments = 19;
  t.tile_rows = -1;
  t.tile_slab_bytes = 465920;
  return t;
}

// Every journaled TestResult field away from its default.
inline loadgen::TestResult PopulatedTestResult() {
  loadgen::TestResult r = *HostileTask("ic_tf").single_stream;
  r.scenario = loadgen::TestScenario::kServer;
  r.mode = loadgen::TestMode::kAccuracyOnly;
  r.throughput_sps = 812.25;
  r.min_duration_met = true;
  r.min_query_count_met = true;
  r.latency_bound_met = true;
  r.shed_bound_met = false;
  r.dropped_count = 1;
  r.timed_out_count = 2;
  r.duplicate_count = 3;
  r.unknown_count = 4;
  r.shed_count = 5;
  r.rejected_count = 6;
  r.issued_count = 12;
  r.invalid_reason = "stalled\nSUT";
  return r;
}

// Every journaled TaskRunResult field away from its default.
inline harness::TaskRunResult PopulatedTask() {
  harness::TaskRunResult t = HostileTask("ic_tf");
  t.numerics = DataType::kFloat16;
  t.single_stream = PopulatedTestResult();
  t.offline = PopulatedTestResult();
  t.offline->scenario = loadgen::TestScenario::kOffline;
  t.lint_error_count = 2;
  return t;
}

// Every journaled ShardResult field away from its default.
inline fleet::ShardResult PopulatedShard() {
  fleet::ShardResult s;
  s.shard_id = 17;
  s.chipset = "Snap,dragon \"888\"\nrev";
  s.task_id = "image_classification";
  s.numerics = DataType::kFloat16;
  s.config_key = "v1.0|image_classification|Snapdragon 888";
  s.result = PopulatedTestResult();
  s.state = harness::TaskStatus::kValidDegraded;
  s.slo_met = true;
  s.breaker_trips = 2;
  s.fault_count = 9;
  s.energy_j = 1.0 / 3.0;
  s.peak_temperature_c = 51.25;
  s.accuracy = 0.7512;
  s.fp32_reference = 0.76;
  s.ratio_to_fp32 = 0.9884210526315789;
  s.quality_passed = true;
  return s;
}

// The submission of export_roundtrip_test: every character RFC 4180
// forces into quotes (commas, double quotes, LF, CR, CRLF).
inline harness::SubmissionResult HostileResult() {
  harness::SubmissionResult result;
  result.chipset_name = "Snap,dragon \"888\"\nrev\r\n2";
  result.version = models::SuiteVersion::kV1_0;

  harness::TaskRunResult task;
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
  task.tile_rows = -1;
  task.tile_slab_bytes = 465920;
  result.tasks.push_back(std::move(task));
  return result;
}

// Rows with absent performance tests: empty latency/throughput cells, and
// drop/timeout sums drawn from one test only.
inline harness::SubmissionResult SparseResult() {
  harness::SubmissionResult result;
  result.chipset_name = "Exynos 990";
  result.version = models::SuiteVersion::kV0_7;
  harness::TaskRunResult bare;
  bare.entry = models::SuiteFor(models::SuiteVersion::kV0_7).back();
  bare.status = harness::TaskStatus::kErrored;
  bare.status_detail = "threw";
  result.tasks.push_back(std::move(bare));
  harness::TaskRunResult one_test;
  one_test.entry = models::SuiteFor(models::SuiteVersion::kV0_7).front();
  one_test.numerics = DataType::kUInt8;
  loadgen::TestResult dropped;
  dropped.dropped_count = 4;
  dropped.timed_out_count = 6;
  one_test.offline = dropped;
  result.tasks.push_back(std::move(one_test));
  return result;
}

}  // namespace mlpm::testutil
