// The per-query and per-node paths allocate nothing.  This executable
// replaces the global operator new with a counting one, so it is built on
// its own: every case reads the count around the code under test only.
//
// Pinned: a passing Expects / Ensures / NotNull in every message form; the
// simulated inference path (SocSimulator::RunInference and what it calls);
// a conv node's row kernel; a server-scenario LoadGen test on the
// simulated backend without the per-query record, and a single-stream one
// with it, whose allocations must not grow with the query count; and the
// check of a recorded single-stream log, whose allocations must not grow
// with its events.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/clock.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "datasets/stub_dataset.h"
#include "harness/checker.h"
#include "harness/run_session.h"
#include "infer/kernels/registry.h"
#include "infer/tensor.h"
#include "infer/tiled_ops.h"
#include "models/zoo.h"
#include "soc/chipset.h"
#include "soc/compile.h"
#include "soc/simulator.h"
#include "soc/thermal.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mlpm {
namespace {

// operator new calls made by `f`.
template <class F>
std::size_t AllocationsIn(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

constexpr int kCalls = 1000;

TEST(AllocFree, CounterSeesAHeapString) {
  // Guards the cases below against a counter that never counts.
  std::string s;
  EXPECT_EQ(AllocationsIn([&] { s = std::string(64, 'x'); }), 1u);
}

TEST(AllocFree, PassingChecksAllocateNothing) {
  const std::string name(64, 'n');  // longer than any small-string buffer
  int x = 0;
  int* p = &x;
  std::size_t sink = 0;
  const std::size_t n = AllocationsIn([&] {
    for (int i = 0; i < kCalls; ++i) {
      Expects(i >= 0);
      Expects(i >= 0, "a literal message longer than a small-string buffer");
      Expects(i >= 0, [&] { return "run-time message for " + name; });
      Ensures(i >= 0);
      Ensures(i >= 0, "a literal message longer than a small-string buffer");
      Ensures(i >= 0, [&] { return "run-time message for " + name; });
      sink += *NotNull(p) + *NotNull(p, "a literal message longer than that") +
              *NotNull(p, [&] { return "run-time message for " + name; });
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(sink, 0u);
}

// A full-scale v1.0 image-classification plan on Dimensity 1100, as a
// performance run compiles it.
soc::CompiledModel ClassificationPlan(const soc::ChipsetDesc& chip) {
  const models::BenchmarkEntry entry =
      models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph model = models::BuildReferenceGraph(
      entry, models::SuiteVersion::kV1_0, models::ModelScale::kFull);
  return backends::CompileSubmission(
      chip,
      backends::GetSubmission(chip, entry.task, models::SuiteVersion::kV1_0),
      model);
}

TEST(AllocFree, SimulatedInferencePathAllocatesNothing) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const soc::CompiledModel plan = ClassificationPlan(chip);
  soc::SocSimulator sim(chip);
  soc::ThermalModel thermal(chip.thermal);
  loadgen::VirtualClock clock;
  Rng rng(7);
  double total = 0.0;
  std::uint64_t draws = 0;

  EXPECT_EQ(AllocationsIn([&] {
              for (int i = 0; i < kCalls; ++i)
                total += sim.RunInference(plan).latency_s;
            }),
            0u)
      << "SocSimulator::RunInference";
  EXPECT_EQ(AllocationsIn([&] {
              for (int i = 0; i < kCalls; ++i)
                total += plan.LatencySeconds(0.9);
            }),
            0u)
      << "CompiledModel::LatencySeconds";
  EXPECT_EQ(AllocationsIn([&] {
              for (int i = 0; i < kCalls; ++i) thermal.Step(3.0, 1e-3);
            }),
            0u)
      << "ThermalModel::Step";
  EXPECT_EQ(AllocationsIn([&] {
              for (int i = 0; i < kCalls; ++i)
                clock.Advance(loadgen::Seconds{1e-3});
            }),
            0u)
      << "VirtualClock::Advance";
  EXPECT_EQ(AllocationsIn([&] {
              for (int i = 0; i < kCalls; ++i) draws += rng.NextBelow(1000);
            }),
            0u)
      << "Rng::NextBelow";
  EXPECT_GT(total, 0.0);
  EXPECT_GT(clock.Now().count(), 0.0);
  EXPECT_GT(draws, 0u);
}

TEST(AllocFree, ConvRowsAllocateNothing) {
  graph::Conv2dAttrs a;
  a.out_channels = 6;
  a.kernel_h = a.kernel_w = 3;
  a.activation = graph::Activation::kRelu;
  const std::int64_t H = 5, W = 4, IC = 3;
  infer::Tensor in{graph::TensorShape({1, H, W, IC})};
  infer::Tensor w{graph::TensorShape({a.out_channels, 3, 3, IC})};
  infer::Tensor bias{graph::TensorShape({a.out_channels})};
  infer::Tensor out{graph::TensorShape({1, H, W, a.out_channels})};
  Rng rng(3);
  for (infer::Tensor* t : {&in, &w, &bias})
    for (float& v : t->values()) v = static_cast<float>(rng.NextDouble());
  const infer::RowBand band = infer::FullBand(in);
  const infer::MutableRowBand out_band{out.data(), 0, H, H, W,
                                       a.out_channels};
  const auto& kt = infer::kernels::KernelRegistry::Global().Select(
      infer::kernels::KernelIsa::kAuto);

  // The first call on a thread may size its per-thread scratch.
  infer::RunConv2dRows(a, band, w, bias, out_band, kt);
  const std::vector<float> first(out.values().begin(), out.values().end());
  EXPECT_EQ(AllocationsIn([&] {
              for (int i = 0; i < kCalls; ++i)
                infer::RunConv2dRows(a, band, w, bias, out_band, kt);
            }),
            0u);
  EXPECT_EQ(std::vector<float>(out.values().begin(), out.values().end()),
            first);
}

// operator new calls of one server-scenario test of `queries` queries on
// the simulated backend at `qps`, run as a fleet shard runs it: no per-query
// record and, when `queue_depth` is nonzero, bounded admission that sheds.
std::size_t ServerTestAllocations(std::size_t queries, double qps,
                                  std::size_t queue_depth) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const soc::CompiledModel plan = ClassificationPlan(chip);
  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut("alloc", soc::SocSimulator(chip), plan, {},
                                 clock);
  const datasets::StubDataset stub;
  loadgen::DatasetQsl qsl(stub);
  loadgen::TestSettings s;
  s.scenario = loadgen::TestScenario::kServer;
  s.server_target_qps = qps;
  s.server_query_count = queries;
  s.server_max_queue_depth = queue_depth;
  s.server_max_shed_fraction = 1.0;
  loadgen::TestResult r;
  const std::size_t n = AllocationsIn([&] {
    r = loadgen::RunTest(sut, qsl, s, clock, loadgen::QueryRecord::kNone);
  });
  EXPECT_FALSE(r.Errored()) << r.invalid_reason;
  EXPECT_EQ(r.issued_count + r.shed_count, queries);
  EXPECT_EQ(r.shed_count > 0, queue_depth > 0);
  return n;
}

TEST(AllocFree, ServerTestAllocationsDoNotGrowWithQueries) {
  // At 100 QPS every query is served; at 2,000 QPS with a queue bound of 64
  // most are shed, as on a fleet's heavy shards.
  for (const auto& [qps, depth] : {std::pair{100.0, std::size_t{0}},
                                   std::pair{2000.0, std::size_t{64}}}) {
    const std::size_t small = ServerTestAllocations(1024, qps, depth);
    const std::size_t large = ServerTestAllocations(8192, qps, depth);
    const double per_query =
        (static_cast<double>(large) - static_cast<double>(small)) /
        (8192.0 - 1024.0);
    EXPECT_LT(per_query, 0.05)
        << qps << " QPS, queue bound " << depth << ": " << small
        << " allocations at 1,024 queries, " << large << " at 8,192";
  }
}

// One single-stream test on the simulated backend, keeping the per-query
// record, with its duration floor set for about `queries` queries at the
// plan's cool latency, and the operator new calls RunTest made.
std::pair<loadgen::TestResult, std::size_t> SingleStreamTest(
    std::size_t queries) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const soc::CompiledModel plan = ClassificationPlan(chip);
  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut("alloc", soc::SocSimulator(chip), plan, {},
                                 clock);
  const datasets::StubDataset stub;
  loadgen::DatasetQsl qsl(stub);
  loadgen::TestSettings s;
  s.min_duration =
      loadgen::Seconds{plan.LatencySeconds() * static_cast<double>(queries)};
  std::pair<loadgen::TestResult, std::size_t> out;
  out.second = AllocationsIn([&] {
    out.first = loadgen::RunTest(sut, qsl, s, clock);
  });
  EXPECT_FALSE(out.first.Errored()) << out.first.invalid_reason;
  EXPECT_TRUE(out.first.min_duration_met);
  EXPECT_EQ(out.first.log.events().size(), 2 * out.first.sample_count);
  return out;
}

TEST(AllocFree, SingleStreamTestAllocationsDoNotGrowWithQueries) {
  // The first test adds the LoadGen's metric keys to the registry.
  (void)SingleStreamTest(2000);
  const auto [small, small_calls] = SingleStreamTest(2000);
  const auto [large, large_calls] = SingleStreamTest(40000);
  EXPECT_GT(small.sample_count, 1500u);
  EXPECT_GT(large.sample_count, 30000u);
  EXPECT_EQ(small_calls, large_calls)
      << small.sample_count << " and " << large.sample_count << " queries";
}

// operator new calls of CheckSubmission on a one-task submission holding
// `single_stream` as its single-stream test.
std::size_t CheckAllocations(const loadgen::TestResult& single_stream) {
  harness::SubmissionResult submission;
  harness::TaskRunResult& task = submission.tasks.emplace_back();
  task.entry.id = "task";
  task.numerics = DataType::kFloat16;  // no calibration set to check
  task.single_stream = single_stream;
  // The official seed and query floor, and no duration floor: these tests
  // run for less than the rules' 60 s.
  loadgen::TestSettings expected;
  expected.min_duration = loadgen::Seconds{0.0};
  harness::CheckReport report;
  const std::size_t n = AllocationsIn(
      [&] { report = harness::CheckSubmission(submission, expected); });
  EXPECT_TRUE(report.problems.empty()) << report.problems.front();
  return n;
}

TEST(AllocFree, RecordedLogCheckAllocationsAreBounded) {
  // The check reads the log's events into a slot table and the latencies,
  // each sized once; a 40k-query log costs what a 2k-query one does.
  const loadgen::TestResult small = SingleStreamTest(2000).first;
  const loadgen::TestResult large = SingleStreamTest(40000).first;
  const std::size_t small_calls = CheckAllocations(small);
  const std::size_t large_calls = CheckAllocations(large);
  EXPECT_EQ(small_calls, large_calls);
  EXPECT_LE(large_calls, 32u) << large.log.events().size() << " events";
}

}  // namespace
}  // namespace mlpm
