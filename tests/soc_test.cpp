// Tests for the SoC simulator: thermal model, layer cost roofline, model
// compilation (segments, partitions, fallbacks), and batch execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/cost.h"
#include "obs/metrics.h"
#include "soc/chipset.h"
#include "soc/compile.h"
#include "soc/faults.h"
#include "soc/simulator.h"
#include "soc/thermal.h"

namespace mlpm::soc {
namespace {

using graph::Activation;
using graph::GraphBuilder;
using graph::TensorId;

// ---- thermal ----

TEST(Thermal, StartsAtAmbient) {
  const ThermalModel t{ThermalParams{}};
  EXPECT_DOUBLE_EQ(t.temperature_c(), ThermalParams{}.ambient_c);
  EXPECT_DOUBLE_EQ(t.ThrottleFactor(), 1.0);
}

TEST(Thermal, HeatsUnderPower) {
  ThermalModel t{ThermalParams{}};
  t.Step(3.0, 10.0);
  EXPECT_GT(t.temperature_c(), ThermalParams{}.ambient_c);
}

TEST(Thermal, ApproachesSteadyState) {
  ThermalParams p;
  ThermalModel t{p};
  t.Step(2.0, 10000.0);  // long time
  EXPECT_NEAR(t.temperature_c(), p.ambient_c + 2.0 * p.resistance_c_per_w,
              0.01);
}

TEST(Thermal, CoolsBackToAmbient) {
  ThermalModel t{ThermalParams{}};
  t.Step(3.0, 100.0);
  t.Cool(10000.0);
  EXPECT_NEAR(t.temperature_c(), ThermalParams{}.ambient_c, 0.01);
}

TEST(Thermal, ThrottleRampsLinearly) {
  ThermalParams p;
  ThermalModel t{p};
  // Heat to the midpoint of the throttle band.
  const double mid = (p.throttle_start_c + p.throttle_limit_c) / 2;
  const double power = (mid - p.ambient_c) / p.resistance_c_per_w;
  t.Step(power, 100000.0);
  const double expected = 1.0 - 0.5 * (1.0 - p.min_throttle_factor);
  EXPECT_NEAR(t.ThrottleFactor(), expected, 0.01);
}

TEST(Thermal, ThrottleFloorsAtMinimum) {
  ThermalParams p;
  ThermalModel t{p};
  t.Step(100.0, 100000.0);  // way past the limit
  EXPECT_DOUBLE_EQ(t.ThrottleFactor(), p.min_throttle_factor);
}

TEST(Thermal, ResetRestoresAmbient) {
  ThermalModel t{ThermalParams{}};
  t.Step(3.0, 100.0);
  t.Reset();
  EXPECT_DOUBLE_EQ(t.temperature_c(), ThermalParams{}.ambient_c);
}

TEST(Thermal, RejectsBadParams) {
  ThermalParams p;
  p.min_throttle_factor = 0.0;
  EXPECT_THROW(ThermalModel{p}, CheckError);
  p = ThermalParams{};
  p.throttle_limit_c = p.throttle_start_c;
  EXPECT_THROW(ThermalModel{p}, CheckError);
}

TEST(Thermal, NegativeInputsRejected) {
  ThermalModel t{ThermalParams{}};
  EXPECT_THROW(t.Step(-1.0, 1.0), CheckError);
  EXPECT_THROW(t.Step(1.0, -1.0), CheckError);
}

// ---- layer cost ----

AcceleratorDesc TestEngine() {
  AcceleratorDesc a;
  a.name = "test";
  a.peak_gmacs_int8 = 100.0;  // 1e11 MAC/s
  a.peak_gmacs_fp16 = 50.0;
  a.mem_bw_gbps = 10.0;  // 1e10 B/s
  a.efficiency = {1.0, 1.0, 1.0, 1.0, 1.0};
  a.per_layer_overhead_us = 0.0;
  a.active_power_w = 2.0;
  return a;
}

graph::NodeCost ComputeBoundCost() {
  graph::NodeCost c;
  c.macs = 100'000'000;  // 1e8 MACs -> 1 ms at 1e11 MAC/s
  c.input_elems = 100;
  c.output_elems = 100;
  c.op_class = graph::OpClass::kConvDense;
  return c;
}

TEST(LayerCost, ComputeBoundUsesArithmeticTime) {
  const LayerTiming t = LayerCost(ComputeBoundCost(), DataType::kInt8,
                                  TestEngine());
  EXPECT_NEAR(t.seconds, 1e-3, 1e-9);
}

TEST(LayerCost, MemoryBoundUsesBandwidthTime) {
  graph::NodeCost c;
  c.macs = 1;
  c.input_elems = 10'000'000;  // 1e7 B at int8 -> 1 ms at 1e10 B/s
  c.op_class = graph::OpClass::kElementwise;
  const LayerTiming t = LayerCost(c, DataType::kInt8, TestEngine());
  EXPECT_NEAR(t.seconds, 1e-3, 1e-6);
}

TEST(LayerCost, Fp16HalvesPeakDoublesBytes) {
  const LayerTiming i8 =
      LayerCost(ComputeBoundCost(), DataType::kInt8, TestEngine());
  const LayerTiming f16 =
      LayerCost(ComputeBoundCost(), DataType::kFloat16, TestEngine());
  EXPECT_NEAR(f16.seconds / i8.seconds, 2.0, 0.01);
}

TEST(LayerCost, UnsupportedNumericsThrows) {
  EXPECT_THROW(
      (void)LayerCost(ComputeBoundCost(), DataType::kFloat32, TestEngine()),
      CheckError);
}

TEST(LayerCost, DilatedPenaltyApplies) {
  AcceleratorDesc e = TestEngine();
  e.efficiency.dilated_scale = 0.1;
  graph::NodeCost c = ComputeBoundCost();
  c.dilated = true;
  const LayerTiming t = LayerCost(c, DataType::kInt8, e);
  EXPECT_NEAR(t.seconds, 1e-2, 1e-6);  // 10x slower
}

TEST(LayerCost, WeightTrafficScaleAmortizesWeights) {
  graph::NodeCost c;
  c.macs = 1;
  c.weight_elems = 10'000'000;
  c.op_class = graph::OpClass::kConvDense;
  const LayerTiming full = LayerCost(c, DataType::kInt8, TestEngine(), 1.0);
  const LayerTiming amortized =
      LayerCost(c, DataType::kInt8, TestEngine(), 0.1);
  EXPECT_NEAR(amortized.seconds / full.seconds, 0.1, 0.01);
}

TEST(LayerCost, EnergyIsPowerTimesTime) {
  const LayerTiming t = LayerCost(ComputeBoundCost(), DataType::kInt8,
                                  TestEngine());
  EXPECT_NEAR(t.joules, t.seconds * 2.0, 1e-12);
}

// ---- compile ----

ChipsetDesc TwoEngineChip() {
  ChipsetDesc c;
  c.name = "testchip";
  c.interconnect_gbps = 1.0;  // 1e9 B/s
  AcceleratorDesc npu = TestEngine();
  npu.name = "npu";
  npu.cls = EngineClass::kNpu;
  c.engines.push_back(npu);
  AcceleratorDesc cpu = TestEngine();
  cpu.name = "cpu";
  cpu.cls = EngineClass::kCpuBig;
  cpu.peak_gmacs_int8 = 10.0;  // 10x slower
  c.engines.push_back(cpu);
  return c;
}

graph::Graph FourConvNet() {
  GraphBuilder b("net");
  TensorId x = b.Input("in", {1, 16, 16, 4});
  for (int i = 0; i < 4; ++i) x = b.Conv2d(x, 4, 3, 1, Activation::kRelu);
  b.MarkOutput(x);
  return std::move(b).Build();
}

TEST(Compile, SingleEngineMakesOneSegment) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu"};
  const CompiledModel m =
      Compile(g, DataType::kInt8, TwoEngineChip(), p, RuntimeOverheads{});
  EXPECT_EQ(m.segments.size(), 1u);
  EXPECT_EQ(m.segments[0].engine_index, 0u);
  EXPECT_DOUBLE_EQ(m.segments.back().boundary_bytes, 0.0);
}

TEST(Compile, AlternatingPolicyCreatesSegments) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu", "cpu"};
  p.alternate_every = 1;
  const CompiledModel m =
      Compile(g, DataType::kInt8, TwoEngineChip(), p, RuntimeOverheads{});
  EXPECT_EQ(m.segments.size(), 4u);
  EXPECT_NE(m.segments[0].engine_index, m.segments[1].engine_index);
}

TEST(Compile, ForcedPartitionSplitsSameEngine) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu"};
  p.force_partition_every = 2;
  const CompiledModel m =
      Compile(g, DataType::kInt8, TwoEngineChip(), p, RuntimeOverheads{});
  EXPECT_EQ(m.segments.size(), 2u);
  EXPECT_EQ(m.segments[0].engine_index, m.segments[1].engine_index);
}

TEST(Compile, TailOnSecondaryEngine) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu", "cpu"};
  p.tail_nodes_on_secondary = 1;
  const CompiledModel m =
      Compile(g, DataType::kInt8, TwoEngineChip(), p, RuntimeOverheads{});
  ASSERT_EQ(m.segments.size(), 2u);
  EXPECT_EQ(m.segments.back().engine_index, 1u);
}

TEST(Compile, FallbackFractionRoutesNodesToCpu) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu"};
  p.cpu_fallback_fraction = 0.5;  // every 2nd node to CPU
  const CompiledModel m =
      Compile(g, DataType::kInt8, TwoEngineChip(), p, RuntimeOverheads{});
  EXPECT_GE(m.segments.size(), 3u);
}

TEST(Compile, UnknownEngineRejected) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"tpu"};
  EXPECT_THROW((void)Compile(g, DataType::kInt8, TwoEngineChip(), p,
                             RuntimeOverheads{}),
               CheckError);
}

TEST(Compile, BadToolchainEfficiencyRejected) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu"};
  p.toolchain_efficiency = 0.0;
  EXPECT_THROW((void)Compile(g, DataType::kInt8, TwoEngineChip(), p,
                             RuntimeOverheads{}),
               CheckError);
  p.toolchain_efficiency = 1.5;
  EXPECT_THROW((void)Compile(g, DataType::kInt8, TwoEngineChip(), p,
                             RuntimeOverheads{}),
               CheckError);
}

TEST(Compile, ToolchainEfficiencyScalesRoofline) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy fast;
  fast.engines = {"npu"};
  ExecutionPolicy slow = fast;
  slow.toolchain_efficiency = 0.5;
  const ChipsetDesc chip = TwoEngineChip();
  const double t_fast =
      Compile(g, DataType::kInt8, chip, fast, RuntimeOverheads{})
          .LatencySeconds();
  const double t_slow =
      Compile(g, DataType::kInt8, chip, slow, RuntimeOverheads{})
          .LatencySeconds();
  EXPECT_NEAR(t_slow / t_fast, 2.0, 0.01);
}

TEST(Compile, PartitionSyncAddsPerBoundaryCost) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu"};
  p.force_partition_every = 1;  // 4 segments -> 3 boundaries
  RuntimeOverheads cheap;
  RuntimeOverheads costly;
  costly.per_partition_sync_s = 1e-3;
  costly.copy_boundary_tensors = false;
  cheap.copy_boundary_tensors = false;
  const ChipsetDesc chip = TwoEngineChip();
  const double t0 =
      Compile(g, DataType::kInt8, chip, p, cheap).LatencySeconds();
  const double t1 =
      Compile(g, DataType::kInt8, chip, p, costly).LatencySeconds();
  EXPECT_NEAR(t1 - t0, 3e-3, 1e-6);
}

TEST(Compile, EngineChangeCopiesBoundaryTensor) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu", "cpu"};
  p.alternate_every = 2;  // one engine change
  RuntimeOverheads o;
  o.copy_boundary_tensors = false;  // copies still apply at engine changes
  const CompiledModel m = Compile(g, DataType::kInt8, TwoEngineChip(), p, o);
  ASSERT_EQ(m.segments.size(), 2u);
  // boundary tensor: 16*16*4 = 1024 B at 1 GB/s = ~1 us.
  const double with_copy = m.LatencySeconds();
  ExecutionPolicy single;
  single.engines = {"npu"};
  // Rough check: latency difference includes a positive transfer term.
  EXPECT_GT(with_copy, 0.0);
  EXPECT_GT(m.segments[0].boundary_bytes, 0.0);
}

TEST(Compile, ThrottleScalesRooflineNotDispatch) {
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"npu"};
  ChipsetDesc chip = TwoEngineChip();
  chip.engines[0].per_layer_overhead_us = 100.0;
  const CompiledModel m =
      Compile(g, DataType::kInt8, chip, p, RuntimeOverheads{});
  const double full = m.LatencySeconds(1.0);
  const double throttled = m.LatencySeconds(0.5);
  // Dispatch (4 * 100us) unchanged; roofline doubled.
  const double dispatch = 4 * 100e-6;
  EXPECT_NEAR(throttled - dispatch, (full - dispatch) * 2.0, 1e-9);
}

// ---- simulator ----

TEST(Simulator, InferenceAdvancesThermalState) {
  SocSimulator sim(Dimensity1100());
  const graph::Graph g = FourConvNet();
  ExecutionPolicy p;
  p.engines = {"apu"};
  const CompiledModel m = Compile(g, DataType::kInt8, sim.chipset(), p,
                                  RuntimeOverheads{});
  const double t0 = sim.thermal().temperature_c();
  for (int i = 0; i < 100; ++i) (void)sim.RunInference(m);
  EXPECT_GT(sim.thermal().temperature_c(), t0);
}

TEST(Simulator, SustainedLoadThrottles) {
  SocSimulator sim(Snapdragon888());
  ExecutionPolicy p;
  p.engines = {"hta"};
  GraphBuilder b("big");
  TensorId x = b.Input("in", {1, 96, 96, 64});
  for (int i = 0; i < 8; ++i) x = b.Conv2d(x, 64, 3, 1, Activation::kRelu);
  b.MarkOutput(x);
  const CompiledModel m = Compile(std::move(b).Build(), DataType::kInt8,
                                  sim.chipset(), p, RuntimeOverheads{});
  // A couple of thermal time constants of sustained heavy inference.
  const double first = sim.RunInference(m).latency_s;
  double last = first;
  for (int i = 0; i < 40000; ++i) last = sim.RunInference(m).latency_s;
  EXPECT_GT(last, first * 1.05);  // visible thermal degradation
}

TEST(Simulator, CooldownRestoresLatency) {
  SocSimulator sim(Snapdragon888());
  ExecutionPolicy p;
  p.engines = {"hta"};
  const graph::Graph g = FourConvNet();
  const CompiledModel m = Compile(g, DataType::kInt8, sim.chipset(), p,
                                  RuntimeOverheads{});
  const double fresh = sim.RunInference(m).latency_s;
  for (int i = 0; i < 50000; ++i) (void)sim.RunInference(m);
  sim.Cooldown(3600.0);
  EXPECT_NEAR(sim.RunInference(m).latency_s, fresh, fresh * 0.01);
}

TEST(Simulator, BatchCompletionTimesMonotone) {
  SocSimulator sim(Exynos990());
  ExecutionPolicy p;
  p.engines = {"npu"};
  const graph::Graph g = FourConvNet();
  const CompiledModel m = Compile(g, DataType::kInt8, sim.chipset(), p,
                                  RuntimeOverheads{}, /*batched=*/true);
  const BatchResult r = sim.RunBatch({&m, 1}, 500);
  ASSERT_EQ(r.completion_times_s.size(), 500u);
  for (std::size_t i = 1; i < 500; ++i)
    EXPECT_GE(r.completion_times_s[i], r.completion_times_s[i - 1]);
  EXPECT_DOUBLE_EQ(r.makespan_s, r.completion_times_s.back());
}

TEST(Simulator, TwoReplicasBeatOne) {
  const ChipsetDesc chip = Exynos990();
  const graph::Graph g = FourConvNet();
  ExecutionPolicy npu;
  npu.engines = {"npu"};
  ExecutionPolicy cpu;
  cpu.engines = {"cpu"};
  const CompiledModel m_npu = Compile(g, DataType::kInt8, chip, npu,
                                      RuntimeOverheads{}, true);
  const CompiledModel m_cpu = Compile(g, DataType::kInt8, chip, cpu,
                                      RuntimeOverheads{}, true);
  SocSimulator sim1(chip), sim2(chip);
  const std::vector<CompiledModel> both{m_npu, m_cpu};
  const double fps_alp =
      1000.0 / sim1.RunBatch(both, 1000).makespan_s;
  const double fps_single =
      1000.0 / sim2.RunBatch({&both[0], 1}, 1000).makespan_s;
  EXPECT_GT(fps_alp, fps_single);
}

TEST(Simulator, BatchEnergyPositiveAndTdpBounded) {
  SocSimulator sim(Snapdragon865Plus());
  ExecutionPolicy p;
  p.engines = {"hta"};
  const graph::Graph g = FourConvNet();
  const CompiledModel m = Compile(g, DataType::kInt8, sim.chipset(), p,
                                  RuntimeOverheads{}, true);
  const BatchResult r = sim.RunBatch({&m, 1}, 200);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_LE(r.energy_j, sim.chipset().tdp_w * r.makespan_s + 1e-9);
}

// ---- memoised per-plan constants ----

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The thermal step computed directly, with std::exp on every call.
double DirectStep(const ThermalParams& p, double temp_c, double power_w,
                  double dt_s) {
  const double tau = p.resistance_c_per_w * p.capacitance_j_per_c;
  const double steady = p.ambient_c + power_w * p.resistance_c_per_w;
  return steady + (temp_c - steady) * std::exp(-dt_s / tau);
}

TEST(ThermalMemo, StepsEqualDirectRecomputation) {
  // Repeated, changing and zero steps, cooling, a forced temperature and a
  // reset, against the direct formula from the same temperatures.
  for (const GovernorMode governor :
       {GovernorMode::kLinear, GovernorMode::kStepped}) {
    ThermalParams p;
    p.governor = governor;
    ThermalModel t{p};
    double direct = p.ambient_c;
    const auto step = [&](double power_w, double dt_s) {
      t.Step(power_w, dt_s);
      direct = DirectStep(p, direct, power_w, dt_s);
      ASSERT_TRUE(SameBits(t.temperature_c(), direct))
          << power_w << " W for " << dt_s << " s";
    };
    for (int i = 0; i < 200; ++i) step(3.0, 0.25);
    step(3.0, 0.0);
    step(2.5, 0.25);
    for (int i = 0; i < 50; ++i) step(3.0, 1e-3 * (i % 3 + 1));
    t.Cool(30.0);
    direct = DirectStep(p, direct, 0.0, 30.0);
    ASSERT_TRUE(SameBits(t.temperature_c(), direct));
    step(3.0, 30.0);  // the cooldown's dt, now under power
    t.ForceTemperature(p.throttle_limit_c);
    direct = p.throttle_limit_c;
    for (int i = 0; i < 20; ++i) step(1.0, 0.25);
    t.Reset();
    direct = p.ambient_c;
    for (int i = 0; i < 20; ++i) step(3.0, 0.25);
  }
}

// A simulated inference computed directly: every plan constant derived on
// every call, the thermal step through std::exp, and fault draws of its
// own from the same plan.  The oracle for SocSimulator::RunInference.
class DirectSimulator {
 public:
  DirectSimulator(ChipsetDesc chip, FaultPlan faults)
      : chip_(std::move(chip)),
        temp_c_(chip_.thermal.ambient_c),
        injector_(std::move(faults)) {}

  InferenceResult Run(const CompiledModel& m, bool cpu_only) {
    ThermalModel probe(chip_.thermal);
    probe.ForceTemperature(temp_c_);
    InferenceResult r;
    r.throttle_factor = probe.ThrottleFactor();
    r.latency_s = m.LatencySeconds(r.throttle_factor);
    r.energy_j = m.EnergyJoules();
    if (const FaultSpec* f = cpu_only ? nullptr : injector_.NextAttempt()) {
      switch (f->kind) {
        case FaultKind::kTransientStall:
          r.latency_s *= f->stall_scale;
          r.outcome = InferenceOutcome::kStalledRetryable;
          r.completed = false;
          break;
        case FaultKind::kDriverCrash:
          r.latency_s *= f->crash_latency_fraction;
          r.energy_j *= f->crash_latency_fraction;
          r.outcome = InferenceOutcome::kDriverCrash;
          r.completed = false;
          break;
        case FaultKind::kThermalEmergency:
          r.outcome = InferenceOutcome::kThermalEmergency;
          break;
        case FaultKind::kSampleDrop:
          r.outcome = InferenceOutcome::kDropped;
          r.completed = false;
          break;
      }
    }
    temp_c_ = DirectStep(chip_.thermal, temp_c_,
                         std::min(m.AveragePowerWatts(), chip_.tdp_w),
                         r.latency_s);
    if (r.outcome == InferenceOutcome::kThermalEmergency)
      temp_c_ = chip_.thermal.throttle_limit_c;
    r.temperature_c = temp_c_;
    return r;
  }

  void Cooldown(double seconds) {
    temp_c_ = DirectStep(chip_.thermal, temp_c_, 0.0, seconds);
  }

 private:
  ChipsetDesc chip_;
  double temp_c_;
  FaultInjector injector_;
};

TEST(SimulatorMemo, InferencesEqualDirectRecomputation) {
  // A small, fast-heating die: the plans cross the throttle band within a
  // few hundred inferences, and the TDP cap binds on both.  Each governor
  // runs the primary plan into throttling, then alternates it with the CPU
  // fallback and with an uncompiled copy (plan id 0), then runs the
  // fallback with cooldowns, all under seeded faults of every kind
  // (thermal emergencies force the die to its limit).
  for (const GovernorMode governor :
       {GovernorMode::kLinear, GovernorMode::kStepped}) {
    SCOPED_TRACE(governor == GovernorMode::kLinear ? "linear" : "stepped");
    ChipsetDesc chip = TwoEngineChip();
    chip.tdp_w = 1.8;
    chip.thermal.throttle_start_c = 23.0;
    chip.thermal.throttle_limit_c = 30.0;
    chip.thermal.capacitance_j_per_c = 1e-4;
    chip.thermal.governor = governor;
    const graph::Graph g = FourConvNet();
    ExecutionPolicy npu;
    npu.engines = {"npu"};
    ExecutionPolicy cpu;
    cpu.engines = {"cpu"};
    const CompiledModel primary =
        Compile(g, DataType::kInt8, chip, npu, RuntimeOverheads{});
    const CompiledModel fallback =
        Compile(g, DataType::kInt8, chip, cpu, RuntimeOverheads{});
    CompiledModel uncompiled = primary;
    uncompiled.plan_id = 0;
    ASSERT_NE(primary.plan_id, 0u);
    ASSERT_NE(primary.plan_id, fallback.plan_id);

    const FaultPlan faults = FaultPlan{}
                                 .TransientStalls(0.02)
                                 .DriverCrashes(0.01)
                                 .ThermalEmergencies(0.01)
                                 .SampleDrops(0.01);
    SocSimulator sim(chip);
    sim.InjectFaults(faults);
    DirectSimulator direct(chip, faults);
    std::size_t throttled = 0, repeated_throttle = 0, emergencies = 0;
    double last_throttle = 0.0;
    for (int i = 0; i < 3000; ++i) {
      const CompiledModel* plan = &primary;
      if (i >= 1000 && i < 2000)
        plan = i % 3 == 0 ? &fallback : i % 3 == 1 ? &uncompiled : &primary;
      if (i >= 2000) {
        plan = &fallback;
        if (i % 250 == 0) {
          sim.Cooldown(1e-3);
          direct.Cooldown(1e-3);
        }
      }
      const InferenceResult got = sim.RunInference(*plan);
      const InferenceResult want = direct.Run(*plan, plan == &fallback);
      ASSERT_TRUE(SameBits(got.latency_s, want.latency_s)) << "inference " << i;
      ASSERT_TRUE(SameBits(got.energy_j, want.energy_j)) << "inference " << i;
      ASSERT_TRUE(SameBits(got.throttle_factor, want.throttle_factor))
          << "inference " << i;
      ASSERT_TRUE(SameBits(got.temperature_c, want.temperature_c))
          << "inference " << i;
      ASSERT_EQ(got.outcome, want.outcome) << "inference " << i;
      ASSERT_EQ(got.completed, want.completed) << "inference " << i;
      throttled += got.throttle_factor < 1.0;
      repeated_throttle += got.throttle_factor < 1.0 &&
                           got.throttle_factor == last_throttle;
      emergencies += got.outcome == InferenceOutcome::kThermalEmergency;
      last_throttle = got.throttle_factor;
    }
    EXPECT_GT(throttled, 1000u);
    EXPECT_GT(repeated_throttle, 100u);
    EXPECT_GT(emergencies, 0u);
    EXPECT_GT(sim.fault_count(), emergencies);
  }
}

// ---- metrics ----

// The names of the counters the registry holds.
std::vector<std::string> CounterNames() {
  const obs::MetricsRegistry::Snapshot snap =
      obs::MetricsRegistry::Global().Snap();
  std::vector<std::string> names;
  for (const auto& counter : snap.counters) names.push_back(counter.first);
  return names;
}

TEST(SimulatorCounters, LandOnceWhenTheSimulatorIsDestroyed) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  const ChipsetDesc chip = Exynos990();
  ExecutionPolicy p;
  p.engines = {"npu"};
  const graph::Graph g = FourConvNet();
  const CompiledModel m = Compile(g, DataType::kInt8, chip, p,
                                  RuntimeOverheads{}, /*batched=*/true);
  {
    SocSimulator local(chip);
    for (int i = 0; i < 5; ++i) (void)local.RunInference(m);
    (void)local.RunBatch({&m, 1}, 40);
    EXPECT_TRUE(CounterNames().empty());  // nothing until destruction
  }
  EXPECT_EQ(metrics.counter("soc.inferences"), 5u);
  EXPECT_EQ(metrics.counter("soc.batches"), 1u);
  EXPECT_EQ(metrics.counter("soc.batch_samples"), 40u);
  // Zero counts add no key: a cool, fault-free run has no throttle or
  // fault counter.
  EXPECT_EQ(CounterNames(),
            (std::vector<std::string>{"soc.batch_samples", "soc.batches",
                                      "soc.inferences"}));

  // A simulator that injected faults adds those too, once.
  {
    SocSimulator faulty(chip);
    faulty.InjectFaults(FaultPlan{}.ThermalEmergencies(1.0));
    for (int i = 0; i < 3; ++i) (void)faulty.RunInference(m);
  }
  EXPECT_EQ(metrics.counter("soc.inferences"), 8u);
  EXPECT_EQ(metrics.counter("soc.faults_injected"), 3u);
  EXPECT_EQ(metrics.counter("soc.thermal_emergencies"), 3u);
  metrics.Reset();
}

TEST(SimulatorCounters, MovedFromSimulatorAddsNothing) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  const ChipsetDesc chip = Dimensity1100();
  ExecutionPolicy p;
  p.engines = {"apu"};
  const graph::Graph g = FourConvNet();
  const CompiledModel m =
      Compile(g, DataType::kInt8, chip, p, RuntimeOverheads{});
  {
    SocSimulator a(chip);
    for (int i = 0; i < 3; ++i) (void)a.RunInference(m);
    SocSimulator b(std::move(a));
    for (int i = 0; i < 2; ++i) (void)b.RunInference(m);
    SocSimulator c(chip);
    (void)c.RunInference(m);
    // Assigning over `c` adds c's own count now; b's five move with it.
    c = std::move(b);
    EXPECT_EQ(metrics.counter("soc.inferences"), 1u);
  }
  // a, b and c are destroyed: 3 + 2 carried into c, plus c's earlier 1.
  EXPECT_EQ(metrics.counter("soc.inferences"), 6u);
  metrics.Reset();
}

// ---- catalog ----

TEST(Catalog, AllChipsetsWellFormed) {
  for (const auto& chips : {CatalogV07(), CatalogV10()}) {
    ASSERT_EQ(chips.size(), 4u);
    for (const ChipsetDesc& c : chips) {
      EXPECT_FALSE(c.engines.empty());
      EXPECT_GT(c.interconnect_gbps, 0.0);
      EXPECT_GT(c.tdp_w, 0.0);
      for (const AcceleratorDesc& e : c.engines) {
        EXPECT_FALSE(e.name.empty());
        EXPECT_GT(e.mem_bw_gbps, 0.0);
        EXPECT_GT(e.active_power_w, 0.0);
        EXPECT_TRUE(e.peak_gmacs_int8 > 0 || e.peak_gmacs_fp16 > 0 ||
                    e.peak_gmacs_fp32 > 0);
      }
    }
  }
}

TEST(Catalog, GenerationTagsCorrect) {
  for (const ChipsetDesc& c : CatalogV07()) EXPECT_EQ(c.generation, "v0.7");
  for (const ChipsetDesc& c : CatalogV10()) EXPECT_EQ(c.generation, "v1.0");
}

TEST(Catalog, V10HardwareIsFasterPerFamily) {
  EXPECT_GT(Dimensity1100().Engine("apu").peak_gmacs_int8,
            Dimensity820().Engine("apu").peak_gmacs_int8);
  EXPECT_GT(Exynos2100().Engine("npu").peak_gmacs_int8,
            Exynos990().Engine("npu").peak_gmacs_int8);
  EXPECT_GT(Snapdragon888().Engine("hta").peak_gmacs_int8,
            Snapdragon865Plus().Engine("hta").peak_gmacs_int8);
}

TEST(Catalog, Exynos2100FixesInterconnect) {
  // Appendix C: reduced data transfer between IP blocks.
  EXPECT_GT(Exynos2100().interconnect_gbps,
            10.0 * Exynos990().interconnect_gbps);
}

TEST(Catalog, EngineLookup) {
  const ChipsetDesc c = Snapdragon888();
  EXPECT_TRUE(c.HasEngine("hta"));
  EXPECT_TRUE(c.HasEngine("hvx"));
  EXPECT_FALSE(c.HasEngine("npu"));
  EXPECT_THROW((void)c.Engine("npu"), CheckError);
}

}  // namespace
}  // namespace mlpm::soc
