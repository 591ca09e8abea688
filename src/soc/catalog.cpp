#include "soc/chipset.h"

#include <algorithm>

#include "common/check.h"

namespace mlpm::soc {

const AcceleratorDesc& ChipsetDesc::Engine(std::string_view engine) const {
  const auto it = std::find_if(
      engines.begin(), engines.end(),
      [&](const AcceleratorDesc& a) { return a.name == engine; });
  Expects(it != engines.end(),
          [&] { return name + " has no engine named " + std::string(engine); });
  return *it;
}

bool ChipsetDesc::HasEngine(std::string_view engine) const {
  return std::any_of(engines.begin(), engines.end(), [&](const auto& a) {
    return a.name == engine;
  });
}

namespace {

AcceleratorDesc PhoneBigCpu(double gmacs_fp32) {
  AcceleratorDesc a;
  a.name = "cpu";
  a.cls = EngineClass::kCpuBig;
  a.peak_gmacs_fp32 = gmacs_fp32;
  a.peak_gmacs_fp16 = gmacs_fp32 * 1.6;
  a.peak_gmacs_int8 = gmacs_fp32 * 2.8;  // dot-product instructions
  a.mem_bw_gbps = 18.0;
  a.efficiency = {0.55, 0.45, 0.55, 0.35, 0.5, 0.7};
  a.per_layer_overhead_us = 0.5;
  a.active_power_w = 2.0;
  a.idle_power_w = 0.08;
  return a;
}

}  // namespace

ChipsetDesc Dimensity820() {
  ChipsetDesc c;
  c.name = "Dimensity 820";
  c.generation = "v0.7";
  c.interconnect_gbps = 6.0;

  AcceleratorDesc apu;  // single-core MDLA (APU 3.0)
  apu.name = "apu";
  apu.cls = EngineClass::kNpu;
  apu.peak_gmacs_int8 = 430.0;
  apu.peak_gmacs_fp16 = 160.0;  // FP16/INT16-capable (Appendix C)
  apu.mem_bw_gbps = 28.0;
  apu.efficiency = {0.8, 0.6, 0.4, 0.15, 0.55};
  apu.efficiency.dilated_scale = 0.12;
  apu.per_layer_overhead_us = 1.5;
  apu.active_power_w = 2.4;
  c.engines.push_back(apu);

  AcceleratorDesc gpu;  // Mali-G57 MC5
  gpu.name = "gpu";
  gpu.cls = EngineClass::kGpu;
  gpu.peak_gmacs_fp16 = 105.0;
  gpu.peak_gmacs_fp32 = 55.0;
  gpu.peak_gmacs_int8 = 105.0;  // quantized models run via the FP16 ALUs
  gpu.mem_bw_gbps = 22.0;
  gpu.efficiency = {0.6, 0.35, 0.72, 0.5, 0.5, 0.5};
  gpu.per_layer_overhead_us = 3.0;
  gpu.active_power_w = 2.4;
  c.engines.push_back(gpu);

  c.engines.push_back(PhoneBigCpu(40.0));
  return c;
}

ChipsetDesc Exynos990() {
  ChipsetDesc c;
  c.name = "Exynos 990";
  c.generation = "v0.7";
  // Poor inter-IP transfer path: the very thing the 2100 fixed (App. C).
  c.interconnect_gbps = 0.35;

  AcceleratorDesc npu;  // dual-core NPU
  npu.name = "npu";
  npu.cls = EngineClass::kNpu;
  npu.peak_gmacs_int8 = 700.0;
  npu.mem_bw_gbps = 20.0;
  // Strong on dense/fused convolution, weak on depthwise — exactly the
  // profile MobileNetEdgeTPU was designed for (paper §3.2).
  npu.efficiency = {0.8, 0.15, 0.45, 0.1, 0.45};
  npu.efficiency.dilated_scale = 0.08;
  npu.per_layer_overhead_us = 1.5;
  npu.active_power_w = 2.4;
  c.engines.push_back(npu);

  AcceleratorDesc gpu;  // Mali-G77 MP11
  gpu.name = "gpu";
  gpu.cls = EngineClass::kGpu;
  gpu.peak_gmacs_fp16 = 240.0;
  gpu.peak_gmacs_fp32 = 120.0;
  gpu.peak_gmacs_int8 = 240.0;  // quantized models run via the FP16 ALUs
  gpu.mem_bw_gbps = 25.0;
  gpu.efficiency = {0.6, 0.35, 0.72, 0.52, 0.5, 0.5};
  gpu.per_layer_overhead_us = 3.0;
  gpu.active_power_w = 2.4;
  c.engines.push_back(gpu);

  c.engines.push_back(PhoneBigCpu(48.0));
  return c;
}

ChipsetDesc Snapdragon865Plus() {
  ChipsetDesc c;
  c.name = "Snapdragon 865+";
  c.generation = "v0.7";
  c.interconnect_gbps = 7.0;

  AcceleratorDesc hta;  // Hexagon Tensor Accelerator
  hta.name = "hta";
  hta.cls = EngineClass::kAip;
  hta.peak_gmacs_int8 = 560.0;
  hta.mem_bw_gbps = 25.0;
  hta.efficiency = {0.7, 0.4, 0.45, 0.15, 0.5};
  hta.efficiency.dilated_scale = 0.12;
  hta.per_layer_overhead_us = 1.8;
  hta.active_power_w = 2.2;
  c.engines.push_back(hta);

  AcceleratorDesc hvx;  // Hexagon Vector eXtensions
  hvx.name = "hvx";
  hvx.cls = EngineClass::kDsp;
  hvx.peak_gmacs_int8 = 260.0;
  hvx.mem_bw_gbps = 20.0;
  hvx.efficiency = {0.55, 0.5, 0.4, 0.1, 0.5, 0.2};
  hvx.per_layer_overhead_us = 2.0;
  hvx.active_power_w = 1.6;
  c.engines.push_back(hvx);

  AcceleratorDesc gpu;  // Adreno 650
  gpu.name = "gpu";
  gpu.cls = EngineClass::kGpu;
  gpu.peak_gmacs_fp16 = 220.0;
  gpu.peak_gmacs_fp32 = 110.0;
  gpu.peak_gmacs_int8 = 220.0;  // quantized models run via the FP16 ALUs
  gpu.mem_bw_gbps = 25.0;
  gpu.efficiency = {0.6, 0.35, 0.66, 0.46, 0.5, 0.5};
  gpu.per_layer_overhead_us = 2.8;
  gpu.active_power_w = 2.4;
  c.engines.push_back(gpu);

  c.engines.push_back(PhoneBigCpu(46.0));
  return c;
}

ChipsetDesc CoreI7_1165G7() {
  ChipsetDesc c;
  c.name = "Core i7-1165G7";
  c.generation = "v0.7";
  c.interconnect_gbps = 30.0;
  c.tdp_w = 28.0;
  c.thermal.capacitance_j_per_c = 60.0;
  c.thermal.resistance_c_per_w = 1.5;
  c.thermal.throttle_start_c = 70.0;
  c.thermal.throttle_limit_c = 95.0;

  AcceleratorDesc cpu;  // 4C/8T Willow Cove with VNNI
  cpu.name = "cpu";
  cpu.cls = EngineClass::kCpuBig;
  cpu.peak_gmacs_int8 = 620.0;
  cpu.peak_gmacs_fp16 = 180.0;
  cpu.peak_gmacs_fp32 = 160.0;
  cpu.mem_bw_gbps = 45.0;
  cpu.efficiency = {0.6, 0.5, 0.6, 0.45, 0.55, 0.7};
  cpu.per_layer_overhead_us = 0.4;
  cpu.active_power_w = 15.0;
  cpu.idle_power_w = 1.0;
  c.engines.push_back(cpu);

  AcceleratorDesc igpu;  // Xe-LP 96 EU
  igpu.name = "igpu";
  igpu.cls = EngineClass::kIGpu;
  igpu.peak_gmacs_int8 = 1100.0;
  igpu.peak_gmacs_fp16 = 550.0;
  igpu.peak_gmacs_fp32 = 280.0;
  igpu.mem_bw_gbps = 45.0;
  igpu.efficiency = {0.55, 0.35, 0.5, 0.35, 0.5, 0.5};
  igpu.per_layer_overhead_us = 3.5;
  igpu.active_power_w = 12.0;
  igpu.idle_power_w = 0.8;
  c.engines.push_back(igpu);
  return c;
}

ChipsetDesc Dimensity1100() {
  ChipsetDesc c = Dimensity820();
  c.name = "Dimensity 1100";
  c.generation = "v1.0";
  c.interconnect_gbps = 8.0;
  // Dual-core MDLA on 6nm: roughly doubled sustained rate (Appendix C).
  auto& apu = c.engines[0];
  apu.peak_gmacs_int8 = 860.0;
  apu.peak_gmacs_fp16 = 300.0;
  apu.per_layer_overhead_us = 1.2;
  // More powerful GPU, "helpful for ML-task acceleration".
  auto& gpu = c.engines[1];
  gpu.peak_gmacs_fp16 = 210.0;
  gpu.peak_gmacs_fp32 = 105.0;
  gpu.peak_gmacs_int8 = 210.0;
  return c;
}

ChipsetDesc Exynos2100() {
  ChipsetDesc c = Exynos990();
  c.name = "Exynos 2100";
  c.generation = "v1.0";
  // The headline fix: data transfer between IP blocks (Appendix C).
  c.interconnect_gbps = 14.0;
  auto& npu = c.engines[0];  // triple-core NPU + DSP, 5nm EUV
  npu.peak_gmacs_int8 = 1550.0;
  // Depthwise support materially improved.
  npu.efficiency = {0.8, 0.45, 0.5, 0.15, 0.55};
  npu.efficiency.dilated_scale = 0.22;
  npu.per_layer_overhead_us = 1.0;
  auto& gpu = c.engines[1];  // Mali-G78 MP14, >40% faster
  gpu.peak_gmacs_fp16 = 520.0;
  gpu.peak_gmacs_fp32 = 260.0;
  gpu.peak_gmacs_int8 = 520.0;
  auto& cpu = c.engines[2];  // tri-cluster CPU, >30% faster multicore
  cpu.peak_gmacs_fp32 = 64.0;
  cpu.peak_gmacs_fp16 = 64.0 * 1.6;
  cpu.peak_gmacs_int8 = 64.0 * 2.8;
  return c;
}

ChipsetDesc Snapdragon888() {
  ChipsetDesc c = Snapdragon865Plus();
  c.name = "Snapdragon 888";
  c.generation = "v1.0";
  c.interconnect_gbps = 9.0;
  // Hexagon 780: scalar/vector/tensor fused into one IP — 73% more
  // throughput and lower cross-engine overhead (Appendix C).
  auto& hta = c.engines[0];
  hta.peak_gmacs_int8 = 560.0 * 1.73;
  hta.per_layer_overhead_us = 1.2;
  hta.efficiency = {0.72, 0.45, 0.5, 0.18, 0.55};
  hta.efficiency.dilated_scale = 0.16;
  auto& hvx = c.engines[1];
  hvx.peak_gmacs_int8 = 330.0;
  auto& gpu = c.engines[2];  // Adreno 660
  gpu.peak_gmacs_fp16 = 420.0;
  gpu.peak_gmacs_fp32 = 210.0;
  gpu.peak_gmacs_int8 = 420.0;
  return c;
}

ChipsetDesc CoreI7_11375H() {
  ChipsetDesc c = CoreI7_1165G7();
  c.name = "Core i7-11375H";
  c.generation = "v1.0";
  auto& cpu = c.engines[0];  // ~1.1x CPU frequency (Appendix C)
  cpu.peak_gmacs_int8 *= 1.1;
  cpu.peak_gmacs_fp16 *= 1.1;
  cpu.peak_gmacs_fp32 *= 1.1;
  auto& igpu = c.engines[1];  // ~1.04x GPU frequency
  igpu.peak_gmacs_int8 *= 1.04;
  igpu.peak_gmacs_fp16 *= 1.04;
  igpu.peak_gmacs_fp32 *= 1.04;
  return c;
}

ChipsetDesc AppleA14() {
  ChipsetDesc c;
  c.name = "Apple A14";
  c.generation = "extension";
  c.interconnect_gbps = 16.0;  // unified-memory fabric

  AcceleratorDesc ane;  // 16-core Apple Neural Engine
  ane.name = "ane";
  ane.cls = EngineClass::kNpu;
  ane.peak_gmacs_int8 = 1400.0;
  ane.peak_gmacs_fp16 = 1400.0;  // the ANE is natively FP16
  ane.mem_bw_gbps = 34.0;
  ane.efficiency = {0.8, 0.5, 0.55, 0.3, 0.55};
  ane.efficiency.dilated_scale = 0.25;
  ane.per_layer_overhead_us = 1.0;
  ane.active_power_w = 2.4;
  c.engines.push_back(ane);

  AcceleratorDesc gpu;  // 4-core Apple GPU
  gpu.name = "gpu";
  gpu.cls = EngineClass::kGpu;
  gpu.peak_gmacs_fp16 = 450.0;
  gpu.peak_gmacs_fp32 = 225.0;
  gpu.peak_gmacs_int8 = 450.0;
  gpu.mem_bw_gbps = 34.0;
  gpu.efficiency = {0.6, 0.35, 0.7, 0.5, 0.5, 0.5};
  gpu.per_layer_overhead_us = 2.5;
  gpu.active_power_w = 2.4;
  c.engines.push_back(gpu);

  c.engines.push_back(PhoneBigCpu(70.0));  // Firestorm cores
  return c;
}

std::vector<ChipsetDesc> CatalogV07() {
  return {Dimensity820(), Exynos990(), Snapdragon865Plus(), CoreI7_1165G7()};
}

std::vector<ChipsetDesc> CatalogV10() {
  return {Dimensity1100(), Exynos2100(), Snapdragon888(), CoreI7_11375H()};
}

}  // namespace mlpm::soc
