#include "backends/vendor_policy.h"

#include "common/check.h"

namespace mlpm::backends {
namespace {

using models::TaskType;
using soc::ExecutionPolicy;

ExecutionPolicy OnEngine(std::string engine) {
  ExecutionPolicy p;
  p.engines.push_back(std::move(engine));
  return p;
}

// Toolchain maturity per (vendor, task, round): the fraction of the
// hardware roofline the vendor's compiler sustains for that network family.
// Calibrated so the simulated results land on the paper's anchors (Table 3,
// Figure 6 speedups incl. the Exynos 12.7x segmentation jump, Figure 7
// orderings); see EXPERIMENTS.md for paper-vs-simulated values.
struct VendorTau {
  double ic, od, is, nlp;
};

VendorTau TauFor(std::string_view vendor, models::SuiteVersion version) {
  const bool v07 = version == models::SuiteVersion::kV0_7;
  if (vendor == "mediatek")
    return v07 ? VendorTau{0.795, 0.785, 0.321, 1.0}
               : VendorTau{0.826, 0.425, 0.298, 1.0};
  if (vendor == "samsung")
    // v0.7 segmentation: ENN's DeepLab support was effectively broken —
    // together with per-layer NPU<->GPU transfers this produces the 12.7x
    // deficit the Exynos 2100 erased (App. C).
    return v07 ? VendorTau{0.894, 1.0, 0.10, 1.0}
               : VendorTau{1.0, 0.278, 0.418, 1.0};
  if (vendor == "qualcomm")
    return v07 ? VendorTau{0.964, 0.55, 0.268, 1.0}
               : VendorTau{1.0, 0.409, 0.316, 1.0};
  // intel: the v0.7 NLP path lacked the OpenVINO quantized kernel (§7.1).
  return v07 ? VendorTau{1.0, 1.0, 0.984, 0.428}
             : VendorTau{1.0, 0.813, 1.0, 1.0};
}

double TaskTau(const VendorTau& t, TaskType task) {
  switch (task) {
    case TaskType::kImageClassification: return t.ic;
    case TaskType::kObjectDetection: return t.od;
    case TaskType::kImageSegmentation: return t.is;
    case TaskType::kQuestionAnswering: return t.nlp;
  }
  return 1.0;
}

SubmissionConfig MediaTekSubmission(TaskType task,
                                    models::SuiteVersion version) {
  SubmissionConfig s;
  s.task = task;
  if (task == TaskType::kQuestionAnswering) {
    // FP16 on the Mali GPU through the TFLite delegate (Table 2).
    s.numerics = DataType::kFloat16;
    s.framework = TfliteGpuDelegateTraits();
    s.accelerator_label = "Mali-GPU";
    s.single_stream = OnEngine("gpu");
    return s;
  }
  // Vision tasks: UINT8 on the APU.  v0.7 went through NNAPI with the
  // neuron-ann driver; v1.0 switched to the Neuron delegate (vendor path)
  // where possible (§7.1, Table 3).
  s.numerics = DataType::kUInt8;
  s.framework = version == models::SuiteVersion::kV0_7
                    ? NnapiTraits("neuron-ann")
                    : VendorSdkTraits("Neuron Delegate");
  s.accelerator_label = "APU";
  s.single_stream = OnEngine("apu");
  s.single_stream.force_partition_every = s.framework.force_partition_every;
  return s;
}

SubmissionConfig SamsungSubmission(TaskType task,
                                   models::SuiteVersion version) {
  SubmissionConfig s;
  s.task = task;
  s.framework = VendorSdkTraits("ENN");
  switch (task) {
    case TaskType::kImageClassification: {
      s.numerics = DataType::kInt8;
      s.accelerator_label = "NPU+CPU";
      // The tail of the graph (pooling/FC) runs on the CPU; boundary
      // tensors there are tiny so the split is nearly free.
      s.single_stream.engines = {"npu", "cpu"};
      s.single_stream.tail_nodes_on_secondary = 3;
      // Offline IC: genuine ALP — NPU and CPU each chew on samples.
      s.offline_replicas = {OnEngine("npu"), OnEngine("cpu")};
      break;
    }
    case TaskType::kObjectDetection: {
      s.numerics = DataType::kInt8;
      s.accelerator_label = "NPU+CPU";
      // ENN places the SSD prediction heads on the CPU; the v1.0 compiler
      // moved most of them back onto the NPU.
      s.single_stream.engines = {"npu", "cpu"};
      s.single_stream.tail_nodes_on_secondary =
          version == models::SuiteVersion::kV0_7 ? 20 : 8;
      break;
    }
    case TaskType::kImageSegmentation: {
      s.numerics = DataType::kInt8;
      s.accelerator_label = "NPU+GPU";
      // The scheduler bounces DeepLab between NPU and GPU.  On the Exynos
      // 990's slow inter-IP path this is the 12.7x pathology the 2100
      // fixed with faster transfers and coarser scheduling (App. C).
      s.single_stream.engines = {"npu", "gpu"};
      s.single_stream.alternate_every =
          version == models::SuiteVersion::kV0_7 ? 1 : 12;
      break;
    }
    case TaskType::kQuestionAnswering: {
      s.numerics = DataType::kFloat16;
      s.accelerator_label = "GPU";
      s.single_stream = OnEngine("gpu");
      break;
    }
  }
  return s;
}

SubmissionConfig QualcommSubmission(TaskType task, models::SuiteVersion) {
  SubmissionConfig s;
  s.task = task;
  if (task == TaskType::kQuestionAnswering) {
    s.numerics = DataType::kFloat16;
    s.framework = TfliteGpuDelegateTraits();
    s.accelerator_label = "GPU";
    s.single_stream = OnEngine("gpu");
    return s;
  }
  s.numerics = DataType::kUInt8;
  s.framework = VendorSdkTraits("SNPE");
  s.accelerator_label = "HTA";
  s.single_stream = OnEngine("hta");
  if (task == TaskType::kImageClassification) {
    // Offline: the AIP cluster — HTA and HVX concurrently (Table 2).
    s.accelerator_label = "HTA / AIP (HTA+HVX) offline";
    s.offline_replicas = {OnEngine("hta"), OnEngine("hvx")};
  }
  return s;
}

SubmissionConfig IntelSubmission(TaskType task, models::SuiteVersion) {
  SubmissionConfig s;
  s.task = task;
  s.numerics = DataType::kInt8;  // all laptop submissions are INT8 (§7.4)
  s.framework = OpenVinoTraits();
  switch (task) {
    case TaskType::kImageClassification:
      // Small models cannot fill the iGPU from one sample: CPU for
      // single-stream, CPU+GPU for offline (§7.4).
      s.accelerator_label = "CPU / CPU+GPU offline";
      s.single_stream = OnEngine("cpu");
      s.offline_replicas = {OnEngine("cpu"), OnEngine("igpu")};
      break;
    case TaskType::kObjectDetection:
      s.accelerator_label = "CPU";
      s.single_stream = OnEngine("cpu");
      break;
    case TaskType::kImageSegmentation:
    case TaskType::kQuestionAnswering:
      // Heavier models want the iGPU's TOPs (§7.1).
      s.accelerator_label = "GPU";
      s.single_stream = OnEngine("igpu");
      break;
  }
  return s;
}

SubmissionConfig AppleSubmission(TaskType task, models::SuiteVersion) {
  // iOS extension (App. E): Core ML schedules vision onto the ANE and
  // keeps NLP in FP16 where the ANE is natively fast.
  SubmissionConfig s;
  s.task = task;
  s.framework = VendorSdkTraits("Core ML");
  if (task == TaskType::kQuestionAnswering) {
    s.numerics = DataType::kFloat16;
    s.accelerator_label = "ANE";
    s.single_stream = OnEngine("ane");
    return s;
  }
  s.numerics = DataType::kInt8;
  s.accelerator_label = "ANE";
  s.single_stream = OnEngine("ane");
  s.single_stream.toolchain_efficiency = 0.7;  // young MLPerf port
  if (task == TaskType::kImageClassification)
    s.offline_replicas = {OnEngine("ane"), OnEngine("gpu")};
  return s;
}

}  // namespace

SubmissionConfig GetSubmission(const soc::ChipsetDesc& chipset,
                               models::TaskType task,
                               models::SuiteVersion version) {
  SubmissionConfig s;
  std::string_view vendor;
  if (chipset.name.starts_with("Dimensity")) {
    s = MediaTekSubmission(task, version);
    vendor = "mediatek";
  } else if (chipset.name.starts_with("Exynos")) {
    s = SamsungSubmission(task, version);
    vendor = "samsung";
  } else if (chipset.name.starts_with("Snapdragon")) {
    s = QualcommSubmission(task, version);
    vendor = "qualcomm";
  } else if (chipset.name.starts_with("Core i7")) {
    s = IntelSubmission(task, version);
    vendor = "intel";
  } else if (chipset.name.starts_with("Apple")) {
    // Extension chipset: the toolchain factor is set inside the policy.
    s = AppleSubmission(task, version);
    s.chipset_name = chipset.name;
    for (auto& replica : s.offline_replicas)
      replica.toolchain_efficiency = 1.0;
    return s;
  } else {
    Expects(false,
            [&] { return "no vendor policy for chipset " + chipset.name; });
  }
  s.chipset_name = chipset.name;
  const double tau = TaskTau(TauFor(vendor, version), task);
  s.single_stream.toolchain_efficiency = tau;
  // Offline compilation saturates the roofline: large fixed batches let the
  // toolchain hide the inefficiencies that cost it in single-stream mode.
  for (auto& replica : s.offline_replicas)
    replica.toolchain_efficiency = 1.0;
  return s;
}

soc::CompiledModel CompileSubmission(const soc::ChipsetDesc& chipset,
                                     const SubmissionConfig& config,
                                     const graph::Graph& model) {
  return soc::Compile(model, config.numerics, chipset, config.single_stream,
                      config.framework.ToOverheads());
}

std::vector<soc::CompiledModel> CompileOfflineReplicas(
    const soc::ChipsetDesc& chipset, const SubmissionConfig& config,
    const graph::Graph& model) {
  std::vector<soc::CompiledModel> replicas;
  if (config.offline_replicas.empty()) return replicas;
  // Without multi-accelerator support (NNAPI), only the primary replica runs.
  const std::size_t count = config.framework.multi_accelerator_offline
                                ? config.offline_replicas.size()
                                : 1;
  for (std::size_t i = 0; i < count; ++i)
    replicas.push_back(soc::Compile(model, config.numerics, chipset,
                                    config.offline_replicas[i],
                                    config.framework.ToOverheads(),
                                    /*batched=*/true));
  return replicas;
}

}  // namespace mlpm::backends
