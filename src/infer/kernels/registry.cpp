#include "infer/kernels/registry.h"

#if defined(__aarch64__) && __has_include(<sys/auxv.h>)
#include <sys/auxv.h>
#if defined(HWCAP_ASIMD)
#define MLPM_KERNELS_USE_HWCAP 1
#endif
#endif

namespace mlpm::infer::kernels {

std::optional<KernelIsa> ParseKernelIsa(std::string_view name) {
  if (name == "auto") return KernelIsa::kAuto;
  if (name == "scalar") return KernelIsa::kScalar;
  if (name == "avx2") return KernelIsa::kAvx2;
  if (name == "neon") return KernelIsa::kNeon;
  return std::nullopt;
}

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
#if defined(__GNUC__) || defined(__clang__)
  // cpuid-backed: AVX2, FMA3 and F16C must all be present (the avx2 table
  // assumes fused multiply-add and rounds FP16 with vcvtps2ph).
  f.avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
           __builtin_cpu_supports("f16c");
#endif
#elif defined(__aarch64__)
#if defined(MLPM_KERNELS_USE_HWCAP)
  f.neon = (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  // ASIMD is architecturally mandatory on AArch64.
  f.neon = true;
#endif
#endif
  return f;
}

// Fallback definitions for tables not compiled into this binary.  The real
// definitions live in avx2.cpp / neon.cpp behind the same macros, so exactly
// one definition of each exists per build.
#if !defined(MLPM_KERNELS_HAVE_AVX2)
const KernelTable* Avx2KernelsOrNull() { return nullptr; }
#endif
#if !(defined(MLPM_KERNELS_HAVE_NEON) && defined(__aarch64__))
const KernelTable* NeonKernelsOrNull() { return nullptr; }
#endif

const KernelRegistry& KernelRegistry::Global() {
  static const KernelRegistry registry;
  return registry;
}

bool KernelRegistry::Available(KernelIsa isa) const {
  switch (isa) {
    case KernelIsa::kAuto:
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
      return features_.avx2 && Avx2KernelsOrNull() != nullptr;
    case KernelIsa::kNeon:
      return features_.neon && NeonKernelsOrNull() != nullptr;
  }
  return false;
}

KernelIsa KernelRegistry::Resolve(KernelIsa requested) const {
  if (requested == KernelIsa::kAuto) {
    if (Available(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
    if (Available(KernelIsa::kNeon)) return KernelIsa::kNeon;
    return KernelIsa::kScalar;
  }
  return Available(requested) ? requested : KernelIsa::kScalar;
}

const KernelTable& KernelRegistry::Select(KernelIsa requested) const {
  switch (Resolve(requested)) {
    case KernelIsa::kAvx2:
      return *Avx2KernelsOrNull();
    case KernelIsa::kNeon:
      return *NeonKernelsOrNull();
    default:
      return ScalarKernels();
  }
}

std::vector<KernelIsa> KernelRegistry::AvailableIsas() const {
  std::vector<KernelIsa> isas;
  if (Available(KernelIsa::kAvx2)) isas.push_back(KernelIsa::kAvx2);
  if (Available(KernelIsa::kNeon)) isas.push_back(KernelIsa::kNeon);
  isas.push_back(KernelIsa::kScalar);
  return isas;
}

}  // namespace mlpm::infer::kernels
