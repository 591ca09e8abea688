// Runtime-dispatched SIMD microkernel registry.
//
// The execution engine's hot inner loops — the conv/FC 4-wide dot product
// and the depthwise per-tap multiply-accumulate — are reached through a
// `KernelTable` of function pointers instead of being called directly.  A
// `KernelRegistry` probes the host CPU once (cpuid-backed
// `__builtin_cpu_supports` on x86, HWCAP/compile-time on AArch64) and
// selects the best table: AVX2+FMA, NEON, or the portable scalar
// implementation.
//
// Exactness contract (DESIGN.md §13): the f32 kernels may reassociate and
// fuse (FMA), so vectorized tables are only required to match the scalar
// oracle within a small relative tolerance, enforced by kernel_dispatch_test.
//
// The scalar table is the portable fallback AND the oracle: it reproduces the
// pre-dispatch arithmetic order exactly, so a forced `--kernel-isa scalar`
// run is bit-identical to the engine before this registry existed.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace mlpm::infer::kernels {

// `kAuto` resolves to the best table the host supports; the concrete values
// force a table (falling back to scalar when the request is unavailable —
// the analysis pass flags that as diagnostic RUN007 before the run starts).
enum class KernelIsa : std::uint8_t { kAuto = 0, kScalar, kAvx2, kNeon };

[[nodiscard]] constexpr std::string_view ToString(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAuto: return "auto";
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kNeon: return "neon";
  }
  return "?";
}

// Parses "auto" / "scalar" / "avx2" / "neon"; nullopt for anything else.
[[nodiscard]] std::optional<KernelIsa> ParseKernelIsa(std::string_view name);

// What the host CPU can execute (independent of what this binary was
// compiled with; `KernelRegistry::Available` intersects the two).
struct CpuFeatures {
  bool avx2 = false;  // AVX2 and FMA3 both present
  bool neon = false;  // AArch64 Advanced SIMD
};

// Probes the host once per call; `KernelRegistry::Global()` caches it.
[[nodiscard]] CpuFeatures DetectCpuFeatures();

// One ISA's implementation of every dispatched microkernel.  All function
// pointers are always non-null.  Contracts mirror the scalar originals:
//
//   dot4_f32       acc[r] += dot(x, w_r, len) for r in 0..3 — the conv and
//                  fully-connected 4-output-channel inner loop.
//   dw_madd_f32    acc[c] += x[c] * w[c] for c in [0, channels) — one
//                  depthwise tap over a channel-contiguous weight slice.
// The dot4 call sites block their work in groups of four output features,
// and a feature's arithmetic differs between the blocked path and the
// remainder path.  The engine guarantees bit-identical results for ANY
// thread count (DESIGN.md §8), so every parallel caller must align its
// chunk boundaries to this block: otherwise the same feature would be
// blocked in one partition and remaindered in another.
inline constexpr std::int64_t kF32RowBlock = 4;

struct KernelTable {
  KernelIsa isa = KernelIsa::kScalar;
  const char* name = "scalar";
  void (*dot4_f32)(const float* x, const float* w0, const float* w1,
                   const float* w2, const float* w3, std::int64_t len,
                   float* acc) = nullptr;
  void (*dw_madd_f32)(const float* x, const float* w, float* acc,
                      std::int64_t channels) = nullptr;
};

// The portable table — always present, the bit-exactness oracle.
[[nodiscard]] const KernelTable& ScalarKernels();

// Vectorized tables, or nullptr when the ISA was not compiled into this
// binary (e.g. avx2 on an ARM build).  Presence here says nothing about the
// host CPU — use KernelRegistry::Available for runtime availability.
[[nodiscard]] const KernelTable* Avx2KernelsOrNull();
[[nodiscard]] const KernelTable* NeonKernelsOrNull();

// Resolves an ISA request against (compiled-in tables ∩ host features).
// Selection is pure given `features`, so tests can inject synthetic feature
// sets; production code uses the process-wide `Global()` instance, which
// probes the host exactly once.
class KernelRegistry {
 public:
  KernelRegistry() : KernelRegistry(DetectCpuFeatures()) {}
  explicit KernelRegistry(const CpuFeatures& features) : features_(features) {}

  [[nodiscard]] static const KernelRegistry& Global();

  [[nodiscard]] const CpuFeatures& features() const { return features_; }

  // True when `isa` can actually run here: its table is compiled in and the
  // host CPU supports it.  kAuto and kScalar are always available.
  [[nodiscard]] bool Available(KernelIsa isa) const;

  // The concrete ISA a request lands on: kAuto picks the best available
  // table; an unavailable forced ISA falls back to kScalar (never fails
  // mid-run — lint reports RUN007 up front instead).
  [[nodiscard]] KernelIsa Resolve(KernelIsa requested) const;

  // The table `Resolve(requested)` names.
  [[nodiscard]] const KernelTable& Select(KernelIsa requested) const;

  // Every concrete ISA available on this host, best first (no kAuto).
  [[nodiscard]] std::vector<KernelIsa> AvailableIsas() const;

 private:
  CpuFeatures features_;
};

}  // namespace mlpm::infer::kernels
