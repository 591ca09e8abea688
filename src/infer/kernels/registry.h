// Runtime-dispatched SIMD microkernel registry.
//
// The execution engine's hot inner loops — the conv/FC tap loop over
// blocks of two output positions × four channels, the depthwise per-tap
// multiply-accumulate, the attention matmuls and the FP16 / INT8 output
// numerics — are reached through a `KernelTable` of function pointers
// instead of being called directly.  A `KernelRegistry`
// probes the host CPU once (cpuid-backed `__builtin_cpu_supports` on x86,
// HWCAP/compile-time on AArch64) and selects the best table: AVX2+FMA+F16C,
// NEON, or the portable scalar implementation.
//
// Exactness contract (DESIGN.md §13) — two kinds of entries, plus one
// defined by another entry of the same table:
//   * entries that reassociate (`dot4_f32`, `dw_madd_f32`) may sum across
//     lanes and fuse (FMA), so vectorized tables are only required to match
//     the scalar oracle within a small relative tolerance;
//   * entries that keep the scalar order (`matmul_f32`, `round_half_f32`,
//     `fake_quant_f32`) put their lanes across independent outputs and do
//     each output's arithmetic in the scalar order, one multiply and one add
//     per term, so every table returns the scalar table's exact bits;
//   * `conv_block_f32`, what conv and FC call, returns the same bits as
//     this table's `dot4_f32` call sequence (one call per present tap).
// kernel_dispatch_test enforces all three.
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
  bool avx2 = false;  // AVX2, FMA3 and F16C all present
  bool neon = false;  // AArch64 Advanced SIMD
};

// Probes the host once per call; `KernelRegistry::Global()` caches it.
[[nodiscard]] CpuFeatures DetectCpuFeatures();

// One ISA's implementation of every dispatched microkernel.  All function
// pointers are always non-null.  Contracts mirror the scalar originals:
//
//   dot4_f32       acc[r] += dot(x, w_r, len) for r in 0..3 — the
//                  definition of conv_block_f32's bits; no engine code
//                  calls it directly.
//   conv_block_f32 conv/FC outputs for two positions p (x1 == nullptr:
//                  position 0 only, out1 unused) and channels [0, oc4),
//                  oc4 a multiple of 4.  For each block at oc: acc =
//                  bias[oc..oc+3]; for t in [0, ntaps) ascending, when
//                  x_p[t] != nullptr (null: the tap is outside the image),
//                  dot4_f32(x_p[t], w_r, len, acc) with w_r = w + (oc + r)
//                  * wstride + woff[t]; then out_p[oc..oc+3] = acc (raw
//                  sums: the caller applies the activation and computes the
//                  oc4..OC remainder).
//   dw_madd_f32    acc[c] += x[c] * w[c] for c in [0, channels) — one
//                  depthwise tap over a channel-contiguous weight slice.
//   matmul_f32     c[i][j] = sum_p a[i][p] * b[p][j] over row-major [m,k] a
//                  and [k,n] b with leading dimensions lda/ldb/ldc; each sum
//                  starts at 0.0f and takes p ascending (scalar order).
//   round_half_f32 v[i] = RoundToHalf(v[i]) for i in [0, n) (common/fp16.h).
//   fake_quant_f32 v[i] = (clamp(round(v[i] / scale) + zp, 0, qmax) - zp)
//                  * scale for i in [0, n) — FakeQuantActivation's per-
//                  element step on a grid computed once per tensor.
// The conv/FC call sites block their work in groups of four output features,
// and a feature's arithmetic differs between the blocked path and the
// remainder path.  Every call site runs a node's features from 0, so a
// feature's path depends only on its index; a caller that split the
// features would have to align the split to this block, or the same
// feature would be blocked in one split and remaindered in another.
inline constexpr std::int64_t kF32RowBlock = 4;

struct KernelTable {
  KernelIsa isa = KernelIsa::kScalar;
  const char* name = "scalar";
  void (*dot4_f32)(const float* x, const float* w0, const float* w1,
                   const float* w2, const float* w3, std::int64_t len,
                   float* acc) = nullptr;
  void (*conv_block_f32)(const float* const* x0, const float* const* x1,
                         const std::int64_t* woff, std::int64_t ntaps,
                         const float* w, std::int64_t wstride,
                         std::int64_t len, std::int64_t oc4,
                         const float* bias, float* out0,
                         float* out1) = nullptr;
  void (*dw_madd_f32)(const float* x, const float* w, float* acc,
                      std::int64_t channels) = nullptr;
  void (*matmul_f32)(const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float* c, std::int64_t ldc,
                     std::int64_t m, std::int64_t n, std::int64_t k) = nullptr;
  void (*round_half_f32)(float* v, std::int64_t n) = nullptr;
  void (*fake_quant_f32)(float* v, std::int64_t n, float scale, float zp,
                         float qmax) = nullptr;
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
