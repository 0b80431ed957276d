// Kernel implementation selection: vectorized vs optimized vs reference.
//
// Every hot-path kernel rewritten for speed (BCH syndromes/Chien,
// batched MLC line reads, the Monte-Carlo drift scan) keeps its original
// straight-line implementation compiled in and selectable, so the test
// suite — and any suspicious user — can run the whole system on the
// reference path and demand bit-identical outputs. Selection happens at
// two levels:
//
//   * process-wide: READDUO_KERNELS=reference|optimized|vector (default
//     optimized), read once through the audited env gateway;
//   * per-object: constructors and batch entry points take an explicit
//     KernelMode, where kAuto defers to the process-wide setting.
//
// The contract for integer/bit outputs is strict value equality across
// all three tiers: identical syndromes, decode flags, corrected words,
// levels, and counts for every input (enforced by tests/test_kernels.cpp,
// which run_test_sweep.sh also replays under each READDUO_KERNELS
// value). The FP internals of the vectorized
// drift scan carry a documented tolerance lane instead (DESIGN.md §10.5):
// the SIMD lanes execute the same unfused multiply/add expression tree as
// the scalar helpers, so intermediate doubles agree to the bit except
// that an undrifted cell's `x0 + alpha * 0.0` may normalize `-0.0` to
// `+0.0` — every *decision* derived from them (levels, error counts,
// decode flags) is still bit-identical, and that is what the tests pin.
//
// The vectorized tier additionally dispatches on the host CPU at runtime:
// AVX2 lanes, else scalar. The scalar fallback routes through the
// existing optimized helpers, so kVectorized is always safe to request:
// on a non-x86 or pre-AVX2 host it degrades to kOptimized behavior, never
// to wrong answers. Host detection alone picks the level; tests force the
// scalar fallback in-process through set_simd_level_for_testing.
#pragma once

namespace rd {

/// Which implementation of a rewritten kernel to run.
enum class KernelMode {
  kAuto,        ///< defer to READDUO_KERNELS (default: optimized)
  kReference,   ///< original straight-line implementation
  kOptimized,   ///< table-driven / batched implementation
  kVectorized,  ///< SoA + SIMD lanes; scalar hosts fall back to kOptimized
};

/// The process-wide kernel mode from READDUO_KERNELS ("reference",
/// "optimized" or "vector"; unset means optimized). Read once per process
/// (thread-safe); a set-but-unrecognized value throws instead of silently
/// running the default. Never returns kAuto.
KernelMode kernels_mode();

/// Collapse kAuto to the process-wide mode; returns `mode` otherwise.
inline KernelMode resolve_kernel_mode(KernelMode mode) {
  return mode == KernelMode::kAuto ? kernels_mode() : mode;
}

/// Host SIMD capability tiers the vectorized kernels dispatch over.
/// Ordered: a level implies every lower one.
enum class SimdLevel {
  kScalar,  ///< no SIMD kernels — kVectorized routes to optimized helpers
  kAvx2,    ///< 256-bit lanes (8-wide GF XOR, 4-wide drift, gather Chien)
};

/// The SIMD level the vectorized kernels run at: kAvx2 when this binary
/// compiled the AVX2 lanes in (CMake probes -mavx2) and the host CPU
/// reports AVX2, else kScalar. Detected once per process; thread-safe.
SimdLevel simd_level();

/// Test seam: force simd_level() to return `level` from now on, bypassing
/// detection. Only levels at or below the detected one are honored
/// (RD_CHECK otherwise) — the point is forcing the *scalar fallback* in
/// one process and diffing it against native dispatch, not pretending to
/// have wider registers. Not thread-safe; call from single-threaded test
/// setup only.
void set_simd_level_for_testing(SimdLevel level);

/// Human-readable name of a SIMD level ("scalar" / "avx2").
const char* simd_level_name(SimdLevel level);

}  // namespace rd
