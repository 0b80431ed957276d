// Kernel implementation selection: optimized vs reference.
//
// Every hot-path kernel rewritten for speed (BCH syndromes/Chien,
// batched MLC line reads, the Monte-Carlo drift scan) keeps its original
// straight-line implementation compiled in and selectable, so the test
// suite — and any suspicious user — can run the whole system on the
// reference path and demand bit-identical outputs. Selection happens at
// two levels:
//
//   * process-wide: READDUO_KERNELS=reference|optimized (default
//     optimized), read once through the audited env gateway;
//   * per-object: constructors and batch entry points take an explicit
//     KernelMode, where kAuto defers to the process-wide setting.
//
// The contract is strict bit identity across both tiers, with no
// tolerance lane: identical syndromes, decode flags, corrected words,
// levels, counts and intermediate doubles for every input (enforced by
// tests/test_kernels.cpp, which ctest also replays under
// READDUO_KERNELS=reference as `test_kernels_reference`).
//
// A third, vectorized tier (AVX2 lanes over a structure-of-arrays mirror
// of every line) was retired: no workload selected it, and its mirror
// cost 38 bytes per cell, too much memory to make it the default
// (DESIGN.md §10.5). Its enumerator and the SIMD-level query stay only
// because perfbench/pb/main.cpp still names them.
#pragma once

namespace rd {

/// Which implementation of a rewritten kernel to run.
enum class KernelMode {
  kAuto,        ///< defer to READDUO_KERNELS (default: optimized)
  kReference,   ///< original straight-line implementation
  kOptimized,   ///< table-driven / batched implementation
  kVectorized,  ///< retired: resolve_kernel_mode() rejects it
};

/// The process-wide kernel mode from READDUO_KERNELS ("reference" or
/// "optimized"; unset means optimized). Read once per process
/// (thread-safe); any other value throws instead of silently running the
/// default. Never returns kAuto.
KernelMode kernels_mode();

/// Collapse kAuto to the process-wide mode; returns `mode` otherwise.
/// Throws CheckFailure for the retired kVectorized, so no caller is
/// silently downgraded to another tier.
KernelMode resolve_kernel_mode(KernelMode mode);

/// The retired SIMD dispatch levels: only kScalar is left.
enum class SimdLevel {
  kScalar,
};

/// Always kScalar: every kernel runs as scalar code.
inline SimdLevel simd_level() { return SimdLevel::kScalar; }

/// Human-readable name of a SIMD level ("scalar").
inline const char* simd_level_name(SimdLevel) { return "scalar"; }

}  // namespace rd
