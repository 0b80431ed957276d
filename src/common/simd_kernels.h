// SIMD lane kernels behind KernelMode::kVectorized (DESIGN.md §10.5).
//
// Dependency-free raw-pointer kernels so the ECC, drift and PCM layers can
// share one ISA translation unit. The kernels live in simd_avx2.cpp, the
// only TU compiled with -mavx2 (plus -ffp-contract=off) — the rest of the
// build never sees -mavx2, so baseline code cannot silently pick up
// illegal instructions, and no FMA contraction can change FP results. On
// a toolchain where CMake's flag probe fails (non-x86 cross builds), the
// TU compiles to RD_CHECK stubs and have_avx2_kernels() returns false, so
// dispatch (common/kernels.h simd_level()) never reaches them.
//
// Contracts:
//   * integer kernels (syndrome XOR accumulation, Chien stepping) are
//     exactly the optimized kernels' arithmetic — XOR and modular adds
//     are order-insensitive, so outputs are bit-identical;
//   * the drift-metric kernel executes the same unfused a*b+c expression
//     tree as Cell::metric_at_logt / Cell::level_from_metric; lane
//     doubles match the scalar path to the bit except that an undrifted
//     cell evaluates x0 + alpha*0.0 (which may turn -0.0 into +0.0) —
//     level decisions are bit-identical either way.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rd::simd {

/// True when this binary carries the AVX2 kernel bodies (i.e. CMake found
/// the compiler flag). Host support is checked separately at runtime by
/// rd::simd_level().
bool have_avx2_kernels();

// --- batched GF(2^m) syndrome accumulation --------------------------------
//
// XOR-accumulate the position-major syndrome table rows of every set bit
// of a codeword into `acc`. `words` is the codeword's packed 64-bit words
// (nbits valid bits); bit -> polynomial position follows the shortened
// systematic layout: bit < data_bits is data (pos = parity_bits + bit),
// else parity (pos = bit - data_bits). `table` holds `stride` lanes per
// position (odd syndromes first, zero-padded); stride must be a multiple
// of 8 and `acc` must hold `stride` lanes.

void bch_syndrome_acc_avx2(const std::uint64_t* words, std::size_t nbits,
                           unsigned data_bits, unsigned parity_bits,
                           const std::uint32_t* table, std::size_t stride,
                           std::uint32_t* acc);

// --- lane-parallel Chien stepping -----------------------------------------
//
// Scan positions [0, scan) of the error locator, 8 positions per step:
// term i contributes exp_table[(expo[i] + p * step[i]) mod n] at position
// p, terms XOR together, and p is a root when the lane XOR is zero. Roots
// are appended to out_positions in increasing order, stopping after
// `limit` roots; returns the number found. Exactly the optimized
// incremental Chien arithmetic, eight lanes at a time.

std::size_t bch_chien_scan_avx2(const std::uint32_t* exp_table,
                                std::uint32_t n, const std::uint32_t* step,
                                const std::uint32_t* expo, std::size_t terms,
                                std::uint32_t scan, std::size_t limit,
                                std::size_t* out_positions);

// --- vectorized drift-metric evaluation -----------------------------------
//
// SoA inputs, one entry per cell: programmed level (int32, < 4), the
// programming percentile z_program, the drift percentile z_alpha, and the
// per-cell log10(age / t0) (0.0 for undrifted cells). `params` packs the
// per-level drift law and the read boundaries:
//   params[0..3]   mu[level]          params[4..7]   sigma[level]
//   params[8..11]  mu_alpha[level]    params[12..15] sigma_alpha[level]
//   params[16..18] upper boundaries b0 <= b1 <= b2 (monotonicity is the
//                  caller's contract; pcm::drift_lane_params verifies it)
// `offsets` (nullable) adds a per-cell sensing disturbance before the
// boundary compare. out_levels[i] = #{j : x_i > b_j} — identical to
// Cell::level_from_metric for monotone boundaries. Stuck cells are the
// caller's fixup (the kernel does not know about them).

void drift_levels_avx2(std::size_t n, const std::int32_t* level,
                       const double* z_program, const double* z_alpha,
                       const double* log_t, const double* offsets,
                       const double* params, std::uint8_t* out_levels);

}  // namespace rd::simd
