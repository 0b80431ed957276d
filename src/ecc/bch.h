// Binary BCH encoder/decoder.
//
// The paper attaches a BCH-8 code over GF(2^10) to each 512-bit MLC line:
// 80 parity bits, correcting any 8 bit errors and (with detection decoupled
// from correction, Section III-B) detecting up to 17. This is a complete
// hard-decision implementation: systematic LFSR encoding (a word-wide
// register, one shift per data bit), syndrome computation,
// Berlekamp–Massey, and Chien search.
//
// Syndrome computation and the Chien search are the decode hot path (every
// R-read and every scrub pays them), so both exist in two selectable
// implementations (DESIGN.md §10):
//
//   * reference — per-bit polynomial evaluation via Field::alpha_pow and a
//     full-period Chien scan, exactly the original straight-line code;
//   * optimized — word-parallel scan of the received word's set bits
//     against a precomputed position-major table of alpha^(pos * k) for
//     the odd k only (the even syndromes follow from S_2k = S_k^2 in
//     characteristic 2), one contiguous row per set bit, and an
//     incremental log-stepped Chien search over the shortened positions
//     with an early exit once all roots are found;
//   * vectorized — the optimized arithmetic in SIMD lanes (DESIGN.md
//     §10.5): the same position-major syndrome table XOR-accumulated 8
//     odd syndromes at a time per set bit, and a gather-based Chien scan
//     evaluating 8 positions per step, both AVX2. Dispatch is per call on
//     rd::simd_level(); scalar hosts route to the optimized kernels, so
//     kVectorized never changes results, only speed.
//
// All tiers produce identical syndromes, identical decode outcomes, and
// identical corrected words for every input — these are pure GF(2^m)
// integer kernels, so the equality is exact, not approximate
// (tests/test_kernels.cpp cross-checks them exhaustively per weight and
// through whole-chip lifetimes).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitvec.h"
#include "common/kernels.h"
#include "gf/gf2m.h"
#include "gf/poly.h"

namespace rd::ecc {

/// Outcome of a BCH decode attempt.
struct BchDecodeResult {
  /// True when the decoder produced a codeword (zero syndromes after fix).
  bool corrected = false;
  /// Number of bit positions flipped when corrected == true.
  unsigned num_corrected = 0;
  /// True when errors were detected but exceeded the correction power.
  bool detected_uncorrectable = false;
};

/// A systematic, shortened binary BCH code.
///
/// Codewords are laid out data-first: bits [0, data_bits) carry the payload
/// and bits [data_bits, data_bits + parity_bits) the parity. Shortening
/// from n = 2^m - 1 is implicit (leading zero message bits).
class BchCode {
 public:
  /// Build a t-error-correcting code over GF(2^m) for the given payload
  /// size. Requires data_bits + parity <= 2^m - 1. `mode` selects the
  /// syndrome/Chien kernels (kAuto: READDUO_KERNELS, default optimized);
  /// decode results are bit-identical either way. A constructed code is
  /// immutable and safe to share across threads.
  BchCode(unsigned m, unsigned t, unsigned data_bits,
          KernelMode mode = KernelMode::kAuto);

  /// Correction power t (design distance 2t + 1).
  unsigned t() const { return t_; }
  /// Payload size in bits.
  unsigned data_bits() const { return data_bits_; }
  /// Parity size in bits (degree of the generator polynomial).
  unsigned parity_bits() const { return parity_bits_; }
  /// Total codeword size data_bits + parity_bits.
  unsigned codeword_bits() const { return data_bits_ + parity_bits_; }
  /// Design distance 2t + 1.
  unsigned design_distance() const { return 2 * t_ + 1; }
  /// The kernel implementation this instance runs (never kAuto).
  KernelMode kernel_mode() const { return mode_; }

  /// Encode payload (size data_bits) into a codeword (size codeword_bits).
  BitVec encode(const BitVec& data) const;

  /// The parity bits for the payload (size parity_bits; bit i is the
  /// coefficient of x^i of the remainder), as encode() appends them.
  BitVec parity(const BitVec& data) const;

  /// Decode in place. Returns the decode outcome; when corrected, the
  /// codeword argument holds the fixed codeword.
  BchDecodeResult decode(BitVec& codeword) const;

  /// decode() plus a post-fix syndrome recheck: a "corrected" outcome
  /// whose fixed word is not actually a codeword is downgraded to
  /// detected_uncorrectable. Belt-and-braces for adversarial patterns at
  /// the 9..17-error detection boundary (READDUO_FAULTS "bch" class),
  /// where a decoder bug could otherwise surface as silent corruption.
  BchDecodeResult decode_verified(BitVec& codeword) const;

  /// Syndrome-only check: true iff the word is a codeword (no errors
  /// detected). Cheaper than a full decode.
  bool is_codeword(const BitVec& codeword) const;

  /// Syndromes S_1 .. S_2t of the received word, as a vector indexed
  /// [0, 2t] with slot 0 unused (zero). Exposed so the kernel-equivalence
  /// tests and micro-benchmarks can compare implementations element by
  /// element; decode() consumes the same values internally.
  std::vector<gf::Elem> compute_syndromes(const BitVec& word) const;

  /// The generator polynomial over GF(2) (bits are 0/1 coefficients).
  const gf::Poly& generator() const { return gen_; }

  /// The underlying GF(2^m) field.
  const gf::Field& field() const { return field_; }

 private:
  /// Syndromes S_1 .. S_2t of the received word; returns true if all zero.
  /// Dispatches on mode_.
  bool syndromes(const BitVec& word, std::vector<gf::Elem>& s) const;
  bool syndromes_reference(const BitVec& word, std::vector<gf::Elem>& s) const;
  bool syndromes_optimized(const BitVec& word, std::vector<gf::Elem>& s) const;
  bool syndromes_vectorized(const BitVec& word, std::vector<gf::Elem>& s) const;

  /// Chien search: collect the polynomial positions p with C(alpha^-p) == 0.
  /// `limit` bounds how many roots the caller can use (locator degree L);
  /// all implementations return the same positions in increasing order.
  std::vector<std::size_t> chien_reference(const std::vector<gf::Elem>& C,
                                           unsigned limit) const;
  std::vector<std::size_t> chien_optimized(const std::vector<gf::Elem>& C,
                                           unsigned limit) const;
  std::vector<std::size_t> chien_vectorized(const std::vector<gf::Elem>& C,
                                            unsigned limit) const;

  gf::Field field_;
  unsigned t_;
  unsigned data_bits_;
  unsigned parity_bits_;
  KernelMode mode_;
  gf::Poly gen_;
  /// gen_ without its leading x^parity term, packed into 64-bit words
  /// (bit i = coefficient of x^i): the word-register LFSR encoder's
  /// feedback mask.
  std::vector<std::uint64_t> gen_mask_;
  /// Syndrome table, position-major: syn_pos_[pos * syn_stride_ + r] =
  /// alpha^(pos * (2r + 1)) for each odd syndrome 2r + 1 in [1, 2t]; even
  /// syndromes are derived by squaring. The stride is t rounded up to 8
  /// lanes (zero padded), so one set bit reads one contiguous row: blocks
  /// of 8 scalar XORs on the optimized tier, a single 256-bit XOR at t = 8
  /// on the vectorized one. Positions only span the shortened codeword
  /// [0, codeword_bits), not all of [0, n): a received bit can never map
  /// beyond that. 19 KiB for the paper's BCH-8 over GF(2^10). Shared by
  /// both non-reference tiers and empty in reference mode; the SIMD
  /// kernels take t <= 32 (their register cap), larger t runs the scalar
  /// kernel on this table.
  std::vector<gf::Elem> syn_pos_;
  std::size_t syn_stride_ = 0;
};

}  // namespace rd::ecc
