// Binary BCH encoder/decoder.
//
// The paper attaches a BCH-8 code over GF(2^10) to each 512-bit MLC line:
// 80 parity bits, correcting any 8 bit errors and (with detection decoupled
// from correction, Section III-B) detecting up to 17. This is a complete
// hard-decision implementation: systematic encoding, syndromes,
// Berlekamp–Massey and root finding.
//
// One kernel sits under both encode and decode: the remainder r(x) mod
// g(x), computed by a byte-wise LFSR from a 256-row table of c(x)·x^parity
// mod g(x) (4 KiB for BCH-8). Encoding is that remainder of x^parity·d(x);
// a received word's remainder is the re-encoded data part XOR its received
// parity, and it is zero exactly when the word is a codeword.
//
// Every R-read and every scrub decodes, so decode is split into two
// selectable tiers (DESIGN.md §10); encode, Berlekamp–Massey and the
// decode body are shared:
//
//   * reference — per-bit syndrome evaluation via Field::alpha_pow over the
//     whole received word and a full-period Chien scan, the original
//     straight-line code;
//   * optimized — syndromes from the remainder: a zero remainder ends the
//     decode (a clean word), otherwise each of its set bits XORs one
//     contiguous row of alpha^(pos * k) for the odd k (S_2k = S_k^2 gives
//     the even ones). This is exact because g(alpha^k) = 0 for k <= 2t.
//     Roots: log(C_1) for a degree-1 locator, a 2^m-entry table of the
//     solutions of z^2 + z = c for degree 2, and an incremental Chien scan
//     over the shortened positions with an early exit above that.
//
// Both tiers produce identical syndromes, identical decode outcomes, and
// identical corrected words for every input — these are pure GF(2^m)
// integer kernels, so the equality is exact, not approximate
// (tests/test_kernels.cpp cross-checks them per weight and through
// whole-chip lifetimes).
#pragma once

#include <cstdint>
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
  /// Largest correction power: decode() keeps its syndromes and
  /// Berlekamp–Massey polynomials in fixed arrays sized by it, so a decode
  /// allocates nothing.
  static constexpr unsigned kMaxT = 64;

  /// Build a t-error-correcting code over GF(2^m) for the given payload
  /// size. Requires 1 <= t <= kMaxT and data_bits + parity <= 2^m - 1.
  /// `mode` selects the syndrome/root-finding kernels (kAuto:
  /// READDUO_KERNELS, default optimized); decode results are bit-identical
  /// either way. A constructed code is immutable and safe to share across
  /// threads.
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
  /// codeword argument holds the fixed codeword. On failure the word is
  /// left as received.
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
  /// Words of the largest remainder register: parity <= m * t bits with
  /// m <= 14 and t <= kMaxT.
  static constexpr std::size_t kMaxParityWords = (14 * kMaxT + 63) / 64;

  /// x^parity * d(x) mod g(x) for the payload held in bits
  /// [0, data_bits) of `words` (bits above are ignored, so a whole
  /// codeword may be passed), written to reg[0, parity_words_) with bit i
  /// the coefficient of x^i.
  void data_remainder(const std::vector<std::uint64_t>& words,
                      std::uint64_t* reg) const;

  /// The byte-wise LFSR over the payload, one instantiation per register
  /// width in words so the register stays in locals. Leaves the remainder
  /// left-aligned, as the table rows are.
  using RemainderKernel = void (*)(const std::uint64_t* table,
                                   const std::uint64_t* data,
                                   unsigned data_bits, std::uint64_t* reg);

  /// Syndromes S_1 .. S_2t of the received word into s[0, 2t] (s[0] = 0);
  /// returns true if all are zero. Dispatches on mode_.
  bool syndromes(const BitVec& word, gf::Elem* s) const;
  bool syndromes_reference(const BitVec& word, gf::Elem* s) const;
  bool syndromes_optimized(const BitVec& word, gf::Elem* s) const;

  /// Error positions of the degree-L locator C[0, L] (polynomial
  /// positions p with C(alpha^-p) == 0) into pos; returns how many were
  /// found. A count other than L, or a position >= codeword_bits, means
  /// the word is uncorrectable. Dispatches on mode_: the reference scans
  /// the full period, the optimized tier solves L <= 2 in closed form and
  /// scans the shortened positions above that.
  unsigned roots(const gf::Elem* C, unsigned L, std::uint32_t* pos) const;
  unsigned chien_reference(const gf::Elem* C, unsigned L,
                           std::uint32_t* pos) const;
  unsigned chien_optimized(const gf::Elem* C, unsigned L,
                           std::uint32_t* pos) const;

  gf::Field field_;
  unsigned t_;
  unsigned data_bits_;
  unsigned parity_bits_;
  KernelMode mode_;
  gf::Poly gen_;
  /// ceil(parity_bits / 64): the words of a remainder.
  std::size_t parity_words_ = 0;
  /// The byte-wise LFSR table, value-major: row c (parity_words_ words at
  /// lfsr_[c * parity_words_]) is c(x) * x^parity mod g(x) for the 256
  /// polynomials c of degree < 8, left-aligned (the coefficient of x^i at
  /// bit i + 64 * parity_words_ - parity_bits) so the kernel's top byte is
  /// always the top word's top byte. 4 KiB for BCH-8.
  std::vector<std::uint64_t> lfsr_;
  RemainderKernel remainder_kernel_ = nullptr;
  /// Syndrome table, position-major: syn_pos_[pos * syn_stride_ + r] =
  /// alpha^(pos * (2r + 1)) for each odd syndrome 2r + 1 in [1, 2t]; even
  /// syndromes are derived by squaring. The stride is t rounded up to 8
  /// lanes (zero padded), so one set remainder bit reads one contiguous row
  /// in blocks of 8 XORs. Rows only span the remainder's positions
  /// [0, parity_bits): 2.5 KiB for BCH-8. Empty in reference mode.
  std::vector<gf::Elem> syn_pos_;
  std::size_t syn_stride_ = 0;
  /// quad_root_[c] = a solution z of z^2 + z = c, the other being z ^ 1;
  /// 0 when c != 0 has none (trace 1). 2^m entries, 2 KiB for GF(2^10).
  /// Empty in reference mode.
  std::vector<std::uint16_t> quad_root_;
};

}  // namespace rd::ecc
