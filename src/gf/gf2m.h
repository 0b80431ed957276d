// GF(2^m) arithmetic via exp/log tables.
//
// Substrate for the BCH codec: the 512-bit MLC PCM line uses a BCH code over
// GF(2^10) (n = 1023 shortened to 592). Fields for m in [3, 14] are
// supported with standard primitive polynomials.
//
// Performance note (DESIGN.md §10): the exp table is stored doubled
// (length 2 * order), so mul / div / inv / sqr are a table add plus one
// lookup with no modulo — the BCH syndrome and Chien kernels lean on this.
// All operations are pure functions of their arguments and the field size:
// deterministic, thread-safe after construction, and identical across
// kernel modes (the Field itself has no reference/optimized split).
#pragma once

#include <cstdint>
#include <vector>

namespace rd::gf {

/// An element of GF(2^m), represented by its polynomial bits.
using Elem = std::uint32_t;

/// GF(2^m) with tables for O(1) multiply/divide/inverse.
///
/// Elements are in [0, 2^m - 1]; 0 is the additive identity, 1 the
/// multiplicative identity, and `alpha()` a primitive element.
class Field {
 public:
  /// Construct GF(2^m). Requires 3 <= m <= 14. O(2^m) table build; a
  /// constructed Field is immutable and safe to share across threads.
  explicit Field(unsigned m);

  /// Field degree m (elements are m-bit polynomials).
  unsigned m() const { return m_; }
  /// Field size 2^m.
  std::uint32_t size() const { return size_; }
  /// Multiplicative group order 2^m - 1.
  std::uint32_t order() const { return size_ - 1; }
  /// The primitive element alpha (= x, i.e. 2).
  Elem alpha() const { return 2; }

  /// Addition == subtraction == XOR in characteristic 2.
  static Elem add(Elem a, Elem b) { return a ^ b; }

  /// a * b. The log sum is at most 2 * order - 2, inside the doubled exp
  /// table, so no reduction is needed.
  Elem mul(Elem a, Elem b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];
  }

  /// a^2. Exact (the Frobenius map); one lookup, no branch on a != 0
  /// beyond the zero guard. sqr(a) == mul(a, a) for every a.
  Elem sqr(Elem a) const {
    if (a == 0) return 0;
    return exp_[2 * log_[a]];
  }

  /// a / b. Requires b != 0.
  Elem div(Elem a, Elem b) const;

  /// Multiplicative inverse. Requires a != 0.
  Elem inv(Elem a) const;

  /// a^k for any integer k (negative exponents via inverse). a != 0 unless
  /// k > 0.
  Elem pow(Elem a, std::int64_t k) const;

  /// alpha^k (k taken mod the group order; negative allowed).
  Elem alpha_pow(std::int64_t k) const;

  /// alpha^k for k already reduced to [0, 2 * order): a single table
  /// lookup with no modulo. The fast-path sibling of alpha_pow for kernels
  /// that maintain reduced exponents themselves (BCH syndrome tables,
  /// incremental Chien search).
  Elem alpha_pow_reduced(std::uint32_t k) const { return exp_[k]; }

  /// Discrete log base alpha. Requires a != 0. Inverse of alpha_pow on
  /// [0, order).
  std::uint32_t log(Elem a) const;

  /// The primitive polynomial used for this m (bits, degree m term
  /// included), e.g. 0x409 = x^10 + x^3 + 1 for m = 10.
  std::uint32_t primitive_poly() const { return prim_; }

 private:
  unsigned m_;
  std::uint32_t size_;
  std::uint32_t prim_;
  std::vector<Elem> exp_;          // exp_[i] = alpha^i, i in [0, 2*order)
  std::vector<std::uint32_t> log_; // log_[a] for a in [1, size)
};

}  // namespace rd::gf
