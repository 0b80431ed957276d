// Polynomials over GF(2^m) and GF(2).
//
// Used to build BCH generator polynomials (cyclotomic cosets, minimal
// polynomials); the decoder works on flat coefficient arrays instead.
#pragma once

#include <cstdint>
#include <vector>

#include "gf/gf2m.h"

namespace rd::gf {

/// Dense polynomial over GF(2^m); coeffs_[i] is the coefficient of x^i.
/// The zero polynomial has an empty coefficient vector and degree -1.
class Poly {
 public:
  Poly() = default;
  explicit Poly(std::vector<Elem> coeffs);

  /// The constant polynomial c (zero polynomial if c == 0).
  static Poly constant(Elem c);

  /// Degree; -1 for the zero polynomial.
  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
  bool is_zero() const { return coeffs_.empty(); }

  /// Coefficient of x^i (0 beyond the degree).
  Elem coeff(std::size_t i) const {
    return i < coeffs_.size() ? coeffs_[i] : 0;
  }
  const std::vector<Elem>& coeffs() const { return coeffs_; }

  static Poly mul(const Field& f, const Poly& a, const Poly& b);

  friend bool operator==(const Poly& a, const Poly& b) {
    return a.coeffs_ == b.coeffs_;
  }

 private:
  void trim();
  std::vector<Elem> coeffs_;
};

/// The cyclotomic coset of s modulo 2^m - 1: {s, 2s, 4s, ...}.
std::vector<std::uint32_t> cyclotomic_coset(const Field& f, std::uint32_t s);

/// Minimal polynomial over GF(2) of alpha^s in GF(2^m): the product of
/// (x - alpha^j) over the cyclotomic coset of s. All coefficients are 0/1.
Poly minimal_polynomial(const Field& f, std::uint32_t s);

}  // namespace rd::gf
