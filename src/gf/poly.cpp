#include "gf/poly.h"

#include "common/check.h"

namespace rd::gf {

Poly::Poly(std::vector<Elem> coeffs) : coeffs_(std::move(coeffs)) { trim(); }

Poly Poly::constant(Elem c) {
  Poly p;
  if (c != 0) p.coeffs_ = {c};
  return p;
}

void Poly::trim() {
  while (!coeffs_.empty() && coeffs_.back() == 0) coeffs_.pop_back();
}

Poly Poly::mul(const Field& f, const Poly& a, const Poly& b) {
  if (a.is_zero() || b.is_zero()) return {};
  std::vector<Elem> out(a.coeffs_.size() + b.coeffs_.size() - 1, 0);
  for (std::size_t i = 0; i < a.coeffs_.size(); ++i) {
    if (a.coeffs_[i] == 0) continue;
    for (std::size_t j = 0; j < b.coeffs_.size(); ++j) {
      out[i + j] ^= f.mul(a.coeffs_[i], b.coeffs_[j]);
    }
  }
  return Poly(std::move(out));
}

std::vector<std::uint32_t> cyclotomic_coset(const Field& f, std::uint32_t s) {
  const std::uint32_t n = f.order();
  std::vector<std::uint32_t> coset;
  std::uint32_t x = s % n;
  do {
    coset.push_back(x);
    x = static_cast<std::uint32_t>((2ull * x) % n);
  } while (x != s % n);
  return coset;
}

Poly minimal_polynomial(const Field& f, std::uint32_t s) {
  Poly m = Poly::constant(1);
  for (std::uint32_t j : cyclotomic_coset(f, s)) {
    // (x + alpha^j); addition is subtraction in char 2.
    Poly factor(std::vector<Elem>{f.alpha_pow(j), 1});
    m = Poly::mul(f, m, factor);
  }
  // Minimal polynomials over GF(2) must have 0/1 coefficients.
  for (Elem c : m.coeffs()) RD_CHECK(c == 0 || c == 1);
  return m;
}

}  // namespace rd::gf
