#include "gf/gf2m.h"

#include "common/check.h"

namespace rd::gf {

namespace {

// Standard primitive polynomials over GF(2), indexed by m.
constexpr std::uint32_t kPrimitive[] = {
    0,      0,      0,
    0xB,    // m=3:  x^3 + x + 1
    0x13,   // m=4:  x^4 + x + 1
    0x25,   // m=5:  x^5 + x^2 + 1
    0x43,   // m=6:  x^6 + x + 1
    0x89,   // m=7:  x^7 + x^3 + 1
    0x11D,  // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0x211,  // m=9:  x^9 + x^4 + 1
    0x409,  // m=10: x^10 + x^3 + 1
    0x805,  // m=11: x^11 + x^2 + 1
    0x1053, // m=12: x^12 + x^6 + x^4 + x + 1
    0x201B, // m=13: x^13 + x^4 + x^3 + x + 1
    0x4443, // m=14: x^14 + x^10 + x^6 + x + 1
};

}  // namespace

Field::Field(unsigned m) : m_(m) {
  RD_CHECK_MSG(m >= 3 && m <= 14, "GF(2^m) supported for m in [3,14]");
  size_ = 1u << m;
  prim_ = kPrimitive[m];
  exp_.resize(2 * order());
  log_.assign(size_, 0);

  Elem x = 1;
  for (std::uint32_t i = 0; i < order(); ++i) {
    exp_[i] = x;
    log_[x] = i;
    x <<= 1;
    if (x & size_) x ^= prim_;
  }
  // Duplicate the table: any exponent in [0, 2*order) resolves with a
  // plain lookup, so mul/div/sqr never pay a modulo.
  for (std::uint32_t i = 0; i < order(); ++i) exp_[order() + i] = exp_[i];
}

Elem Field::div(Elem a, Elem b) const {
  RD_CHECK(b != 0);
  if (a == 0) return 0;
  // log_[a] + order - log_[b] is in [1, 2*order - 1): inside the doubled
  // exp table.
  return exp_[log_[a] + order() - log_[b]];
}

Elem Field::alpha_pow(std::int64_t k) const {
  const std::int64_t n = order();
  return exp_[((k % n) + n) % n];
}

std::uint32_t Field::log(Elem a) const {
  RD_CHECK(a != 0);
  RD_CHECK(a < size_);
  return log_[a];
}

}  // namespace rd::gf
