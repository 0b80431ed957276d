// Unit tests for GF(2^m) arithmetic and polynomials — the BCH substrate.
#include "gf/gf2m.h"
#include "gf/poly.h"

#include <set>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace rd::gf {
namespace {

class FieldM : public ::testing::TestWithParam<unsigned> {
 protected:
  Field f{GetParam()};
};

TEST_P(FieldM, ExpLogRoundTrip) {
  for (Elem a = 1; a < f.size(); ++a) {
    EXPECT_EQ(f.alpha_pow(f.log(a)), a);
  }
}

TEST_P(FieldM, MultiplicativeInverse) {
  for (Elem a = 1; a < f.size(); ++a) {
    EXPECT_EQ(f.mul(a, f.div(1, a)), 1u) << "a=" << a;
  }
}

TEST_P(FieldM, AlphaIsPrimitive) {
  // alpha^k hits every nonzero element exactly once over a full period.
  std::set<Elem> seen;
  for (std::uint32_t k = 0; k < f.order(); ++k) {
    seen.insert(f.alpha_pow(k));
  }
  EXPECT_EQ(seen.size(), f.order());
  EXPECT_EQ(f.alpha_pow(f.order()), 1u);
}

TEST_P(FieldM, MulCommutativeAssociativeSampled) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Elem a = static_cast<Elem>(rng.uniform_below(f.size()));
    const Elem b = static_cast<Elem>(rng.uniform_below(f.size()));
    const Elem c = static_cast<Elem>(rng.uniform_below(f.size()));
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    // Distributivity over XOR addition.
    EXPECT_EQ(f.mul(a, Field::add(b, c)),
              Field::add(f.mul(a, b), f.mul(a, c)));
  }
}

TEST_P(FieldM, DivisionInvertsMultiplication) {
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 200; ++i) {
    const Elem a = static_cast<Elem>(rng.uniform_below(f.size()));
    const Elem b = 1 + static_cast<Elem>(rng.uniform_below(f.order()));
    EXPECT_EQ(f.div(f.mul(a, b), b), a);
  }
}

TEST_P(FieldM, PowMatchesRepeatedMul) {
  // alpha_pow against repeated multiplication by alpha, past one period,
  // and its reduced-exponent sibling on the doubled table.
  Elem acc = 1;
  for (std::uint32_t k = 0; k < 2 * f.order(); ++k) {
    EXPECT_EQ(f.alpha_pow(k), acc) << k;
    EXPECT_EQ(f.alpha_pow_reduced(k), acc) << k;
    acc = f.mul(acc, f.alpha());
  }
  // Negative exponent = inverse power.
  EXPECT_EQ(f.alpha_pow(-1), f.div(1, f.alpha()));
  EXPECT_EQ(f.mul(f.alpha_pow(-5), f.alpha_pow(5)), 1u);
}

TEST_P(FieldM, FermatLittleTheorem) {
  // a^(2^m) == a for every element: m squarings (the Frobenius map) are
  // the identity. sqr is the BCH syndrome kernel's even-syndrome step.
  for (Elem a = 0; a < f.size(); ++a) {
    Elem x = a;
    for (unsigned i = 0; i < f.m(); ++i) {
      EXPECT_EQ(f.sqr(x), f.mul(x, x));
      x = f.sqr(x);
    }
    EXPECT_EQ(x, a) << "a=" << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Fields, FieldM,
                         ::testing::Values(3u, 4u, 5u, 6u, 8u, 10u, 12u));

TEST(Field, RejectsBadM) {
  EXPECT_THROW(Field(2), CheckFailure);
  EXPECT_THROW(Field(15), CheckFailure);
}

TEST(Field, ZeroHandling) {
  Field f(10);
  EXPECT_EQ(f.mul(0, 123), 0u);
  EXPECT_EQ(f.mul(123, 0), 0u);
  EXPECT_EQ(f.div(0, 5), 0u);
  EXPECT_THROW(f.div(5, 0), CheckFailure);
  EXPECT_THROW(f.log(0), CheckFailure);
}

// ------------------------------------------------------------- Poly ------

TEST(Poly, DegreeAndZero) {
  EXPECT_EQ(Poly().degree(), -1);
  EXPECT_TRUE(Poly().is_zero());
  EXPECT_EQ(Poly::constant(0).degree(), -1);
  EXPECT_EQ(Poly::constant(5).degree(), 0);
  EXPECT_EQ(Poly(std::vector<Elem>{0, 0, 0, 0, 0, 0, 0, 1}).degree(), 7);
  // Trailing zeros are trimmed.
  EXPECT_EQ(Poly(std::vector<Elem>{1, 2, 0, 0}).degree(), 1);
}

TEST(Poly, MulDegreesAdd) {
  Field f(10);
  Poly a(std::vector<Elem>{0, 0, 0, 0, 3});     // 3 x^4
  Poly b(std::vector<Elem>{0, 0, 0, 0, 0, 7});  // 7 x^5
  Poly p = Poly::mul(f, a, b);
  EXPECT_EQ(p.degree(), 9);
  EXPECT_EQ(p.coeff(9), f.mul(3, 7));
}

TEST(CyclotomicCoset, ClosedUnderDoubling) {
  Field f(10);
  for (std::uint32_t s : {1u, 3u, 5u, 9u, 100u}) {
    auto coset = cyclotomic_coset(f, s);
    std::set<std::uint32_t> set(coset.begin(), coset.end());
    EXPECT_EQ(set.size(), coset.size());  // no duplicates
    for (std::uint32_t x : coset) {
      EXPECT_TRUE(set.count((2u * x) % f.order())) << "x=" << x;
    }
  }
}

/// p(x) by Horner's rule: the oracle that checks a minimal polynomial's
/// root.
Elem horner(const Field& f, const Poly& p, Elem x) {
  Elem acc = 0;
  for (std::size_t i = p.coeffs().size(); i-- > 0;) {
    acc = Field::add(f.mul(acc, x), p.coeff(i));
  }
  return acc;
}

TEST(MinimalPolynomial, HasAlphaSAsRootAndBinaryCoeffs) {
  Field f(10);
  for (std::uint32_t s : {1u, 2u, 3u, 5u, 7u, 11u}) {
    Poly m = minimal_polynomial(f, s);
    EXPECT_EQ(horner(f, m, f.alpha_pow(s)), 0u) << "s=" << s;
    for (Elem c : m.coeffs()) EXPECT_TRUE(c == 0 || c == 1);
    // Degree equals the coset size.
    EXPECT_EQ(static_cast<std::size_t>(m.degree()),
              cyclotomic_coset(f, s).size());
  }
}

TEST(MinimalPolynomial, ConjugatesShareMinimalPolynomial) {
  Field f(8);
  // alpha^3 and alpha^6 are conjugates (same coset).
  EXPECT_TRUE(minimal_polynomial(f, 3) == minimal_polynomial(f, 6));
}

TEST(MinimalPolynomial, DegreeOneForM3Coset) {
  // In GF(2^3), the coset of 1 is {1, 2, 4}: degree 3; x (s=0) -> {0}.
  Field f(3);
  EXPECT_EQ(minimal_polynomial(f, 1).degree(), 3);
}

}  // namespace
}  // namespace rd::gf
