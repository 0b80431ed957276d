// Unit tests for the numerical substrate (common/math.h).
#include "common/math.h"

#include "common/check.h"

#include <cmath>
#include <gtest/gtest.h>

namespace rd {
namespace {

TEST(LogAdd, BasicIdentities) {
  EXPECT_NEAR(log_add(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-12);
  EXPECT_NEAR(log_add(0.0, 0.0), std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(log_add(kNegInf, std::log(7.0)), std::log(7.0));
  EXPECT_DOUBLE_EQ(log_add(std::log(7.0), kNegInf), std::log(7.0));
  EXPECT_DOUBLE_EQ(log_add(kNegInf, kNegInf), kNegInf);
}

TEST(LogAdd, Commutative) {
  EXPECT_DOUBLE_EQ(log_add(-3.0, -700.0), log_add(-700.0, -3.0));
}

TEST(LogAdd, ExtremeScaleDifference) {
  // Adding something 1e300 times smaller must not change the result.
  EXPECT_DOUBLE_EQ(log_add(0.0, -800.0), 0.0);
}

TEST(LogChoose, SmallValues) {
  EXPECT_NEAR(log_choose(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(log_choose(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(log_choose(10, 10), 0.0, 1e-12);
  EXPECT_NEAR(log_choose(52, 5), std::log(2598960.0), 1e-9);
}

TEST(LogChoose, Symmetry) {
  for (std::uint64_t k = 0; k <= 296; k += 7) {
    EXPECT_NEAR(log_choose(296, k), log_choose(296, 296 - k), 1e-9);
  }
}

TEST(LogChoose, PascalIdentity) {
  // C(n, k) = C(n-1, k-1) + C(n-1, k) in log space.
  for (std::uint64_t k = 1; k < 64; k += 5) {
    const double lhs = log_choose(64, k);
    const double rhs = log_add(log_choose(63, k - 1), log_choose(63, k));
    EXPECT_NEAR(lhs, rhs, 1e-9) << "k=" << k;
  }
}

TEST(LogChoose, RejectsBadArgs) {
  EXPECT_THROW(log_choose(3, 4), CheckFailure);
}

TEST(NormalSf, KnownValues) {
  // 1 - Phi(x) for tabulated Phi.
  EXPECT_NEAR(normal_sf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_sf(-1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_sf(1.0), 1.0 - 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_sf(-3.0), 0.9986501019683699, 1e-12);
}

TEST(NormalSf, ComplementOfCdf) {
  // Phi(x) = sf(-x), so sf(x) + sf(-x) = 1.
  for (double x : {-4.0, -1.5, 0.0, 0.7, 2.5, 5.0}) {
    EXPECT_NEAR(normal_sf(x) + normal_sf(-x), 1.0, 1e-12) << x;
  }
}

TEST(TruncatedNormalTail, EndpointsClamp) {
  // Beyond the truncation the tail is exactly 0 / 1.
  EXPECT_DOUBLE_EQ(TruncatedNormalTail(0.0, 1.0, 2.746)(2.746), 0.0);
  EXPECT_DOUBLE_EQ(TruncatedNormalTail(0.0, 1.0, 2.746)(3.5), 0.0);
  EXPECT_DOUBLE_EQ(TruncatedNormalTail(0.0, 1.0, 2.746)(-2.746), 1.0);
  EXPECT_DOUBLE_EQ(TruncatedNormalTail(0.0, 1.0, 2.746)(-5.0), 1.0);
}

TEST(TruncatedNormalTail, MedianIsHalf) {
  EXPECT_NEAR(TruncatedNormalTail(3.0, 0.5, 2.0)(3.0), 0.5, 1e-12);
}

TEST(TruncatedNormalTail, MonotoneDecreasingInThreshold) {
  double prev = 1.0;
  for (double t = -2.7; t <= 2.7; t += 0.1) {
    const double p = TruncatedNormalTail(0.0, 1.0, 2.746)(t);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(TruncatedNormalTail, MatchesClosedForm) {
  // (sf(z) - sf(c)) / (1 - 2 sf(c)) for standardized arguments.
  const double c = 2.746;
  for (double t : {-2.0, -0.5, 0.5, 1.0, 2.0, 2.7}) {
    const double expect =
        (normal_sf(t) - normal_sf(c)) / (1.0 - 2.0 * normal_sf(c));
    EXPECT_NEAR(TruncatedNormalTail(0.0, 1.0, c)(t), expect, 1e-12) << t;
  }
  // Scale/shift invariance: tail(mu + z*sigma) is independent of mu, sigma.
  EXPECT_NEAR(TruncatedNormalTail(5.0, 0.25, c)(5.0 + 1.3 * 0.25),
              TruncatedNormalTail(0.0, 1.0, c)(1.3), 1e-12);
}

TEST(BinomialPmf, SumsToOne) {
  const double log_p = std::log(0.3);
  double acc = kNegInf;
  for (std::uint64_t k = 0; k <= 20; ++k) {
    acc = log_add(acc, log_binomial_pmf(20, k, log_p));
  }
  EXPECT_NEAR(acc, 0.0, 1e-10);
}

TEST(BinomialPmf, MatchesClosedForm) {
  // Bin(4, 0.5): pmf = {1,4,6,4,1}/16.
  const double log_p = std::log(0.5);
  const double expected[] = {1, 4, 6, 4, 1};
  for (std::uint64_t k = 0; k <= 4; ++k) {
    EXPECT_NEAR(std::exp(log_binomial_pmf(4, k, log_p)), expected[k] / 16.0,
                1e-12);
  }
}

TEST(BinomialTail, MatchesDirectSummation) {
  const double p = 1e-3;
  const double log_p = std::log(p);
  // Direct: P(X > 2) = 1 - pmf(0) - pmf(1) - pmf(2).
  double head = 0.0;
  for (std::uint64_t k = 0; k <= 2; ++k) {
    head += std::exp(log_binomial_pmf(296, k, log_p));
  }
  EXPECT_NEAR(std::exp(log_binomial_tail_gt(296, 2, log_p)), 1.0 - head,
              1e-12);
}

TEST(BinomialTail, TinyProbabilityAccuracy) {
  // P(Bin(296, 1e-6) > 3) ~ C(296,4) p^4: a value near 1e-16 that plain
  // double summation of (1 - ...) could never resolve.
  const double log_p = std::log(1e-6);
  const double expected = std::exp(log_choose(296, 4) + 4 * log_p);
  const double got = std::exp(log_binomial_tail_gt(296, 3, log_p));
  EXPECT_NEAR(got / expected, 1.0, 1e-2);
}

TEST(BinomialTail, EdgeCases) {
  EXPECT_DOUBLE_EQ(log_binomial_tail_gt(10, 10, std::log(0.5)), kNegInf);
  EXPECT_DOUBLE_EQ(log_binomial_tail_gt(10, 12, std::log(0.5)), kNegInf);
  EXPECT_DOUBLE_EQ(log_binomial_tail_gt(10, 0, kNegInf), kNegInf);
  // P(X > 0) = 1 - (1-p)^n.
  const double p = 0.01;
  EXPECT_NEAR(std::exp(log_binomial_tail_gt(100, 0, std::log(p))),
              1.0 - std::pow(1.0 - p, 100), 1e-10);
}

class QuadratureOrder : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuadratureOrder, IntegratesPolynomialsExactly) {
  // n-point Gauss-Legendre is exact for degree 2n-1.
  const std::size_t n = GetParam();
  const std::size_t degree = 2 * n - 1;
  auto f = [degree](double x) { return std::pow(x, degree); };
  // Integral of x^d over [0, 1] = 1/(d+1).
  EXPECT_NEAR(integrate(f, 0.0, 1.0, n),
              1.0 / static_cast<double>(degree + 1), 1e-10)
      << "n=" << n;
}

TEST_P(QuadratureOrder, WeightsSumToTwo) {
  const QuadratureRule& rule = gauss_legendre(GetParam());
  double sum = 0.0;
  for (double w : rule.weights) sum += w;
  EXPECT_NEAR(sum, 2.0, 1e-12);
}

TEST_P(QuadratureOrder, NodesSymmetricAndSorted) {
  const QuadratureRule& rule = gauss_legendre(GetParam());
  const std::size_t n = rule.nodes.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_LT(rule.nodes[i], rule.nodes[i + 1]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(rule.nodes[i], -rule.nodes[n - 1 - i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, QuadratureOrder,
                         ::testing::Values(2, 3, 4, 8, 16, 32, 64, 128));

TEST(Integrate, GaussianMass) {
  auto pdf = [](double z) {
    return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
  };
  EXPECT_NEAR(integrate(pdf, -8.0, 8.0, 64), 1.0, 1e-10);
}

TEST(Quadrature, RejectsBadOrder) {
  EXPECT_THROW(gauss_legendre(1), CheckFailure);
  EXPECT_THROW(gauss_legendre(500), CheckFailure);
}

}  // namespace
}  // namespace rd
