// Numerical substrate for the analytic drift-reliability model.
//
// The paper's Tables III-V involve binomial tail probabilities down to
// ~1e-18 with per-cell error probabilities down to ~1e-21; everything here
// therefore works in log space where it matters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rd {

/// Natural log of values that may underflow; exp/log-space helpers.
inline constexpr double kNegInf = -1.0e308;

/// log(exp(a) + exp(b)) without overflow; treats kNegInf as log(0).
double log_add(double a, double b);

/// log(n choose k) via lgamma. Requires 0 <= k <= n.
double log_choose(std::uint64_t n, std::uint64_t k);

/// Standard normal CDF Phi(x).
double normal_cdf(double x);

/// Standard normal survival function 1 - Phi(x), accurate for large x.
double normal_sf(double x);

/// log of the standard normal survival function, accurate far into the tail
/// (uses the asymptotic expansion when erfc underflows).
double log_normal_sf(double x);

/// P(X > t) for X ~ Normal(mu, sigma^2) truncated to [mu - c*sigma,
/// mu + c*sigma], with the terms that depend only on (mu, sigma, c)
/// computed once at construction. Quadratures that evaluate many t for
/// one distribution build one of these per call.
class TruncatedNormalTail {
 public:
  /// Requires sigma > 0, c > 0.
  TruncatedNormalTail(double mu, double sigma, double c);

  /// A probability in [0, 1].
  double operator()(double t) const;

 private:
  double mu_, sigma_, c_;
  double sf_c_;  ///< normal_sf(c): the mass beyond either truncation point
  double mass_;  ///< 1 - 2 * sf_c_: the mass kept by the truncation
};

/// TruncatedNormalTail(mu, sigma, c)(t), for one-off evaluations.
double truncated_normal_tail(double mu, double sigma, double c, double t);

/// log P(Binomial(n, p) > k), where log_p = log(p) may be very negative.
/// Exact summation in log space over the upper tail.
double log_binomial_tail_gt(std::uint64_t n, std::uint64_t k, double log_p);

/// log P(Binomial(n, p) == k).
double log_binomial_pmf(std::uint64_t n, std::uint64_t k, double log_p);

/// Gauss–Legendre quadrature rule on [-1, 1] with n points.
/// Nodes/weights are computed once per order (std::call_once) and cached;
/// safe to call from any number of threads concurrently.
struct QuadratureRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};

/// Returns the cached n-point Gauss–Legendre rule. Requires n in [2, 256].
const QuadratureRule& gauss_legendre(std::size_t n);

/// Integrate f over [a, b] with an n-point Gauss–Legendre rule.
template <typename F>
double integrate(F&& f, double a, double b, std::size_t n = 64) {
  const QuadratureRule& rule = gauss_legendre(n);
  const double half = 0.5 * (b - a);
  const double mid = 0.5 * (a + b);
  double sum = 0.0;
  for (std::size_t i = 0; i < rule.nodes.size(); ++i) {
    sum += rule.weights[i] * f(mid + half * rule.nodes[i]);
  }
  return half * sum;
}

}  // namespace rd
