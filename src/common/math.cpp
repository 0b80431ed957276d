#include "common/math.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>

#include "common/check.h"

namespace rd {

double log_add(double a, double b) {
  if (a <= kNegInf) return b;
  if (b <= kNegInf) return a;
  if (a < b) std::swap(a, b);
  return a + std::log1p(std::exp(b - a));
}

namespace {

/// log Gamma(x) for x > 0. lgamma_r, not std::lgamma: std::lgamma also
/// writes the global signgam, a data race when pool threads evaluate
/// binomials at once. glibc computes both with the same kernel.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double log_choose(std::uint64_t n, std::uint64_t k) {
  RD_CHECK(k <= n);
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x * M_SQRT1_2); }

double normal_sf(double x) { return 0.5 * std::erfc(x * M_SQRT1_2); }

double log_normal_sf(double x) {
  if (x < 30.0) {
    const double sf = normal_sf(x);
    if (sf > 0.0) return std::log(sf);
  }
  // Asymptotic expansion: Q(x) ~ phi(x)/x * (1 - 1/x^2 + 3/x^4 - 15/x^6).
  const double x2 = x * x;
  const double series = 1.0 - 1.0 / x2 + 3.0 / (x2 * x2) - 15.0 / (x2 * x2 * x2);
  return -0.5 * x2 - 0.5 * std::log(2.0 * M_PI) - std::log(x) +
         std::log(series);
}

TruncatedNormalTail::TruncatedNormalTail(double mu, double sigma, double c)
    : mu_(mu), sigma_(sigma), c_(c) {
  RD_CHECK(sigma > 0.0);
  RD_CHECK(c > 0.0);
  sf_c_ = normal_sf(c);
  mass_ = 1.0 - 2.0 * sf_c_;
}

double TruncatedNormalTail::operator()(double t) const {
  const double z = (t - mu_) / sigma_;
  if (z >= c_) return 0.0;
  if (z <= -c_) return 1.0;
  // Difference of survival functions: erfc keeps good relative accuracy for
  // large positive arguments, which matters in the guard-band sliver where
  // z is close to c.
  const double tail = normal_sf(z) - sf_c_;
  const double p = tail / mass_;
  return std::clamp(p, 0.0, 1.0);
}

double truncated_normal_tail(double mu, double sigma, double c, double t) {
  return TruncatedNormalTail(mu, sigma, c)(t);
}

double log_binomial_pmf(std::uint64_t n, std::uint64_t k, double log_p) {
  RD_CHECK(k <= n);
  if (log_p <= kNegInf) return k == 0 ? 0.0 : kNegInf;
  const double p = std::exp(log_p);
  RD_CHECK(p <= 1.0);
  // log(1-p) computed stably even when p is tiny.
  const double log_1mp = (p < 1.0) ? std::log1p(-p) : kNegInf;
  if (p >= 1.0) return k == n ? 0.0 : kNegInf;
  return log_choose(n, k) + static_cast<double>(k) * log_p +
         static_cast<double>(n - k) * log_1mp;
}

double log_binomial_tail_gt(std::uint64_t n, std::uint64_t k, double log_p) {
  if (k >= n) return kNegInf;  // P(X > n) = 0
  if (log_p <= kNegInf) return kNegInf;
  double acc = kNegInf;
  for (std::uint64_t j = k + 1; j <= n; ++j) {
    const double term = log_binomial_pmf(n, j, log_p);
    acc = log_add(acc, term);
    // Terms decay geometrically once past the mode; stop when negligible.
    if (term < acc - 60.0 && j > k + 4) break;
  }
  return std::min(acc, 0.0);
}

namespace {

QuadratureRule make_gauss_legendre(std::size_t n) {
  // Newton iteration on Legendre polynomials; standard Golub-free approach,
  // adequate for the modest orders used here.
  QuadratureRule rule;
  rule.nodes.resize(n);
  rule.weights.resize(n);
  const std::size_t m = (n + 1) / 2;
  for (std::size_t i = 0; i < m; ++i) {
    // Initial guess: Chebyshev-like.
    double x = std::cos(M_PI * (static_cast<double>(i) + 0.75) /
                        (static_cast<double>(n) + 0.5));
    double pp = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      // Evaluate P_n(x) and derivative by recurrence.
      double p0 = 1.0, p1 = x;
      for (std::size_t j = 2; j <= n; ++j) {
        const double p2 = ((2.0 * static_cast<double>(j) - 1.0) * x * p1 -
                           (static_cast<double>(j) - 1.0) * p0) /
                          static_cast<double>(j);
        p0 = p1;
        p1 = p2;
      }
      pp = static_cast<double>(n) * (x * p1 - p0) / (x * x - 1.0);
      const double dx = p1 / pp;
      x -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    rule.nodes[i] = -x;
    rule.nodes[n - 1 - i] = x;
    const double w = 2.0 / ((1.0 - x * x) * pp * pp);
    rule.weights[i] = w;
    rule.weights[n - 1 - i] = w;
  }
  return rule;
}

}  // namespace

const QuadratureRule& gauss_legendre(std::size_t n) {
  constexpr std::size_t kMaxOrder = 256;
  RD_CHECK(n >= 2 && n <= kMaxOrder);
  // One once_flag per order: after initialization every call is a plain
  // read with no lock, so concurrent integrations (parallel bench sweeps,
  // sharded Monte-Carlo) never contend here.
  static std::array<std::once_flag, kMaxOrder + 1> flags;
  static std::array<QuadratureRule, kMaxOrder + 1> rules;
  std::call_once(flags[n], [n] { rules[n] = make_gauss_legendre(n); });
  return rules[n];
}

}  // namespace rd
