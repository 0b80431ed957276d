#include "drift/error_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math.h"

namespace rd::drift {

ErrorModel::ErrorModel(MetricConfig config) : config_(std::move(config)) {
  for (const auto& s : config_.states) {
    RD_CHECK(s.sigma > 0.0);
    RD_CHECK(s.sigma_alpha >= 0.0);
  }
  RD_CHECK(config_.boundary_halfwidth > config_.program_halfwidth);
}

double ErrorModel::cell_error_prob(std::size_t state, double t_seconds) const {
  const double lp = log_cell_error_prob(state, t_seconds);
  return lp <= kNegInf ? 0.0 : std::exp(lp);
}

double ErrorModel::log_cell_error_prob(std::size_t state,
                                       double t_seconds) const {
  RD_CHECK(state < kNumStates);
  // The top state has no higher state to drift into.
  if (state == kNumStates - 1) return kNegInf;
  const StateParams& sp = config_.states[state];
  if (t_seconds <= config_.t0_seconds) return kNegInf;
  const double big_l = std::log10(t_seconds / config_.t0_seconds);
  const double boundary = config_.upper_boundary(state);
  const double c = config_.program_halfwidth;

  // A drift error needs alpha * L to bridge at least the guard band
  // (boundary - program-range top). Below alpha0 the tail is exactly zero.
  const double guard = (config_.boundary_halfwidth - c) * sp.sigma;
  const double alpha0 = guard / big_l;
  // Hoisted out of the 448-node quadrature below: the truncation terms
  // depend only on the state, not on alpha.
  const TruncatedNormalTail program_tail(sp.mu, sp.sigma, c);

  if (sp.sigma_alpha == 0.0) {
    const double tail = program_tail(boundary - sp.mu_alpha * big_l);
    return tail > 0.0 ? std::log(tail) : kNegInf;
  }

  // Integrate P(error | alpha) over the alpha distribution, starting at the
  // first alpha that can produce an error. In units of z = (alpha -
  // mu_alpha)/sigma_alpha; the integrand decays at least as fast as the
  // normal pdf, so [z_start, z_start + 45] covers everything above 1e-300.
  const double z_start =
      std::max((alpha0 - sp.mu_alpha) / sp.sigma_alpha, -12.0);
  if (z_start > 40.0) return kNegInf;

  auto integrand = [&](double z) {
    const double alpha = sp.mu_alpha + z * sp.sigma_alpha;
    const double tail = program_tail(boundary - alpha * big_l);
    const double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
    return pdf * tail;
  };

  // Piecewise Gauss-Legendre: fine panels near z_start (where the tail
  // turns on), coarser beyond.
  double p = 0.0;
  const double panel_edges[] = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 45.0};
  for (std::size_t i = 0; i + 1 < std::size(panel_edges); ++i) {
    p += integrate(integrand, z_start + panel_edges[i],
                   z_start + panel_edges[i + 1], 64);
  }
  if (!(p > 0.0)) return kNegInf;
  return std::log(std::min(p, 1.0));
}

double ErrorModel::log_avg_cell_error_prob(double t_seconds) const {
  double acc = kNegInf;
  for (std::size_t s = 0; s < kNumStates; ++s) {
    acc = log_add(acc, log_cell_error_prob(s, t_seconds));
  }
  return acc <= kNegInf ? kNegInf : acc - std::log(4.0);
}

double ErrorModel::avg_cell_error_prob(double t_seconds) const {
  const double lp = log_avg_cell_error_prob(t_seconds);
  return lp <= kNegInf ? 0.0 : std::exp(lp);
}

LerCalculator::LerCalculator(ErrorModel model, LineGeometry geometry)
    : model_(std::move(model)), geometry_(geometry) {
  RD_CHECK(geometry_.total_cells() > 0);
}

double LerCalculator::log_ler(unsigned e, double t_seconds) const {
  const double log_p = model_.log_avg_cell_error_prob(t_seconds);
  return log_binomial_tail_gt(geometry_.total_cells(), e, log_p);
}

double LerCalculator::ler(unsigned e, double t_seconds) const {
  const double l = log_ler(e, t_seconds);
  return l <= kNegInf ? 0.0 : std::exp(l);
}

double LerCalculator::log_prob_window(unsigned e, unsigned w, double t_clean,
                                      double t_end) const {
  RD_CHECK(t_end > t_clean);
  RD_CHECK(w >= 1);
  RD_CHECK(e + 1 >= w);
  const unsigned n = geometry_.total_cells();
  const double p1 = model_.avg_cell_error_prob(t_clean);
  const double p2 = model_.avg_cell_error_prob(t_end);
  const double q = std::max(p2 - p1, 0.0);  // errs in (t_clean, t_end]
  if (q <= 0.0) return kNegInf;
  const double log_p1 = p1 > 0.0 ? std::log(p1) : kNegInf;
  const double log_q = std::log(q);
  const double log_1mp2 = std::log1p(-p2);

  // P(N1 = w', N2 = j) with N1 ~ errors by t_clean, N2 ~ errors in the
  // window; multinomial over (p1, q, 1 - p2). Sum over w' < w, j > e - w.
  double acc = kNegInf;
  for (unsigned wp = 0; wp < w; ++wp) {
    if (wp > 0 && log_p1 <= kNegInf) break;
    const double log_head =
        log_choose(n, wp) + static_cast<double>(wp) * (wp ? log_p1 : 0.0);
    for (unsigned j = e - w + 2; j <= n - wp; ++j) {
      const double term =
          log_head + log_choose(n - wp, j) + static_cast<double>(j) * log_q +
          static_cast<double>(n - wp - j) * log_1mp2;
      acc = log_add(acc, term);
      if (term < acc - 60.0 && j > e - w + 5) break;
    }
  }
  return std::min(acc, 0.0);
}

double LerCalculator::log_prob_second_interval(unsigned e, unsigned w,
                                               double s) const {
  return log_prob_window(e, w, s, 2.0 * s);
}

double LerCalculator::log_prob_third_interval(unsigned e, unsigned w,
                                              double s) const {
  return log_prob_window(e, w, 2.0 * s, 3.0 * s);
}

namespace {

/// log P(Binomial(n, p) < w) for small w.
double log_binomial_lt(unsigned n, unsigned w, double log_p) {
  double acc = kNegInf;
  for (unsigned j = 0; j < w; ++j) {
    acc = log_add(acc, log_binomial_pmf(n, j, log_p));
  }
  return acc;
}

}  // namespace

double LerCalculator::log_prob_second_interval_indep(unsigned e, unsigned w,
                                                     double s) const {
  const unsigned n = geometry_.total_cells();
  const double log_p1 = model_.log_avg_cell_error_prob(s);
  const double log_p2 = model_.log_avg_cell_error_prob(2.0 * s);
  return log_binomial_lt(n, w, log_p1) +
         log_binomial_tail_gt(n, e - w, log_p2);
}

double LerCalculator::log_prob_third_interval_indep(unsigned e, unsigned w,
                                                    double s) const {
  const unsigned n = geometry_.total_cells();
  const double log_p2 = model_.log_avg_cell_error_prob(2.0 * s);
  const double log_p3 = model_.log_avg_cell_error_prob(3.0 * s);
  return log_binomial_lt(n, w, log_p2) +
         log_binomial_tail_gt(n, e - w, log_p3);
}

CellErrorTable::CellErrorTable(const ErrorModel& model, double t_min,
                               double t_max, std::size_t points) {
  RD_CHECK(t_min > 0.0 && t_max > t_min);
  RD_CHECK(points >= 2);
  log_t_min_ = std::log10(t_min);
  log_t_max_ = std::log10(t_max);
  step_ = (log_t_max_ - log_t_min_) / static_cast<double>(points - 1);
  probs_.resize(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = std::pow(10.0, log_t_min_ + step_ * static_cast<double>(i));
    probs_[i] = model.avg_cell_error_prob(t);
  }
}

double CellErrorTable::prob(double t_seconds) const {
  if (t_seconds <= 0.0) return 0.0;
  const double lt = std::log10(t_seconds);
  if (lt <= log_t_min_) return probs_.front();
  if (lt >= log_t_max_) return probs_.back();
  const double pos = (lt - log_t_min_) / step_;
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  const double a = probs_[i], b = probs_[i + 1];
  // Probabilities span many orders of magnitude near the drift onset:
  // interpolate geometrically when both endpoints are positive.
  if (a > 0.0 && b > 0.0) {
    return std::exp(std::log(a) * (1.0 - frac) + std::log(b) * frac);
  }
  return a * (1.0 - frac) + b * frac;
}

}  // namespace rd::drift
