#include "readduo/steady_state.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/math.h"

namespace rd::readduo {

namespace {

/// Scrubs j <= kExactHead evaluate p(j*S) exactly, one quadrature each.
/// Every M-metric key the simulator builds (S = 640 s: 1,562 steps) lies
/// wholly inside this head.
constexpr std::size_t kExactHead = 2048;

/// Past the head, p(t) is interpolated between at most kTailNodes
/// log-spaced ages over [kExactHead * S, max_j * S].
constexpr std::size_t kTailNodes = 1024;

/// Upper bound on max_age / interval: a smaller interval is a
/// misconfiguration (e.g. a 1 us scrub), not a longer build.
constexpr double kMaxSteps = 4194304.0;  // 2^22

/// p(t), the average per-cell error probability at age t.
double exact_prob(const drift::ErrorModel& model, double age) {
  return std::exp(std::min(model.log_avg_cell_error_prob(age), 0.0));
}

/// log p(t) tabulated on log-spaced ages in [t_first, t_last] and
/// interpolated linearly in (log t, log p). log p is smooth in log t, so
/// a 1024-node grid bounds the relative error of the sampler's outputs
/// well below 1e-6.
class TailInterpolant {
 public:
  TailInterpolant(const drift::ErrorModel& model, double t_first,
                  double t_last, std::size_t nodes)
      : log_t_first_(std::log(t_first)),
        step_((std::log(t_last) - log_t_first_) /
              static_cast<double>(nodes - 1)),
        log_probs_(nodes) {
    for (std::size_t k = 0; k < nodes; ++k) {
      const double age =
          std::exp(log_t_first_ + static_cast<double>(k) * step_);
      log_probs_[k] = std::min(model.log_avg_cell_error_prob(age), 0.0);
    }
  }

  double prob(double age) const {
    const double x = (std::log(age) - log_t_first_) / step_;
    const std::size_t k = std::min(
        static_cast<std::size_t>(std::max(x, 0.0)), log_probs_.size() - 2);
    const double lo = log_probs_[k];
    const double hi = log_probs_[k + 1];
    // An interval with an underflowed end (log p at or below kNegInf)
    // counts as p = 0: interpolating from a true -inf would give
    // -inf * 0 = NaN, which would then poison every later hazard.
    if (lo <= rd::kNegInf || hi <= rd::kNegInf) return 0.0;
    return std::exp(lo + (x - static_cast<double>(k)) * (hi - lo));
  }

 private:
  double log_t_first_;
  double step_;
  std::vector<double> log_probs_;
};

}  // namespace

ScrubAgeSampler::ScrubAgeSampler(const drift::ErrorModel& model,
                                 unsigned cells, double interval, unsigned nu,
                                 double max_age)
    : interval_(interval) {
  RD_CHECK_MSG(std::isfinite(interval) && interval > 0.0 &&
                   std::isfinite(max_age) && max_age > 0.0,
               "scrub-age sampler needs a finite interval > 0 and a finite "
               "max_age > 0; got interval="
                   << interval << " s, max_age=" << max_age << " s");
  RD_CHECK_MSG(max_age / interval <= kMaxSteps,
               "scrub-age sampler: max_age=" << max_age << " s / interval="
                   << interval << " s exceeds " << kMaxSteps
                   << " scrub steps; raise the scrub interval");
  RD_CHECK(cells > 0);

  // q[j] = P(rewrite at the j-th scrub | survived so far), j = 1, 2, ...
  // With W = 0 (nu == 0) the first scrub always rewrites.
  const std::size_t max_j = std::max<std::size_t>(
      1, static_cast<std::size_t>(max_age / interval));
  std::vector<double> survival;  // survival[j] = P(not rewritten by scrub j)
  survival.push_back(1.0);
  double renewal_mass = 0.0;   // sum over j of P(interval = j*S)
  double mean = 0.0;
  double prev_p = 0.0;  // per-cell error probability at the previous scrub
  // Built when the loop first passes the exact head; W = 0 and loops that
  // converge inside the head never build it.
  std::optional<TailInterpolant> tail;
  for (std::size_t j = 1; j <= max_j; ++j) {
    double q;
    if (nu == 0) {
      q = 1.0;
    } else {
      const double age = static_cast<double>(j) * interval;
      if (j > kExactHead && !tail) {
        tail.emplace(
            model, static_cast<double>(kExactHead) * interval,
            static_cast<double>(max_j) * interval,
            std::min(kTailNodes, max_j - kExactHead + 1));
      }
      // Conditional hazard: surviving scrub j-1 certifies the line clean
      // at age (j-1)*S, so only errors accumulating in ((j-1)S, jS]
      // count. Cell drift is monotone: that increment has probability
      // p(jS) - p((j-1)S) per cell (rescaled by the clean condition).
      const double p_now =
          j <= kExactHead ? exact_prob(model, age) : tail->prob(age);
      const double dp =
          std::max(0.0, (p_now - prev_p) / std::max(1.0 - prev_p, 1e-12));
      prev_p = p_now;
      const double log_tail =
          dp > 0.0 ? log_binomial_tail_gt(cells, nu - 1, std::log(dp))
                   : rd::kNegInf;
      q = log_tail <= rd::kNegInf ? 0.0 : std::exp(log_tail);
    }
    const double p_interval = survival.back() * q;
    renewal_mass += p_interval;
    mean += p_interval * static_cast<double>(j) * interval;
    survival.push_back(survival.back() * (1.0 - q));
    // lint: allow(unit-conv) survival-mass convergence epsilon, not a time conversion
    if (survival.back() < 1e-9) break;
  }
  // Tail truncation. After the loop, survival.size() == last_j + 1 where
  // last_j is the final scrub the loop modelled (max_j, or earlier when
  // the survival mass fell below 1e-9 and the loop broke). The residual
  // mass survival.back() = P(not rewritten by scrub last_j) cannot renew
  // before the *next* scrub, at age (last_j + 1) * S == survival.size() *
  // S — so crediting it there is not an off-by-one relative to the
  // max_j * S cap: the cap bounds the modelled hazard, and survivors of
  // the last modelled scrub renew one interval later at the earliest.
  // Using that earliest time truncates conservatively: it can only
  // under-estimate mean_interval_ and hence over-estimate rewrite_prob_.
  // It also matches sample(), whose oldest age bucket is
  // [last_j * S, survival.size() * S).
  const double residual = survival.back();
  renewal_mass += residual;
  mean += residual * static_cast<double>(survival.size()) * interval;
  mean_interval_ = mean / renewal_mass;

  // Steady-state age: P(age in [j*S, (j+1)*S)) is proportional to
  // survival[j] (renewal-theoretic age distribution, discretized).
  double total = 0.0;
  for (double s : survival) total += s;
  cdf_.resize(survival.size());
  double acc = 0.0;
  for (std::size_t j = 0; j < survival.size(); ++j) {
    acc += survival[j] / total;
    cdf_[j] = acc;
  }
  cdf_.back() = 1.0;

  // Rewrite probability at an arbitrary scrub: one rewrite per renewal
  // interval, one scrub per S.
  rewrite_prob_ = std::min(1.0, interval / mean_interval_);
  RD_CHECK_MSG(std::isfinite(mean_interval_) && mean_interval_ > 0.0 &&
                   std::isfinite(rewrite_prob_) && rewrite_prob_ > 0.0,
               "scrub-age sampler (interval=" << interval << " s, W=" << nu
                   << ") produced mean_rewrite_interval=" << mean_interval_
                   << " s, rewrite_probability=" << rewrite_prob_
                   << "; both must be finite and positive");
}

double ScrubAgeSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t j = static_cast<std::size_t>(it - cdf_.begin());
  return (static_cast<double>(j) + rng.uniform()) * interval_;
}

}  // namespace rd::readduo
