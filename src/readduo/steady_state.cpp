#include "readduo/steady_state.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math.h"
#include "common/parallel.h"

namespace rd::readduo {

namespace {

/// The p(j*S) grid is evaluated kBlock points at a time, kShard points per
/// pool shard. Both sizes are fixed, so the decomposition, and with it
/// every value, is the same for any READDUO_THREADS.
constexpr std::size_t kBlock = 2048;
constexpr std::size_t kShard = 32;

/// Upper bound on max_age / interval: a smaller interval is a
/// misconfiguration (e.g. a 1 us scrub), not a longer build.
constexpr double kMaxSteps = 4194304.0;  // 2^22

/// probs[k] = p((first + k) * S), the average per-cell error probability
/// at the (first + k)-th scrub, evaluated on the pool.
void avg_error_probs(const drift::ErrorModel& model, double interval,
                     std::size_t first, std::vector<double>& probs) {
  const std::size_t n = probs.size();
  parallel_for_shards((n + kShard - 1) / kShard, [&](std::size_t shard) {
    const std::size_t end = std::min(n, (shard + 1) * kShard);
    for (std::size_t k = shard * kShard; k < end; ++k) {
      const double age = static_cast<double>(first + k) * interval;
      probs[k] = std::exp(std::min(model.log_avg_cell_error_prob(age), 0.0));
    }
  });
}

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
  // The recurrence is serial, but each p(j*S) is a pure function of j, so
  // the points are evaluated on the pool a block ahead of it. The loop
  // stops at the same j as a one-point-at-a-time loop, wasting at most one
  // block; W = 0 evaluates none.
  std::vector<double> block;  // block[i] = p((first + i) * S)
  std::size_t first = 1;
  for (std::size_t j = 1; j <= max_j; ++j) {
    double q;
    if (nu == 0) {
      q = 1.0;
    } else {
      if (j == first + block.size()) {
        first = j;
        block.resize(std::min(kBlock, max_j - j + 1));
        avg_error_probs(model, interval, first, block);
      }
      // Conditional hazard: surviving scrub j-1 certifies the line clean
      // at age (j-1)*S, so only errors accumulating in ((j-1)S, jS]
      // count. Cell drift is monotone: that increment has probability
      // p(jS) - p((j-1)S) per cell (rescaled by the clean condition).
      const double p_now = block[j - first];
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
}

double ScrubAgeSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t j = static_cast<std::size_t>(it - cdf_.begin());
  return (static_cast<double>(j) + rng.uniform()) * interval_;
}

}  // namespace rd::readduo
