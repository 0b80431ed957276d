// Steady-state age distribution of scrubbed memory lines.
//
// The simulated window (milliseconds) is far shorter than the drift and
// scrub timescales (seconds to hours), so the age a line had accumulated
// *before* the window is sampled from the renewal steady state of the
// scrub process: a line is re-written at its j-th scrub after the last
// write with probability P(errors >= nu at age j*S) (or always, for
// W = 0), and an observation instant falls into an interval with
// length-biased renewal probability.
#pragma once

#include <vector>

#include "common/rng.h"
#include "drift/error_model.h"

namespace rd::readduo {

/// Samples "seconds since this line was last fully written" for a line
/// whose only writer is the scrub engine.
///
/// The build is serial and never touches the pool. The per-scrub error
/// probability p(j*S) is exact for the first 2048 scrubs and, past them,
/// interpolated linearly in (log t, log p) between 1024 log-spaced
/// quadratures, so a build costs at most ~3,100 quadratures however many
/// scrubs max_age spans (R-metric, S = 8 s, W = 1: 125,000 scrubs, about
/// 0.25 s).
class ScrubAgeSampler {
 public:
  /// @param model     drift model of the metric the scrub senses with
  /// @param cells     cells per line (error count is Binomial(cells, p))
  /// @param interval  scrub interval S in seconds
  /// @param nu        rewrite threshold (W): rewrite when errors >= nu;
  ///                  nu == 0 means rewrite at every scrub
  /// @param max_age   cap on the modelled age (renewal tail truncation)
  ///
  /// interval and max_age must be finite and positive, and max_age /
  /// interval (the number of modelled scrubs) at most 2^22; anything else
  /// throws CheckFailure naming both values.
  ScrubAgeSampler(const drift::ErrorModel& model, unsigned cells,
                  double interval, unsigned nu, double max_age = 1.0e6);

  /// Sample an age (seconds) at a uniformly random observation instant.
  double sample(Rng& rng) const;

  /// P(a line sensed at its scrub needs a rewrite), marginalized over the
  /// steady-state age distribution. Drives the scrub engine's rewrite rate.
  double rewrite_probability() const { return rewrite_prob_; }

  /// Mean time between scrub-induced rewrites of a line (seconds).
  double mean_rewrite_interval() const { return mean_interval_; }

 private:
  double interval_;
  /// cumulative[j] = P(age >= j * S) weights, normalized as a sampling CDF.
  std::vector<double> cdf_;
  double rewrite_prob_ = 1.0;
  double mean_interval_ = 0.0;
};

}  // namespace rd::readduo
