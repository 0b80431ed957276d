// Analytic drift-error probabilities and line error rates.
//
// This module reproduces the reliability analysis behind Tables III, IV and
// V: per-cell drift-error probability as a function of time since write,
// and binomial line-error-rate tails for an (E, S, W) efficient-scrubbing
// configuration.
//
// Performance note (DESIGN.md §10): a single log_cell_error_prob
// evaluation integrates a truncated-normal tail over the alpha
// distribution (7 Gauss-Legendre panels x 64 points). It is evaluated
// directly on every call: the Table III-V grids touch a few hundred
// (state, t) points and the scrub-age samplers use each of theirs once,
// so a result cache bought no measurable time. Callers that need O(1)
// lookups (the simulator's per-read sampling) tabulate once through
// CellErrorTable. The model is immutable and every query is a pure
// function of (config, state, t), so one instance is safe to share across
// the READDUO_THREADS grid workers without a lock.
#pragma once

#include <cstdint>
#include <vector>

#include "drift/metric.h"

namespace rd::drift {

/// DRAM reliability target: 25 FIT per Mbit translated to a 512-bit line
/// (Section III-A): 3.56e-15 failures per line-second.
inline constexpr double kLerDramPerLineSecond = 3.56e-15;

/// Line geometry: 64 B data = 256 MLC cells, plus 40 cells holding the
/// 80-bit BCH-8 parity. Every cell can take a drift error.
struct LineGeometry {
  unsigned data_cells = 256;
  unsigned ecc_cells = 40;
  unsigned total_cells() const { return data_cells + ecc_cells; }
};

/// Analytic drift-error model for one readout metric.
class ErrorModel {
 public:
  /// Build the model for `config`. READDUO_KERNELS does not apply: the
  /// model is closed-form quadrature with one evaluation path in every
  /// kernel tier.
  explicit ErrorModel(MetricConfig config);

  /// The metric configuration this model evaluates.
  const MetricConfig& config() const { return config_; }

  /// P(a cell programmed to state `state` at time 0 has drifted past its
  /// upper read boundary by time t). Monotone nondecreasing in t. The top
  /// state cannot drift into error (drift only increases the metric).
  /// Deterministic: a pure function of (config, state, t).
  double cell_error_prob(std::size_t state, double t_seconds) const;

  /// log of cell_error_prob, accurate for probabilities down to ~1e-200:
  /// the panelled quadrature over the alpha distribution.
  double log_cell_error_prob(std::size_t state, double t_seconds) const;

  /// Average over states under uniform data (log space).
  double log_avg_cell_error_prob(double t_seconds) const;
  /// exp of log_avg_cell_error_prob (0 when the log underflows).
  double avg_cell_error_prob(double t_seconds) const;

 private:
  MetricConfig config_;
};

/// Line-error-rate calculator for an (E, S) efficient-scrubbing setting.
class LerCalculator {
 public:
  LerCalculator(ErrorModel model, LineGeometry geometry = {});

  const ErrorModel& model() const { return model_; }
  const LineGeometry& geometry() const { return geometry_; }

  /// log P(line accumulates more than E drift errors within t seconds of
  /// its write) — condition (i) of the efficient-scrubbing definition.
  double log_ler(unsigned e, double t_seconds) const;
  double ler(unsigned e, double t_seconds) const;

  /// Condition (ii): P(fewer than W errors in the first S-second interval
  /// AND more than E - W errors in the second interval). Uses drift
  /// monotonicity: a cell erring in (S, 2S] has probability p(2S) - p(S).
  double log_prob_second_interval(unsigned e, unsigned w, double s) const;

  /// Condition (iii): same with the first two intervals clean and the
  /// overflow in the third.
  double log_prob_third_interval(unsigned e, unsigned w, double s) const;

  /// The paper's Table V uses an independence approximation: it multiplies
  /// P(clean through the first interval(s)) by P(more than E - W errors by
  /// the END of the window) without subtracting the error mass already
  /// excluded by the clean condition. More pessimistic than the exact
  /// computation; reproduced here because the paper's W=0 design decision
  /// for ReadDuo-Hybrid follows from these numbers.
  double log_prob_second_interval_indep(unsigned e, unsigned w,
                                        double s) const;
  double log_prob_third_interval_indep(unsigned e, unsigned w,
                                       double s) const;

  /// The DRAM-equivalent target for an interval of t seconds.
  static double ler_dram_target(double t_seconds) {
    return kLerDramPerLineSecond * t_seconds;
  }

 private:
  /// Shared kernel for (ii)/(iii): clean through t_clean, overflow in
  /// (t_clean, t_end].
  double log_prob_window(unsigned e, unsigned w, double t_clean,
                         double t_end) const;

  ErrorModel model_;
  LineGeometry geometry_;
};

/// Precomputed log-time interpolation of the average cell error
/// probability, for the simulator's per-read sampling (O(1) per lookup).
class CellErrorTable {
 public:
  /// Tabulates p(t) for t in [t_min, t_max] seconds on a log grid.
  CellErrorTable(const ErrorModel& model, double t_min = 1e-3,
                 double t_max = 1e9, std::size_t points = 2048);

  /// Interpolated average per-cell error probability at age t.
  double prob(double t_seconds) const;

 private:
  double log_t_min_, log_t_max_, step_;
  std::vector<double> probs_;  // linear-space probabilities on the grid
};

}  // namespace rd::drift
