// Monte-Carlo MLC PCM cell model.
//
// A cell's physical configuration (amorphous thickness u_a) determines both
// its R-metric and M-metric. We model this by drawing a single programming
// percentile and a single drift-activation percentile per cell and mapping
// them through both metric configurations, so the two readouts of one cell
// are consistent: a cell whose R drifts hard also sits high in the (much
// slower) M drift distribution.
//
// Performance note (DESIGN.md §10.2): evaluating the drift law
// R(t) = R0 * (t / t0)^alpha costs one log10 per readout in log space, and
// that log10 depends only on the cell's age — which whole-line reads and
// Monte-Carlo sweeps share across hundreds of cells. The *_logt entry
// points below take the precomputed log10(age / t0) so batched callers
// (MlcLine::read_levels, the tests' Monte-Carlo LER oracle) hoist it;
// they are the same arithmetic as metric_at / read_level, so the results
// are bit-identical (the scalar paths are implemented on top of them).
// The batched paths also hoist the three upper boundaries
// (upper_boundaries) and place the metric with a branch-free decision
// (decide_level) instead of the reference tier's first-match walk, which
// mispredicts on random levels; both give the same level for any
// boundary order and for NaN. A Cell is
// 32 bytes (three doubles, then the two levels as bytes and the two
// flags), so a 296-cell line spans 148 cache lines.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "drift/metric.h"

namespace rd::pcm {

/// One programmed MLC cell. Value-type; the line owns an array of these.
class Cell {
 public:
  /// Program the cell to `level` at absolute time t_write (seconds). Draws
  /// a fresh programming percentile (truncated normal); the cell's drift
  /// percentile is process variation — drawn once on the first program and
  /// persistent across reprograms (a fast-drifting cell stays fast).
  /// Advances `rng` by the same number of draws regardless of level.
  void program(std::size_t level, double t_write_seconds, Rng& rng,
               const drift::MetricConfig& cfg);

  /// The level most recently programmed (not affected by set_stuck).
  std::size_t programmed_level() const { return level_; }
  /// Absolute time of the last program, seconds.
  double write_time() const { return t_write_; }

  /// The metric value (log10 units) at absolute time t under `cfg`.
  /// Before t_write + t0 the drift term is zero (the drift law starts at
  /// t0 after programming).
  double metric_at(double t_seconds, const drift::MetricConfig& cfg) const {
    const double age = t_seconds - t_write_;
    if (age <= cfg.t0_seconds) return metric_programmed(cfg);
    return metric_at_logt(std::log10(age / cfg.t0_seconds), cfg);
  }

  /// The metric value given log_t_ratio = log10(age / t0) precomputed by a
  /// batched caller. Requires age > t0 (callers use metric_programmed()
  /// otherwise). metric_at(t, cfg) == metric_at_logt(log10((t - t_write)
  /// / t0), cfg) exactly — same arithmetic, hoisted log10.
  double metric_at_logt(double log_t_ratio,
                        const drift::MetricConfig& cfg) const {
    const drift::StateParams& sp = cfg.states[level_];
    const double x0 = sp.mu + z_program_ * sp.sigma;
    const double alpha = sp.mu_alpha + z_alpha_ * sp.sigma_alpha;
    return x0 + alpha * log_t_ratio;
  }

  /// The metric value with no drift term (age <= t0): the as-programmed
  /// log10 metric.
  double metric_programmed(const drift::MetricConfig& cfg) const {
    const drift::StateParams& sp = cfg.states[level_];
    return sp.mu + z_program_ * sp.sigma;
  }

  /// Read out the level at time t by comparing against the reference
  /// boundaries of `cfg` (three references, Section II-A). Drift only
  /// increases the metric, so a misread returns a higher level.
  std::size_t read_level(double t_seconds,
                         const drift::MetricConfig& cfg) const;

  /// read_level with an additive metric disturbance (log10 units) applied
  /// before the reference comparison — the seam for injected sensing
  /// transients (READDUO_FAULTS "sense"). A stuck cell ignores the offset.
  std::size_t read_level(double t_seconds, const drift::MetricConfig& cfg,
                         double metric_offset) const;

  /// The upper read boundaries of states 0..2 of `cfg`, in state order.
  /// The loader rejects unsorted boundaries, but a MetricConfig built in
  /// code need not sort them.
  using Boundaries = std::array<double, drift::kNumStates - 1>;
  static Boundaries upper_boundaries(const drift::MetricConfig& cfg);

  /// The level of metric `x` without a data-dependent branch: the index
  /// of the first boundary with x <= ub[i], or 3 if there is none — the
  /// reference walk's answer for any boundary order and for NaN (every
  /// comparison with NaN is false, so both give 3). Each term is 1 only
  /// while every earlier boundary was passed, which is why the plain
  /// count of passed boundaries would be wrong for unsorted ones.
  static std::size_t decide_level(double x, const Boundaries& ub) {
    const unsigned a0 = !(x <= ub[0]);
    const unsigned a1 = a0 & !(x <= ub[1]);
    const unsigned a2 = a1 & !(x <= ub[2]);
    return a0 + a1 + a2;
  }

  /// Batched read_level: `drifted` says whether age > t0 and, when true,
  /// `log_t_ratio` carries the caller's precomputed log10(age / t0); `ub`
  /// are the boundaries the caller hoisted with upper_boundaries(cfg).
  /// Bit-identical to read_level(t, cfg, metric_offset) for matching
  /// arguments; stuck cells return their pinned level regardless. Inline,
  /// so the line-sense loop carries no call per cell.
  std::size_t read_level_logt(bool drifted, double log_t_ratio,
                              const drift::MetricConfig& cfg,
                              const Boundaries& ub,
                              double metric_offset) const {
    if (stuck_) return stuck_level_;
    const double x = (drifted ? metric_at_logt(log_t_ratio, cfg)
                              : metric_programmed(cfg)) +
                     metric_offset;
    return decide_level(x, ub);
  }

  /// True if reading at time t under cfg would return the wrong level.
  bool drift_error(double t_seconds, const drift::MetricConfig& cfg) const {
    return read_level(t_seconds, cfg) != level_;
  }

  /// Endurance wear-out: pin the cell to a fixed level. Programming no
  /// longer changes what it reads (a hard error for ECP to patch).
  void set_stuck(std::size_t level);
  /// True once set_stuck has pinned this cell.
  bool is_stuck() const { return stuck_; }
  /// The level set_stuck pinned (meaningful only when is_stuck()).
  std::size_t stuck_level() const { return stuck_level_; }

  /// The cell's raw percentiles. Together with
  /// programmed_level() and write_time() they determine every metric this
  /// cell can produce: x = (mu + z_program * sigma) + (mu_alpha +
  /// z_alpha * sigma_alpha) * log10(age / t0).
  double z_program() const { return z_program_; }
  double z_alpha() const { return z_alpha_; }

 private:
  /// Locate metric value x among the three upper boundaries of `cfg` —
  /// the two-round reference comparison of the reference tier's
  /// read_level (the batched paths use decide_level).
  static std::size_t level_from_metric(double x,
                                       const drift::MetricConfig& cfg);

  double t_write_ = 0.0;
  double z_program_ = 0.0;  ///< programming percentile, truncated normal
  double z_alpha_ = 0.0;    ///< drift-coefficient percentile, standard normal
  std::uint8_t level_ = 0;  ///< < kNumStates, so a byte holds it
  std::uint8_t stuck_level_ = 0;
  bool has_identity_ = false;
  bool stuck_ = false;
};

static_assert(sizeof(Cell) == 32, "two cells per 64-byte cache line");

}  // namespace rd::pcm
