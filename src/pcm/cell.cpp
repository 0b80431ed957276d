#include "pcm/cell.h"

#include <cmath>

#include "common/check.h"

namespace rd::pcm {

void Cell::program(std::size_t level, double t_write_seconds, Rng& rng,
                   const drift::MetricConfig& cfg) {
  RD_CHECK(level < drift::kNumStates);
  level_ = static_cast<std::uint8_t>(level);
  t_write_ = t_write_seconds;
  // The programming percentile is write noise: redrawn per program. The
  // drift percentile is cell-intrinsic process variation: drawn once and
  // kept, so a fast-drifting cell drifts fast after every rewrite. Both
  // map through either metric config, keeping R and M readouts of the
  // same cell physically consistent.
  z_program_ = rng.truncated_normal(0.0, 1.0, cfg.program_halfwidth);
  if (!has_identity_) {
    z_alpha_ = rng.normal();
    has_identity_ = true;
  }
}

void Cell::set_stuck(std::size_t level) {
  RD_CHECK(level < drift::kNumStates);
  stuck_ = true;
  stuck_level_ = static_cast<std::uint8_t>(level);
}

Cell::Boundaries Cell::upper_boundaries(const drift::MetricConfig& cfg) {
  return {cfg.upper_boundary(0), cfg.upper_boundary(1),
          cfg.upper_boundary(2)};
}

std::size_t Cell::level_from_metric(double x,
                                    const drift::MetricConfig& cfg) {
  // Two-round reference comparison (Ref2 then Ref1/Ref3); equivalent to
  // locating x among the three upper boundaries.
  std::size_t level = drift::kNumStates - 1;
  for (std::size_t i = 0; i + 1 < drift::kNumStates; ++i) {
    if (x <= cfg.upper_boundary(i)) {
      level = i;
      break;
    }
  }
  return level;
}

std::size_t Cell::read_level(double t_seconds,
                             const drift::MetricConfig& cfg) const {
  return read_level(t_seconds, cfg, 0.0);
}

std::size_t Cell::read_level(double t_seconds,
                             const drift::MetricConfig& cfg,
                             double metric_offset) const {
  if (stuck_) return stuck_level_;
  const double x = metric_at(t_seconds, cfg) + metric_offset;
  return level_from_metric(x, cfg);
}

}  // namespace rd::pcm
