// Iterative program-and-verify (P&V) write model.
//
// MLC PCM writes RESET the cell to full amorphous and then apply SET pulses
// until the verify read lands inside the target sub-range (Section II-A).
// The architecture simulator uses the fixed 1000 ns average latency from
// the paper; this model supplies the average pulse count per cell write
// that Table IX prints.
#pragma once

namespace rd::pcm {

/// P&V behaviour per target level.
struct PnvParams {
  /// Mean number of SET iterations per level (after the initial RESET).
  /// Extreme levels land in one pulse; middle levels need several because
  /// their target range is narrow.
  double mean_iterations[4] = {1.0, 4.0, 3.0, 0.0};
};

/// Average pulses over the four levels under uniform data, for closed-form
/// energy estimates.
double mean_pulses_per_write(const PnvParams& p);

}  // namespace rd::pcm
