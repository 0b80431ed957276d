// EDAP — the Energy-Delay-Area-Product metric of Section V-C.
//
// The paper evaluates each scheme by the product of (normalized) energy,
// execution time, and effective cell-array area for the same stored
// information, normalized to the TLC baseline. Product-D uses dynamic
// energy; Product-S adds static (background) energy over the run.
#pragma once

#include <string>

#include "common/units.h"

namespace rd::stats {

/// One scheme's aggregate run outcome, the inputs of EDAP.
struct RunSummary {
  std::string scheme;
  Ns exec_time{0};
  double dynamic_energy_pj = 0.0;
  /// Static power of the memory subsystem (W); system energy =
  /// dynamic + static * exec_time.
  double static_watts = 0.0;
  /// Cells used to store one 64 B line (density input; Figure 11).
  double cells_per_line = 0.0;
  /// Total cells programmed (endurance input; Figure 15).
  double cell_writes = 0.0;

  double system_energy_pj() const {
    // watts * ns = 1e-9 J = 1e3 pJ.
    return dynamic_energy_pj +
           static_watts * static_cast<double>(exec_time.v) * 1e3;
  }

  bool operator==(const RunSummary&) const = default;
};

/// EDAP of `run` normalized to `base` (typically the TLC baseline), using
/// dynamic energy. Lower is better.
inline double edap_dynamic(const RunSummary& run, const RunSummary& base) {
  return (run.dynamic_energy_pj / base.dynamic_energy_pj) *
         (static_cast<double>(run.exec_time.v) /
          static_cast<double>(base.exec_time.v)) *
         (run.cells_per_line / base.cells_per_line);
}

/// EDAP with system energy (Product-S of Figure 11).
inline double edap_system(const RunSummary& run, const RunSummary& base) {
  return (run.system_energy_pj() / base.system_energy_pj()) *
         (static_cast<double>(run.exec_time.v) /
          static_cast<double>(base.exec_time.v)) *
         (run.cells_per_line / base.cells_per_line);
}

/// Relative lifetime vs a baseline: lifetime is inversely proportional to
/// the cell-write rate over the same wall time (Figure 15).
inline double relative_lifetime(const RunSummary& run,
                                const RunSummary& base) {
  if (run.cell_writes <= 0.0) return 1.0;
  // Normalize write counts to the same amount of retired work: both runs
  // execute the same instruction budget, so total cell writes compare
  // directly.
  return base.cell_writes / run.cell_writes;
}

}  // namespace rd::stats
