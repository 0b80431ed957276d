// Event counters and energy accounting shared by all schemes.
#pragma once

#include <cstdint>

namespace rd::stats {

/// Raw counts and energies accumulated during one simulation run.
/// Everything downstream (Figures 9-15) is derived from these.
struct Counters {
  // Reads by service mode.
  std::uint64_t r_reads = 0;
  std::uint64_t m_reads = 0;
  std::uint64_t rm_reads = 0;

  // LWT bookkeeping.
  std::uint64_t untracked_reads = 0;   ///< reads beyond one scrub interval S
  std::uint64_t converted_reads = 0;   ///< R-M-reads converted to writes

  // Writes by origin.
  std::uint64_t demand_full_writes = 0;
  std::uint64_t demand_diff_writes = 0;
  std::uint64_t conversion_writes = 0;
  std::uint64_t scrub_senses = 0;
  std::uint64_t scrub_rewrites = 0;

  // Reliability events observed during the run.
  std::uint64_t detected_uncorrectable = 0;  ///< 9..17 errors, R-only scheme
  std::uint64_t silent_corruptions = 0;      ///< > 17 errors under R-sensing

  // Endurance: total cells programmed (lifetime is inversely proportional).
  std::uint64_t cell_writes = 0;

  /// Fault events this scheme absorbed from READDUO_FAULTS (extra sense
  /// errors, LWT flag corruptions). Always 0 when faults are off. Not
  /// serialized into bench_cache entries: fault-perturbed runs are never
  /// cached (the harness disables the cache for them), so the v2 schema
  /// is unchanged.
  std::uint64_t injected_faults = 0;

  // Dynamic energy (pJ) by category.
  double read_energy_pj = 0.0;
  double write_energy_pj = 0.0;
  double scrub_energy_pj = 0.0;

  std::uint64_t total_reads() const { return r_reads + m_reads + rm_reads; }
  std::uint64_t total_demand_writes() const {
    return demand_full_writes + demand_diff_writes;
  }
  double dynamic_energy_pj() const {
    return read_energy_pj + write_energy_pj + scrub_energy_pj;
  }
};

}  // namespace rd::stats
