// Workload definitions standing in for the paper's Pin-generated SPEC2006
// traces (Table X).
//
// The paper drives its simulator with memory-access traces of 14 SPEC2006
// benchmarks characterized by RPKI/WPKI (reads/writes per kilo-instruction).
// Those traces are not available, so each workload here is a parameterized
// synthetic generator: RPKI/WPKI values follow published PCM-paper
// characterizations, plus locality and data-age parameters that control the
// behaviours the ReadDuo mechanisms react to (see DESIGN.md substitutions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rd::trace {

/// Parameters of one synthetic workload.
struct Workload {
  std::string name;
  double rpki;  ///< post-LLC reads per 1000 instructions
  double wpki;  ///< post-LLC writes per 1000 instructions
  /// Working-set size in 64 B lines (footprint the trace touches).
  std::uint64_t footprint_lines;
  /// Zipf exponent of line popularity (0 = uniform scan-like).
  double zipf_s;
  /// Fraction of reads that target the archive region: data written long
  /// before the simulated window (e.g. a database built earlier and then
  /// queried, Section III-C). These reads are the R-M-read population.
  double archive_read_fraction;
  /// Scale (seconds) of the archive age distribution (exponential).
  double archive_age_scale;
  /// Size of the archive region in lines. Smaller than the footprint for
  /// benchmarks that re-read a compact old data set (sphinx3's acoustic
  /// model), which is what makes R-M-read conversion pay off.
  std::uint64_t archive_lines;
  /// Archive access pattern: cyclic sequential scan (sphinx3 streaming
  /// its model tables) instead of Zipf draws.
  bool archive_scan = false;

  bool operator==(const Workload&) const = default;
};

/// The 14 SPEC2006 workloads of Table X. RPKI/WPKI approximate published
/// characterizations; archive parameters encode each benchmark's
/// read-after-long-idle behaviour (sphinx3 is the paper's example of a
/// read-mostly workload over old data).
const std::vector<Workload>& spec2006_workloads();

/// Look up a workload by name. Throws CheckFailure if unknown.
const Workload& workload_by_name(const std::string& name);

}  // namespace rd::trace
