// Empirical (Monte-Carlo) line-error-rate estimation.
//
// The analytic LerCalculator reaches probabilities (1e-12 and below) no
// simulation can sample; this harness validates it in the measurable
// regime: simulate whole populations of 296-cell lines through the device
// model and count how many exceed E errors at age S. Used by tests to
// cross-check Tables III/IV at relaxed (E, S) points, and available to
// users who extend the drift model and want to re-validate.
#pragma once

#include <cstdint>

#include "common/kernels.h"
#include "drift/error_model.h"
#include "pcm/cell.h"

namespace rd::pcm {

/// Result of an empirical LER measurement.
struct McLerResult {
  std::uint64_t lines = 0;
  std::uint64_t failures = 0;  ///< lines with more than E errors

  double ler() const {
    return lines ? static_cast<double>(failures) /
                       static_cast<double>(lines)
                 : 0.0;
  }
  /// One-sigma sampling error of ler().
  double stderr_() const;
};

/// Simulate `lines` fresh lines of `geometry` cells under `config`,
/// age them to t_seconds, and count lines with more than `e` drift
/// errors. The population is sharded over the READDUO_THREADS pool in
/// fixed-size blocks with per-shard Rng(seed, shard) streams and an
/// ordered reduction, so the result is a pure function of the arguments:
/// bit-identical for every thread count (enforced by test_parallel) and
/// for both kernel tiers (`mode` kAuto: READDUO_KERNELS; the optimized
/// tier hoists the shared log10(t / t0) out of the cell loop and draws
/// the same RNG sequence as the per-cell reference — enforced by
/// test_kernels).
McLerResult mc_ler(const drift::MetricConfig& config,
                   const drift::LineGeometry& geometry,
                   unsigned e, double t_seconds, std::uint64_t lines,
                   std::uint64_t seed, KernelMode mode = KernelMode::kAuto);

}  // namespace rd::pcm
