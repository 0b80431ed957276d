#include "pcm/mc_ler.h"

#include <cmath>
#include <vector>

#include "common/kernels.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd_kernels.h"
#include "pcm/line.h"

namespace rd::pcm {

namespace {

// Lines per shard. Fixed (never derived from the thread count) so the
// shard decomposition — and with it every Rng(seed, shard) stream — is
// identical no matter how many threads execute it.
constexpr std::uint64_t kShardLines = 8192;

}  // namespace

double McLerResult::stderr_() const {
  if (lines == 0) return 0.0;
  const double p = ler();
  return std::sqrt(p * (1.0 - p) / static_cast<double>(lines));
}

McLerResult mc_ler(const drift::MetricConfig& config,
                   const drift::LineGeometry& geometry,
                   unsigned e, double t_seconds, std::uint64_t lines,
                   std::uint64_t seed, KernelMode mode) {
  McLerResult result;
  result.lines = lines;
  if (lines == 0) return result;
  const unsigned cells = geometry.total_cells();
  const std::uint64_t shards = (lines + kShardLines - 1) / kShardLines;
  std::vector<std::uint64_t> shard_failures(shards, 0);
  // Every sampled cell is written at t = 0 and read at the same
  // t_seconds, so the drift law's log10(t / t0) is one value for the
  // whole population: the optimized kernel hoists it out of the
  // cells-per-line loop (the RNG draw sequence is untouched, so the
  // count is bit-identical to the per-cell reference path — enforced by
  // tests/test_kernels.cpp and the THREADS sweep).
  const KernelMode m = resolve_kernel_mode(mode);
  const bool optimized = m != KernelMode::kReference;
  const bool drifted = t_seconds > config.t0_seconds;
  const double log_t_ratio =
      drifted ? std::log10(t_seconds / config.t0_seconds) : 0.0;
  // The vectorized tier evaluates a whole line's drift metrics as SIMD
  // lanes. The subtlety is the reference loop's early exit: it stops
  // *drawing* cells once errors exceed e, so the RNG stream position —
  // and every subsequent line's sample — depends on where the (e+1)-th
  // error landed. The lane path draws the whole line up front, and on a
  // failing line restores an RNG snapshot and replays exactly the draws
  // the reference path would have made (cells 0..k, k the (e+1)-th error
  // cell). Failing lines are the rare case by construction (LER is the
  // quantity being estimated), so the replay cost is negligible and the
  // failure count plus the RNG stream stay bit-identical across tiers.
  double params[19];
  const bool vectorized =
      m == KernelMode::kVectorized && drift_lane_params(config, params);
  parallel_for_shards(shards, [&](std::size_t shard) {
    Rng rng(seed, shard);
    const std::uint64_t begin = static_cast<std::uint64_t>(shard) * kShardLines;
    const std::uint64_t end = std::min(lines, begin + kShardLines);
    std::uint64_t failures = 0;
    if (vectorized) {
      std::vector<std::int32_t> lvl(cells);
      std::vector<double> zp(cells), za(cells);
      std::vector<double> logt(cells, log_t_ratio);
      std::vector<std::uint8_t> out(cells);
      for (std::uint64_t l = begin; l < end; ++l) {
        const Rng snapshot = rng;  // trivially copyable xoshiro state
        for (unsigned c = 0; c < cells; ++c) {
          // Same draws in the same order as the scalar loop below (the
          // Cell carries the draw logic so it cannot diverge from it).
          Cell cell;
          cell.program(rng.uniform_below(drift::kNumStates), 0.0, rng,
                       config);
          lvl[c] = static_cast<std::int32_t>(cell.programmed_level());
          zp[c] = cell.z_program();
          za[c] = cell.z_alpha();
        }
        simd::drift_levels_avx2(cells, lvl.data(), zp.data(), za.data(),
                                logt.data(), nullptr, params, out.data());
        unsigned errors = 0;
        unsigned stop = cells;
        for (unsigned c = 0; c < cells; ++c) {
          if (out[c] != lvl[c] && ++errors > e) {
            stop = c;
            break;
          }
        }
        if (errors > e) {
          ++failures;
          // Leave the stream where the early-exiting loop would have.
          rng = snapshot;
          for (unsigned c = 0; c <= stop; ++c) {
            Cell cell;
            cell.program(rng.uniform_below(drift::kNumStates), 0.0, rng,
                         config);
          }
        }
      }
      shard_failures[shard] = failures;
      return;
    }
    for (std::uint64_t l = begin; l < end; ++l) {
      unsigned errors = 0;
      for (unsigned c = 0; c < cells && errors <= e; ++c) {
        Cell cell;
        cell.program(rng.uniform_below(drift::kNumStates), 0.0, rng, config);
        const bool err =
            optimized
                ? cell.read_level_logt(drifted, log_t_ratio, config, 0.0) !=
                      cell.programmed_level()
                : cell.drift_error(t_seconds, config);
        errors += err ? 1 : 0;
      }
      if (errors > e) ++failures;
    }
    shard_failures[shard] = failures;
  });
  // Ordered reduction (uint64 addition is associative anyway, but keeping
  // the shard order makes the contract obvious and extension-proof).
  for (std::uint64_t f : shard_failures) result.failures += f;
  return result;
}

}  // namespace rd::pcm
