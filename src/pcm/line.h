// MLC PCM memory-line model: 296 two-bit cells holding a 592-bit BCH
// codeword (512 data + 80 parity), with full and differential writes and
// metric-based readout. This is the device-level ground truth the
// Monte-Carlo reliability experiments run on.
//
// Performance note (DESIGN.md §10): whole-line readout is a hot kernel
// (every chip read, scrub pass, and Figure 6 sweep senses all 296 cells at
// one instant). The batched read_levels path computes log10(age / t0)
// once per distinct write time instead of once per cell — after a full
// write that is one log10 for the whole line; after differential writes,
// one per run of same-age cells. Selectable vs the straight per-cell
// reference via KernelMode; outputs are bit-identical (the batch calls the
// same Cell arithmetic with the hoisted operand).
//
// The vectorized tier (DESIGN.md §10.5) adds a lazily built
// structure-of-arrays mirror of the cells — parallel arrays of programmed
// level, percentiles, write time and stuck state — so the whole-line
// drift-metric evaluation runs as AVX2 lanes (drift_levels_avx2) with a
// stuck-cell fixup afterwards. The cache is invalidated by every
// mutator (writes, refresh, cell_at) and rebuilt on the next vectorized
// read; it makes the const read paths internally caching, which is safe
// here because a line is only ever read from the thread that owns it
// (shards own disjoint chips/lines — see common/parallel.h users).
// Level decisions are bit-identical to the scalar tiers: the lanes run
// the same unfused expression tree (kernels.h FP contract).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "pcm/cell.h"

namespace rd::pcm {

/// Map a 2-bit Gray value to its storage level (inverse of kLevelData).
std::size_t data_to_level(std::uint8_t two_bits);

/// Bit 2c of a line image is cell c's high Gray bit and bit 2c+1 its low
/// one, so a cell's 2-bit value and its two image bits (read as a number)
/// are each other's bit swap. Bits above the low two are ignored.
constexpr std::uint64_t swap_pair(std::uint64_t v) {
  return ((v >> 1) & 1) | ((v & 1) << 1);
}

/// A cell's two image bits, indexed by its 2-bit Gray value.
inline constexpr std::uint64_t kGrayPairs[drift::kNumStates] = {
    swap_pair(0), swap_pair(1), swap_pair(2), swap_pair(3)};
/// A cell's two image bits, indexed by its storage level.
inline constexpr std::uint64_t kLevelPairs[drift::kNumStates] = {
    swap_pair(drift::kLevelData[0]), swap_pair(drift::kLevelData[1]),
    swap_pair(drift::kLevelData[2]), swap_pair(drift::kLevelData[3])};

/// Pack `ncells` per-cell values into a `2 * ncells`-bit line image, 32
/// cells per 64-bit word; `pairs` (kGrayPairs or kLevelPairs) says what
/// the values are.
BitVec pack_cells(const std::uint8_t* values, std::size_t ncells,
                  const std::uint64_t (&pairs)[drift::kNumStates]);

/// Fill `params` with `cfg` in the drift lane kernel's layout
/// (simd_kernels.h drift_levels_avx2). False when the lanes cannot run:
/// the host has no AVX2, or the read boundaries are not monotone (the
/// kernel counts boundary exceedances, which equals
/// Cell::level_from_metric only for monotone boundaries).
bool drift_lane_params(const drift::MetricConfig& cfg, double (&params)[19]);

/// An array of MLC cells holding one memory line (codeword).
///
/// Bit i of the codeword lives in cell i/2; even bits are the high bit of
/// the cell's Gray pair. The line remembers which metric configuration it
/// was programmed against for R readout; M readout maps the same cells
/// through the M-metric config (see Cell).
class MlcLine {
 public:
  /// A line holding `nbits` bits (must be even).
  explicit MlcLine(std::size_t nbits);

  std::size_t num_bits() const { return 2 * cells_.size(); }
  std::size_t num_cells() const { return cells_.size(); }
  const std::vector<Cell>& cells() const { return cells_; }
  /// Mutable access for fault injection (stuck-at cells).
  Cell& cell_at(std::size_t i);

  /// Program every cell with the given codeword at time t (seconds).
  void write_full(const BitVec& bits, double t_seconds, Rng& rng,
                  const drift::MetricConfig& cfg);

  /// Program only the cells whose stored level differs from the target.
  /// Untouched cells keep their old write time and keep drifting — the
  /// hazard of naive differential write shown in Figure 6. Returns the
  /// number of cells programmed.
  std::size_t write_differential(const BitVec& bits, double t_seconds,
                                 Rng& rng, const drift::MetricConfig& cfg);

  /// Reprogram (to their stored level) exactly the cells that currently
  /// misread at time t — the naive differential scrub of Figure 6, which
  /// fixes today's drift errors but leaves the near-boundary survivor
  /// population in place. Returns the number of cells reprogrammed.
  std::size_t refresh_drifted(double t_seconds, Rng& rng,
                              const drift::MetricConfig& cfg);

  /// Sense all cells at time t under `cfg` and return the bit image.
  /// `mode` selects the batched or per-cell kernel (kAuto:
  /// READDUO_KERNELS); the image is bit-identical either way.
  BitVec read(double t_seconds, const drift::MetricConfig& cfg,
              KernelMode mode = KernelMode::kAuto) const;

  /// Sense all cells at time t under `cfg` into `out_levels` (size
  /// num_cells). `offsets`, when non-null, applies per-cell additive
  /// metric disturbances (the READDUO_FAULTS "sense" seam; stuck cells
  /// ignore theirs). This is the batched kernel behind read() and the
  /// chip's sense path: one log10 per distinct cell age, not per cell.
  /// `mode` kVectorized additionally routes the metric evaluation through
  /// the SIMD lane kernels when the host supports them (identical levels);
  /// kReference and kOptimized both run the scalar batched loop here —
  /// the per-cell reference split lives in read()/count_drift_errors().
  void read_levels(double t_seconds, const drift::MetricConfig& cfg,
                   const double* offsets, std::uint8_t* out_levels,
                   KernelMode mode = KernelMode::kAuto) const;

  /// Number of cells that would be misread at time t under `cfg`.
  /// Dispatches like read().
  std::size_t count_drift_errors(double t_seconds,
                                 const drift::MetricConfig& cfg,
                                 KernelMode mode = KernelMode::kAuto) const;

  /// The codeword most recently programmed (for test oracles).
  const BitVec& programmed_bits() const { return programmed_; }

 private:
  std::size_t target_level(const BitVec& bits, std::size_t cell) const;

  /// Rebuild the SoA mirror from cells_ if a mutator invalidated it.
  void ensure_soa() const;
  /// The SIMD lane read path; falls back to the scalar batched loop when
  /// drift_lane_params() says the lanes cannot run.
  void read_levels_vectorized(double t_seconds,
                              const drift::MetricConfig& cfg,
                              const double* offsets,
                              std::uint8_t* out_levels) const;
  void read_levels_batched(double t_seconds, const drift::MetricConfig& cfg,
                           const double* offsets,
                           std::uint8_t* out_levels) const;

  std::vector<Cell> cells_;
  BitVec programmed_;

  /// Structure-of-arrays mirror of cells_ for the vectorized read path,
  /// plus per-call scratch. Lazily built under const reads (hence
  /// mutable); invalidated by every mutator. num_stuck lets the common
  /// no-stuck case skip the fixup scan entirely.
  struct SoaCache {
    bool valid = false;
    std::vector<std::int32_t> level;
    std::vector<double> z_program;
    std::vector<double> z_alpha;
    std::vector<double> t_write;
    std::vector<std::uint8_t> stuck;
    std::vector<std::uint8_t> stuck_level;
    std::size_t num_stuck = 0;
    std::vector<double> log_t;            ///< scratch: per-cell log10(age/t0)
    std::vector<std::uint8_t> levels_tmp; ///< scratch: read()/count buffers
  };
  mutable SoaCache soa_;
};

}  // namespace rd::pcm
