// MLC PCM memory-line model: 296 two-bit cells holding a 592-bit BCH
// codeword (512 data + 80 parity), with full writes, the per-cell drift
// refresh of Figure 6 and metric-based readout. This is the device-level
// ground truth the Monte-Carlo reliability experiments run on.
//
// Performance note (DESIGN.md §10): whole-line readout is a hot kernel
// (every chip read, scrub pass, and Figure 6 sweep senses all 296 cells at
// one instant). The batched read_levels path computes log10(age / t0)
// once per distinct write time instead of once per cell — after a full
// write that is one log10 for the whole line; after a refresh or a
// per-cell reprogram, one per run of same-age cells. It also hoists the
// three read boundaries and decides each level without a data-dependent
// branch (Cell::decide_level), so random levels cost no mispredicts. Selectable
// vs the straight per-cell reference via KernelMode; outputs are
// bit-identical (the batch runs the same Cell metric arithmetic with the
// hoisted operand, and its decision equals the reference walk for any
// boundary order).
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
  /// It has no tier of its own: the per-cell reference split lives in
  /// read()/count_drift_errors() and the chip's sense.
  void read_levels(double t_seconds, const drift::MetricConfig& cfg,
                   const double* offsets, std::uint8_t* out_levels) const;

  /// Number of cells that would be misread at time t under `cfg`.
  /// Dispatches like read().
  std::size_t count_drift_errors(double t_seconds,
                                 const drift::MetricConfig& cfg,
                                 KernelMode mode = KernelMode::kAuto) const;

 private:
  std::size_t target_level(const BitVec& bits, std::size_t cell) const;

  std::vector<Cell> cells_;
};

}  // namespace rd::pcm
