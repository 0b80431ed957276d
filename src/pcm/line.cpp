#include "pcm/line.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rd::pcm {

std::size_t data_to_level(std::uint8_t two_bits) {
  for (std::size_t level = 0; level < drift::kNumStates; ++level) {
    if (drift::kLevelData[level] == (two_bits & 0b11)) return level;
  }
  RD_CHECK_MSG(false, "unreachable: all 2-bit values are mapped");
  return 0;
}

BitVec pack_cells(const std::uint8_t* values, std::size_t ncells,
                  const std::uint64_t (&pairs)[drift::kNumStates]) {
  BitVec bits(2 * ncells);
  const std::size_t nwords = bits.words().size();
  for (std::size_t wi = 0; wi < nwords; ++wi) {
    std::uint64_t w = 0;
    const std::size_t c0 = wi * 32;
    const std::size_t c1 = std::min(c0 + 32, ncells);
    for (std::size_t c = c0; c < c1; ++c) {
      w |= pairs[values[c]] << (2 * (c - c0));
    }
    bits.set_word(wi, w);
  }
  return bits;
}

MlcLine::MlcLine(std::size_t nbits) : programmed_(nbits) {
  RD_CHECK_MSG(nbits % 2 == 0, "MLC line needs an even bit count");
  cells_.resize(nbits / 2);
}

Cell& MlcLine::cell_at(std::size_t i) {
  RD_CHECK(i < cells_.size());
  return cells_[i];
}

std::size_t MlcLine::target_level(const BitVec& bits, std::size_t cell) const {
  const std::uint8_t hi = bits.get(2 * cell) ? 1 : 0;
  const std::uint8_t lo = bits.get(2 * cell + 1) ? 1 : 0;
  return data_to_level(static_cast<std::uint8_t>((hi << 1) | lo));
}

void MlcLine::write_full(const BitVec& bits, double t_seconds, Rng& rng,
                         const drift::MetricConfig& cfg) {
  RD_CHECK(bits.size() == num_bits());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    cells_[c].program(target_level(bits, c), t_seconds, rng, cfg);
  }
  programmed_ = bits;
}

std::size_t MlcLine::write_differential(const BitVec& bits, double t_seconds,
                                        Rng& rng,
                                        const drift::MetricConfig& cfg) {
  RD_CHECK(bits.size() == num_bits());
  std::size_t written = 0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const std::size_t want = target_level(bits, c);
    if (cells_[c].programmed_level() != want) {
      cells_[c].program(want, t_seconds, rng, cfg);
      ++written;
    }
  }
  programmed_ = bits;
  return written;
}

std::size_t MlcLine::refresh_drifted(double t_seconds, Rng& rng,
                                     const drift::MetricConfig& cfg) {
  std::size_t refreshed = 0;
  for (Cell& c : cells_) {
    if (c.drift_error(t_seconds, cfg)) {
      c.program(c.programmed_level(), t_seconds, rng, cfg);
      ++refreshed;
    }
  }
  return refreshed;
}

void MlcLine::read_levels(double t_seconds, const drift::MetricConfig& cfg,
                          const double* offsets,
                          std::uint8_t* out_levels) const {
  // Hoist the drift law's log10: cells programmed at the same instant (a
  // full write, or each run of a differential write) share one
  // log10(age / t0). The cached value is exactly what the scalar path
  // would compute, so levels are bit-identical to per-cell read_level.
  bool have_cached = false;
  double cached_tw = 0.0;
  bool cached_drifted = false;
  double cached_logt = 0.0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    const double tw = cell.write_time();
    if (!have_cached || tw != cached_tw) {
      const double age = t_seconds - tw;
      cached_drifted = age > cfg.t0_seconds;
      cached_logt =
          cached_drifted ? std::log10(age / cfg.t0_seconds) : 0.0;
      cached_tw = tw;
      have_cached = true;
    }
    out_levels[c] = static_cast<std::uint8_t>(cell.read_level_logt(
        cached_drifted, cached_logt, cfg, offsets != nullptr ? offsets[c] : 0.0));
  }
}

BitVec MlcLine::read(double t_seconds, const drift::MetricConfig& cfg,
                     KernelMode mode) const {
  const KernelMode m = resolve_kernel_mode(mode);
  if (m == KernelMode::kReference) {
    BitVec out(num_bits());
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const std::size_t level = cells_[c].read_level(t_seconds, cfg);
      const std::uint8_t data = drift::kLevelData[level];
      out.set(2 * c, (data >> 1) & 1);
      out.set(2 * c + 1, data & 1);
    }
    return out;
  }
  std::vector<std::uint8_t> levels(cells_.size());
  read_levels(t_seconds, cfg, nullptr, levels.data());
  return pack_cells(levels.data(), cells_.size(), kLevelPairs);
}

std::size_t MlcLine::count_drift_errors(double t_seconds,
                                        const drift::MetricConfig& cfg,
                                        KernelMode mode) const {
  const KernelMode m = resolve_kernel_mode(mode);
  if (m == KernelMode::kReference) {
    std::size_t n = 0;
    for (const Cell& c : cells_) n += c.drift_error(t_seconds, cfg) ? 1 : 0;
    return n;
  }
  std::vector<std::uint8_t> levels(cells_.size());
  read_levels(t_seconds, cfg, nullptr, levels.data());
  std::size_t n = 0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    n += levels[c] != cells_[c].programmed_level() ? 1 : 0;
  }
  return n;
}

}  // namespace rd::pcm
