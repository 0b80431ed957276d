#include "pcm/line.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/simd_kernels.h"

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

bool drift_lane_params(const drift::MetricConfig& cfg, double (&params)[19]) {
  const double b0 = cfg.upper_boundary(0);
  const double b1 = cfg.upper_boundary(1);
  const double b2 = cfg.upper_boundary(2);
  if (simd_level() != SimdLevel::kAvx2 || !(b0 <= b1 && b1 <= b2)) {
    return false;
  }
  for (std::size_t i = 0; i < drift::kNumStates; ++i) {
    params[i] = cfg.states[i].mu;
    params[4 + i] = cfg.states[i].sigma;
    params[8 + i] = cfg.states[i].mu_alpha;
    params[12 + i] = cfg.states[i].sigma_alpha;
  }
  params[16] = b0;
  params[17] = b1;
  params[18] = b2;
  return true;
}

MlcLine::MlcLine(std::size_t nbits) : programmed_(nbits) {
  RD_CHECK_MSG(nbits % 2 == 0, "MLC line needs an even bit count");
  cells_.resize(nbits / 2);
}

Cell& MlcLine::cell_at(std::size_t i) {
  RD_CHECK(i < cells_.size());
  // Mutable handle: the caller may set_stuck / reprogram through it, so
  // the SoA mirror can no longer be trusted.
  soa_.valid = false;
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
  soa_.valid = false;
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
  soa_.valid = false;
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
  if (refreshed != 0) soa_.valid = false;
  return refreshed;
}

void MlcLine::read_levels_batched(double t_seconds,
                                  const drift::MetricConfig& cfg,
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

void MlcLine::ensure_soa() const {
  if (soa_.valid) return;
  const std::size_t n = cells_.size();
  soa_.level.resize(n);
  soa_.z_program.resize(n);
  soa_.z_alpha.resize(n);
  soa_.t_write.resize(n);
  soa_.stuck.resize(n);
  soa_.stuck_level.resize(n);
  soa_.num_stuck = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const Cell& cell = cells_[c];
    soa_.level[c] = static_cast<std::int32_t>(cell.programmed_level());
    soa_.z_program[c] = cell.z_program();
    soa_.z_alpha[c] = cell.z_alpha();
    soa_.t_write[c] = cell.write_time();
    soa_.stuck[c] = cell.is_stuck() ? 1 : 0;
    soa_.stuck_level[c] = static_cast<std::uint8_t>(cell.stuck_level());
    soa_.num_stuck += soa_.stuck[c];
  }
  soa_.valid = true;
}

void MlcLine::read_levels_vectorized(double t_seconds,
                                     const drift::MetricConfig& cfg,
                                     const double* offsets,
                                     std::uint8_t* out_levels) const {
  double params[19];
  if (!drift_lane_params(cfg, params)) {
    read_levels_batched(t_seconds, cfg, offsets, out_levels);
    return;
  }
  ensure_soa();
  const std::size_t n = cells_.size();
  // Per-call log_t fill with the same run caching as the batched loop:
  // one log10 per run of equal write times, 0.0 for undrifted cells.
  soa_.log_t.resize(n);
  bool have_cached = false;
  double cached_tw = 0.0;
  double cached_logt = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    const double tw = soa_.t_write[c];
    if (!have_cached || tw != cached_tw) {
      const double age = t_seconds - tw;
      cached_logt = age > cfg.t0_seconds ? std::log10(age / cfg.t0_seconds)
                                         : 0.0;
      cached_tw = tw;
      have_cached = true;
    }
    soa_.log_t[c] = cached_logt;
  }
  simd::drift_levels_avx2(n, soa_.level.data(), soa_.z_program.data(),
                          soa_.z_alpha.data(), soa_.log_t.data(), offsets,
                          params, out_levels);
  // Stuck cells ignore metric and offset alike: overwrite after the fact.
  if (soa_.num_stuck != 0) {
    for (std::size_t c = 0; c < n; ++c) {
      if (soa_.stuck[c] != 0) out_levels[c] = soa_.stuck_level[c];
    }
  }
}

void MlcLine::read_levels(double t_seconds, const drift::MetricConfig& cfg,
                          const double* offsets, std::uint8_t* out_levels,
                          KernelMode mode) const {
  if (resolve_kernel_mode(mode) == KernelMode::kVectorized) {
    read_levels_vectorized(t_seconds, cfg, offsets, out_levels);
  } else {
    read_levels_batched(t_seconds, cfg, offsets, out_levels);
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
  soa_.levels_tmp.resize(cells_.size());
  std::uint8_t* levels = soa_.levels_tmp.data();
  read_levels(t_seconds, cfg, nullptr, levels, m);
  return pack_cells(levels, cells_.size(), kLevelPairs);
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
  soa_.levels_tmp.resize(cells_.size());
  std::uint8_t* levels = soa_.levels_tmp.data();
  read_levels(t_seconds, cfg, nullptr, levels, m);
  std::size_t n = 0;
  if (m == KernelMode::kVectorized && soa_.valid) {
    // Compare against the SoA mirror: 4-byte sequential loads instead of
    // striding through the (much larger) Cell objects.
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      n += levels[c] != soa_.level[c] ? 1 : 0;
    }
    return n;
  }
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    n += levels[c] != cells_[c].programmed_level() ? 1 : 0;
  }
  return n;
}

}  // namespace rd::pcm
