#include "pcm/chip.h"

#include <algorithm>

#include "common/check.h"
#include "common/kernels.h"
#include "config/loader.h"
#include "faults/injector.h"

namespace rd::pcm {

MlcChip::MlcChip(ChipConfig cfg)
    : cfg_(cfg),
      mode_(resolve_kernel_mode(cfg.kernels)),
      // The process-wide device (READDUO_DEVICE / --device) supplies the
      // metric configurations; the builtin device is bit-identical to
      // the old hard-coded drift::r_metric()/m_metric() calls.
      r_cfg_(config::active_device().r_metric),
      m_cfg_(config::active_device().m_metric),
      bch_(/*m=*/10, cfg.bch_t, cfg.data_bytes * 8, mode_),
      rng_(cfg.seed),
      faults_(cfg.faults != nullptr ? cfg.faults : faults::engine()),
      next_scrub_s_(cfg.scrub.interval_s) {
  RD_CHECK(cfg.num_lines >= 1);
  RD_CHECK(cfg.data_bytes >= 1);
  const std::size_t bits = bch_.codeword_bits() + (bch_.codeword_bits() & 1);
  const unsigned cells = static_cast<unsigned>(bits / 2);
  lines_.reserve(cfg.num_lines);
  for (std::size_t i = 0; i < cfg.num_lines; ++i) {
    lines_.emplace_back(bits, cells, cfg.ecp_pointers);
  }
  // Manufacturing-time / endurance wear faults: pin the planned stuck
  // cells before any data lands, exactly as inject_stuck_cell would.
  if (faults_ != nullptr) {
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      for (unsigned c = 0; c < cells; ++c) {
        if (auto level = faults_->stuck_level(i, c)) {
          lines_[i].cells.cell_at(c).set_stuck(*level);
          ++stats_.injected_faults;
        }
      }
    }
  }
}

BitVec MlcChip::encode(const std::vector<std::uint8_t>& data) const {
  RD_CHECK_MSG(data.size() == cfg_.data_bytes,
               "payload must be exactly " << cfg_.data_bytes << " bytes");
  const BitVec cw = bch_.encode(BitVec::from_bytes(data));
  // Pad to an even bit count (cells hold 2 bits).
  return cw.resized(cw.size() + (cw.size() & 1));
}

std::vector<std::uint8_t> MlcChip::extract(const BitVec& codeword) const {
  return codeword.to_bytes(cfg_.data_bytes);
}

BitVec MlcChip::codeword_of(const BitVec& image) const {
  RD_CHECK(image.size() >= bch_.codeword_bits());
  return image.resized(bch_.codeword_bits());
}

BitVec MlcChip::sense(const LineSlot& slot, const drift::MetricConfig& cfg,
                      std::size_t line, bool r_path) {
  const std::uint64_t serial = sense_serial_++;
  // Raw cell readout: injected transients are gathered per cell (the
  // fault serial advances identically in both kernel tiers), then the
  // whole line is sensed cell by cell on the reference path and through
  // the batched read_levels kernel on the optimized one. Levels are
  // bit-identical either way.
  std::vector<std::uint8_t> values(slot.cells.num_cells());
  std::vector<double> offsets;
  if (faults_ != nullptr && r_path) {
    offsets.resize(values.size(), 0.0);
    for (std::size_t c = 0; c < values.size(); ++c) {
      offsets[c] = faults_->sense_offset(line, c, serial);
      if (offsets[c] != 0.0) ++stats_.injected_faults;
    }
  }
  if (mode_ == KernelMode::kReference) {
    for (std::size_t c = 0; c < values.size(); ++c) {
      values[c] = drift::kLevelData[slot.cells.cells()[c].read_level(
          now_s_, cfg, offsets.empty() ? 0.0 : offsets[c])];
    }
  } else {
    slot.cells.read_levels(now_s_, cfg,
                           offsets.empty() ? nullptr : offsets.data(),
                           values.data());
    for (std::size_t c = 0; c < values.size(); ++c) {
      values[c] = drift::kLevelData[values[c]];
    }
  }
  // ...with ECP supplying retired cells' true values.
  slot.ecp.patch(values);
  return pack_cells(values.data(), values.size(), kGrayPairs);
}

void MlcChip::program(LineSlot& slot, const BitVec& codeword) {
  slot.cells.write_full(codeword, now_s_, rng_, r_cfg_);
  slot.last_write_s = now_s_;
  slot.written = true;
  ++stats_.writes;

  // Verify-after-write: a cell that fails to take its value is stuck;
  // retire it into ECP and remember its intended value. write_full
  // checked that the codeword fills the line, so its words cover every
  // cell.
  const std::vector<std::uint64_t>& words = codeword.words();
  std::vector<std::uint8_t> want(slot.cells.num_cells());
  for (std::size_t c = 0; c < want.size(); ++c) {
    want[c] = static_cast<std::uint8_t>(
        swap_pair(words[c >> 5] >> (2 * (c & 31))));
    const Cell& cell = slot.cells.cells()[c];
    if (cell.is_stuck() &&
        drift::kLevelData[cell.read_level(now_s_, r_cfg_)] != want[c] &&
        !slot.ecp.is_retired(static_cast<unsigned>(c))) {
      RD_CHECK_MSG(slot.ecp.retire_cell(static_cast<unsigned>(c)),
                   "line out of ECP pointers: decommission required");
      ++stats_.cells_retired;
    }
  }
  // lint: allow(atomic-order) ErrorPointers::store is not a std::atomic
  slot.ecp.store(want);
}

void MlcChip::write(std::size_t line, const std::vector<std::uint8_t>& data) {
  RD_CHECK(line < lines_.size());
  program(lines_[line], encode(data));
}

ChipReadResult MlcChip::read(std::size_t line) {
  RD_CHECK(line < lines_.size());
  LineSlot& slot = lines_[line];
  RD_CHECK_MSG(slot.written, "reading a never-written line");
  ++stats_.reads;

  ChipReadResult result;
  const bool try_r = cfg_.readout != ReadoutPolicy::kMSense;
  if (try_r) {
    BitVec cw = codeword_of(sense(slot, r_cfg_, line, /*r_path=*/true));
    // Adversarial burst at the detection boundary (READDUO_FAULTS "bch"):
    // flip 9..17 bits of the sensed word before decoding. The decoder
    // must report detected-uncorrectable (falling back to M-sense), never
    // miscorrect — hence decode_verified when faults are live.
    if (faults_ != nullptr) {
      const std::vector<unsigned> burst = faults_->bch_error_positions(
          line, r_read_serial_++, bch_.codeword_bits());
      if (!burst.empty()) ++stats_.injected_faults;
      for (unsigned p : burst) cw.flip(p);
    }
    const ecc::BchDecodeResult dec =
        faults_ != nullptr ? bch_.decode_verified(cw) : bch_.decode(cw);
    if (dec.corrected) {
      result.data = extract(cw);
      result.corrected = true;
      result.errors_corrected = dec.num_corrected;
      return result;
    }
    if (cfg_.readout == ReadoutPolicy::kRSense) {
      // No fallback: return the raw (uncorrected) data.
      ++stats_.uncorrectable;
      result.data = extract(cw);
      return result;
    }
  }

  // M-sense path (primary for kMSense, fallback for kHybrid).
  result.used_m_sense = true;
  if (cfg_.readout == ReadoutPolicy::kHybrid) ++stats_.m_fallbacks;
  BitVec cw = codeword_of(sense(slot, m_cfg_, line, /*r_path=*/false));
  const ecc::BchDecodeResult dec = bch_.decode(cw);
  result.data = extract(cw);
  result.corrected = dec.corrected;
  result.errors_corrected = dec.num_corrected;
  if (!dec.corrected) ++stats_.uncorrectable;
  return result;
}

void MlcChip::inject_stuck_cell(std::size_t line, unsigned cell,
                                unsigned level) {
  RD_CHECK(line < lines_.size());
  RD_CHECK(cell < lines_[line].cells.num_cells());
  lines_[line].cells.cell_at(cell).set_stuck(level);
}

double MlcChip::line_age(std::size_t line) const {
  RD_CHECK(line < lines_.size());
  RD_CHECK(lines_[line].written);
  return now_s_ - lines_[line].last_write_s;
}

void MlcChip::advance_time(double seconds) {
  RD_CHECK(seconds >= 0.0);
  const double target = now_s_ + seconds;
  if (cfg_.scrub.interval_s > 0.0) {
    while (next_scrub_s_ <= target) {
      now_s_ = next_scrub_s_;
      run_scrub_pass();
      next_scrub_s_ += cfg_.scrub.interval_s;
    }
  }
  now_s_ = target;
}

void MlcChip::run_scrub_pass() {
  ++stats_.scrub_passes;
  const drift::MetricConfig& cfg = cfg_.scrub.use_m_sense ? m_cfg_ : r_cfg_;
  for (std::size_t li = 0; li < lines_.size(); ++li) {
    LineSlot& slot = lines_[li];
    if (!slot.written) continue;
    BitVec cw = codeword_of(
        sense(slot, cfg, li, /*r_path=*/!cfg_.scrub.use_m_sense));
    const ecc::BchDecodeResult dec = bch_.decode(cw);
    if (!dec.corrected) {
      // More errors than the code can fix even on the scrub metric.
      ++stats_.uncorrectable;
      continue;
    }
    const bool rewrite =
        cfg_.scrub.w == 0 || dec.num_corrected >= cfg_.scrub.w;
    if (rewrite) {
      ++stats_.scrub_rewrites;
      program(slot, cw.resized(slot.cells.num_bits()));
      --stats_.writes;  // scrub rewrites are accounted separately
    }
  }
}

}  // namespace rd::pcm
