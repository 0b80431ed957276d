// Functional MLC PCM chip model — the Figure 7 architecture end to end.
//
// Where memsim::Simulator models *timing* statistically, MlcChip models
// *function*: it stores real bytes in Monte-Carlo cells, encodes every
// line with the real BCH-8 codec, reads back through the ReadDuo hybrid
// readout (R-sense, BCH decode, M-sense fallback), patches stuck cells
// with ECP, and runs the periodic scrub engine against its own clock.
// Use it to watch actual data survive drift; use memsim for performance.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/kernels.h"
#include "common/rng.h"
#include "drift/metric.h"
#include "ecc/bch.h"
#include "pcm/ecp.h"
#include "pcm/line.h"
#include "pcm/params.h"

namespace rd::faults {
class FaultEngine;
}  // namespace rd::faults

namespace rd::pcm {

/// How the chip senses reads.
enum class ReadoutPolicy {
  kRSense,  ///< current sensing only (fast, drift-fragile)
  kMSense,  ///< voltage sensing only (slow, drift-resilient)
  kHybrid,  ///< ReadDuo: R first, M retry when BCH detects > t errors
};

/// Chip configuration.
struct ChipConfig {
  std::size_t num_lines = 256;
  unsigned data_bytes = 64;       ///< payload per line
  unsigned bch_t = 8;             ///< BCH correction strength
  ReadoutPolicy readout = ReadoutPolicy::kHybrid;
  ScrubPolicy scrub;  ///< the scrub engine's period, W and sense metric
  unsigned ecp_pointers = 6;
  std::uint64_t seed = 1;
  /// Fault injector; nullptr defers to the process-wide faults::engine().
  const faults::FaultEngine* faults = nullptr;
  /// Kernel implementation for the chip's BCH codec and line sensing
  /// (kAuto: READDUO_KERNELS). Reads are bit-identical across modes.
  KernelMode kernels = KernelMode::kAuto;
};

/// Outcome of a functional read.
struct ChipReadResult {
  std::vector<std::uint8_t> data;  ///< recovered payload (data_bytes)
  bool used_m_sense = false;       ///< hybrid fell back to voltage sensing
  bool corrected = false;          ///< BCH produced a valid codeword
  unsigned errors_corrected = 0;   ///< bit flips the decoder fixed
};

/// Chip lifetime statistics.
struct ChipStats {
  std::uint64_t reads = 0;
  std::uint64_t m_fallbacks = 0;
  std::uint64_t writes = 0;
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_rewrites = 0;
  std::uint64_t cells_retired = 0;  ///< stuck cells patched by ECP
  std::uint64_t uncorrectable = 0;
  std::uint64_t injected_faults = 0;  ///< READDUO_FAULTS events absorbed
};

/// A functional MLC PCM chip with ReadDuo readout.
class MlcChip {
 public:
  explicit MlcChip(ChipConfig cfg);

  const ChipConfig& config() const { return cfg_; }
  const ChipStats& stats() const { return stats_; }
  double now() const { return now_s_; }

  /// Advance the chip clock; scrub sweeps due in the interval run in
  /// order. Requires seconds >= 0.
  void advance_time(double seconds);

  /// Write a payload of exactly data_bytes to `line` at the current time.
  /// Verify-after-write retires any stuck cells into the line's ECP.
  void write(std::size_t line, const std::vector<std::uint8_t>& data);

  /// Read `line` at the current time through the configured readout.
  ChipReadResult read(std::size_t line);

  /// Fault injection: pin a cell of a line at a level (endurance wear).
  void inject_stuck_cell(std::size_t line, unsigned cell, unsigned level);

  /// Seconds since the line was last (re)written. Requires it was written.
  double line_age(std::size_t line) const;

 private:
  struct LineSlot {
    MlcLine cells;
    EcpLine ecp;
    double last_write_s = 0.0;
    bool written = false;

    LineSlot(std::size_t bits, unsigned cells_n, unsigned ecp_n)
        : cells(bits), ecp(cells_n, ecp_n) {}
  };

  BitVec encode(const std::vector<std::uint8_t>& data) const;
  std::vector<std::uint8_t> extract(const BitVec& codeword) const;
  /// The BCH codeword inside a sensed line image (drops the cell pad).
  BitVec codeword_of(const BitVec& image) const;
  /// Sense + ECP patch under `cfg` at the current time. `r_path` marks a
  /// current-sense (R) readout: injected sensing transients model noise in
  /// that fast path only — voltage (M) sensing is the robust reference and
  /// stays clean, mirroring the scheme layer's sample_r_errors seam.
  /// `line` keys the transients; non-const because each sense advances the
  /// fault serial (the chip is strictly serial, so this stays
  /// deterministic).
  BitVec sense(const LineSlot& slot, const drift::MetricConfig& cfg,
               std::size_t line, bool r_path);
  /// Program the codeword; verify and retire stuck cells.
  void program(LineSlot& slot, const BitVec& codeword);
  void run_scrub_pass();

  ChipConfig cfg_;
  /// cfg_.kernels with kAuto resolved at construction.
  KernelMode mode_;
  drift::MetricConfig r_cfg_;
  drift::MetricConfig m_cfg_;
  ecc::BchCode bch_;
  Rng rng_;
  /// cfg_.faults, or the process engine; resolved once at construction.
  const faults::FaultEngine* faults_;
  double now_s_ = 0.0;
  double next_scrub_s_ = 0.0;
  /// Serials keying per-sense / per-R-read fault decisions.
  std::uint64_t sense_serial_ = 0;
  std::uint64_t r_read_serial_ = 0;
  std::vector<LineSlot> lines_;
  ChipStats stats_;
};

}  // namespace rd::pcm
