// Device and system parameters (Tables VIII and IX of the paper).
//
// Timing constants come straight from the paper (Section IV): 150 ns
// R-read, 450 ns M-read, 600 ns R-M-read, 1000 ns iterative MLC write.
// The paper's Table IX energy values are garbled in the available text;
// the numbers here are literature-typical MLC PCM energies chosen so the
// paper's *relative* energy results hold (see DESIGN.md, substitutions).
#pragma once

#include <cstdint>

#include "common/units.h"

namespace rd::pcm {

/// Read/write timing (Table VIII / Section IV).
struct TimingParams {
  Ns r_read{150};       ///< current-mode (R-metric) line read
  Ns m_read{450};       ///< voltage-mode (M-metric) line read
  Ns rm_read{600};      ///< failed R-read followed by M-read
  Ns write{1000};       ///< iterative P&V MLC line write
  Ns bus_transfer{5};   ///< 64B line on the channel
};

/// Dynamic energy (substitute for Table IX), per line operation.
struct EnergyParams {
  Pj r_read{1000.0};     ///< 64B R-sensing read (~2 pJ/bit)
  Pj m_read{1500.0};     ///< 64B M-sensing read (longer integration)
  Pj cell_write{135.0};  ///< average P&V energy per MLC cell written
  /// Scrub senses are internal row reads (no decode/IO/bus): this fraction
  /// of a demand read's energy per line sensed.
  double internal_sense_scale = 0.5;
  /// Tri-level cells program with fewer, coarser P&V iterations (their
  /// target ranges are a full decade wide): per-cell write energy scale
  /// of the TLC baseline relative to 4-level MLC.
  double tlc_write_scale = 0.8;
  /// Static/background power of the memory subsystem in watts, used only
  /// for the "Product-S" (system energy) EDAP variant.
  double static_watts = 0.35;
};

/// Memory organization (Table VIII baseline; follows [26]): one rank of
/// eight 2 GB banks (Section III-E's "each 2GB memory bank").
struct MemoryOrg {
  std::uint64_t capacity_bytes = 16ull << 30;  ///< 8 banks x 2 GB
  unsigned num_banks = 8;
  unsigned line_bytes = 64;
  unsigned cells_per_line = 296;  ///< 256 data + 40 BCH-8 parity cells
  /// Lines sensed per scrub operation: the scrub engine works at row
  /// granularity (one activation senses a whole row) [2].
  unsigned lines_per_scrub = 16;

  std::uint64_t total_lines() const { return capacity_bytes / line_bytes; }
  std::uint64_t lines_per_bank() const { return total_lines() / num_banks; }
};

/// A device's scrub operating point; defaults: Table V's (S=640 s, W=1).
struct ScrubPolicy {
  double interval_s = 640.0;  ///< scrub period S in seconds; 0 disables
  unsigned w = 1;             ///< rewrite threshold W (0 = always rewrite)
  bool use_m_sense = true;    ///< chip only: scrub with M- or R-sensing
};

/// CPU front-end configuration (Table VIII: 4-core in-order).
struct CpuParams {
  unsigned num_cores = 4;
  double clock_ghz = 2.0;  ///< 1 IPC when not stalled on memory
  /// Fraction of post-LLC reads the in-order core actually blocks on;
  /// the rest are overlapped by hit-under-miss / prefetching before the
  /// dependent use. Calibrated so the M-metric scheme lands near the
  /// paper's +25% average slowdown (Section V-A).
  double read_stall_fraction = 0.30;

  /// Time to execute n instructions with no memory stall, rounded to ns.
  Ns compute_time(std::uint64_t n_instructions) const {
    return Ns{static_cast<std::int64_t>(
        static_cast<double>(n_instructions) / clock_ghz + 0.5)};
  }
};

}  // namespace rd::pcm
