// The drift-mitigation scheme interface.
//
// A Scheme is the policy plugged into the memory-system simulator: it
// decides how each read is sensed (R / M / R-M), what a write costs, and
// what the scrub engine does — and it accounts latency, energy, endurance
// and reliability events. The six schemes of Section IV are implemented in
// schemes.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.h"
#include "stats/counters.h"

namespace rd::readduo {

/// How a read request was serviced.
enum class ReadMode {
  kRRead,   ///< fast current sensing, 150 ns
  kMRead,   ///< drift-resilient voltage sensing, 450 ns
  kRMRead,  ///< R-sensing failed / un-tracked, M retry, 600 ns
};

/// Result of a demand read as planned by the scheme.
struct ReadOutcome {
  ReadMode mode = ReadMode::kRRead;
  Ns latency{0};
  /// Request a redundant write-back of this line after the read (LWT
  /// R-M-read conversion). The simulator issues it as a low-priority
  /// write.
  bool convert_to_write = false;
};

/// Result of a write (demand, scrub rewrite, or conversion).
struct WriteOutcome {
  Ns latency{0};
  /// Number of cells actually programmed (full line or differential).
  unsigned cells_written = 0;
  bool full_line = true;
};

/// What the scrub engine must do for the row under its register.
struct ScrubOutcome {
  Ns sense_latency{0};
  /// How many of the row's lines need a rewrite (each is a write op).
  unsigned rewrites = 0;
};

/// Policy + bookkeeping for one drift-mitigation scheme.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual const std::string& name() const = 0;

  /// Scrub interval S in seconds (how often each line is scrubbed);
  /// 0 disables scrubbing (Ideal).
  virtual double scrub_interval_seconds() const = 0;
  /// What set S, for diagnostics: "scrub.interval" or "fixed by the kind".
  virtual const char* scrub_origin() const = 0;

  /// Plan a demand read of `line` at simulated time `now`. `archive` marks
  /// lines written long before the simulated window.
  virtual ReadOutcome on_read(std::uint64_t line, Ns now, bool archive) = 0;

  /// Plan a demand write.
  virtual WriteOutcome on_write(std::uint64_t line, Ns now) = 0;

  /// Plan the redundant write of a converted R-M-read (always full-line).
  virtual WriteOutcome on_converted_write(std::uint64_t line, Ns now) = 0;

  /// The scrub engine reached some row of the bank (statistically
  /// representative, not necessarily in the touched set). `lines` is the
  /// row size in lines.
  virtual ScrubOutcome on_scrub(Ns now, unsigned lines) = 0;

  /// Plan the rewrite that follows a scrub sense with rewrite == true.
  virtual WriteOutcome on_scrub_rewrite(Ns now) = 0;

  stats::Counters& counters() { return counters_; }
  const stats::Counters& counters() const { return counters_; }

 protected:
  stats::Counters counters_;
};

}  // namespace rd::readduo
