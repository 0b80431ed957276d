// Deterministic fault-injection plans (the READDUO_FAULTS knob).
//
// A FaultPlan is the parsed, validated description of which fault classes
// a run injects and how hard. It is pure data: the decisions themselves
// (which cell, which read, which frame) live in FaultEngine and are
// keyed hashes of (plan seed, stable identifiers), so a plan reproduces
// bit-identically across thread counts and process runs.
//
// Spec grammar (strict; any malformed token throws rd::CheckFailure):
//
//   spec    := clause (';' clause)*         empty clauses are skipped
//   clause  := 'seed=' <uint> | class (':' kv (',' kv)*)?
//   class   := 'stuck' | 'sense' | 'lwt-vec' | 'lwt-ind'
//            | 'bch' | 'wire'
//   kv      := key '=' value
//
// When the READDUO_FAULTS value names an existing file, the spec is read
// from it instead ('#' starts a comment, newlines act as ';').
//
// Per-class keys (all probabilities in [0, 1]):
//   stuck   p=<prob> level=<0..3>      probabilistic stuck-at cells, or
//           line=<n>,cell=<n>,level=<l> one explicitly addressed cell
//   sense   p=<prob> mag=<log10 units> per-cell-read transient offset
//   lwt-vec p=<prob>                   vector-flag bit flip per read
//   lwt-ind p=<prob>                   index-flag overwrite per read
//   bch     p=<prob> e=<9..17>         adversarial error burst per R-sense
//   wire    p=<prob>                   frame-payload corruption at the
//                                      readduo_serve socket boundary (the
//                                      CRC catches it; the client retries)
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rd::faults {

/// Fault classes, in canonical (spec keyword) order. Each gets its own
/// decision salt and per-class counter in FaultEngine.
enum class FaultClass : unsigned {
  kStuckCell = 0,   ///< "stuck": cells pinned at a level (endurance wear)
  kSenseOffset,     ///< "sense": transient per-read metric disturbance
  kLwtVector,       ///< "lwt-vec": LWT vector-flag bit flips
  kLwtIndex,        ///< "lwt-ind": LWT index-flag overwrites
  kBchError,        ///< "bch": 9..17-bit bursts at the detection boundary
  kWireCorrupt,     ///< "wire": inbound frame-payload corruption
};

inline constexpr std::size_t kNumFaultClasses = 6;

/// The spec keyword of a class ("stuck", "sense", ...).
const char* fault_class_name(FaultClass c);

/// One explicitly addressed stuck cell.
struct StuckAddress {
  std::uint64_t line = 0;
  std::uint64_t cell = 0;
  unsigned level = 3;  ///< RESET by default (the common wear failure)

  friend bool operator==(const StuckAddress& a, const StuckAddress& b) {
    return a.line == b.line && a.cell == b.cell && a.level == b.level;
  }
};

/// Parsed, validated fault configuration. Value type; compare with ==.
struct FaultPlan {
  std::uint64_t seed = 1;  ///< decision seed, independent of the sim seed

  // stuck
  double stuck_p = 0.0;
  unsigned stuck_level = 3;
  std::vector<StuckAddress> stuck_cells;

  // sense
  double sense_p = 0.0;
  double sense_mag = 0.5;  ///< additive metric offset, log10 units

  // lwt-vec / lwt-ind
  double lwt_vec_p = 0.0;
  double lwt_ind_p = 0.0;

  // bch
  double bch_p = 0.0;
  unsigned bch_e = 12;  ///< injected burst weight, 9..17

  // wire
  double wire_p = 0.0;

  /// True when any injector can perturb simulation results (stuck, sense,
  /// lwt-*, bch). The harness-only fault (wire) never changes
  /// what a run computes, only how the harness gets there — a corrupted
  /// frame is caught by the CRC and resent, so the admitted request
  /// sequence (and every virtual-time metric) is unchanged.
  bool affects_simulation() const;

  /// True when any class can fire at all.
  bool any() const;

  /// Parse the spec grammar above. Throws rd::CheckFailure naming the
  /// offending token on any malformed or out-of-range input.
  static FaultPlan parse(const std::string& spec);

  /// Canonical spec string. Round-trips: parse(p.canonical()) == p, up to
  /// normalizing away zero-probability clauses (whose other parameters are
  /// inert anyway).
  std::string canonical() const;

  friend bool operator==(const FaultPlan& a, const FaultPlan& b);
};

}  // namespace rd::faults
