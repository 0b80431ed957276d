// Deterministic fault injection: the decision engine behind READDUO_FAULTS.
//
// Every decision is a pure function of (plan.seed, a per-class salt, the
// stable identifiers of the decision point) — a line address, a cell index,
// a read serial, a frame payload — hashed into an Rng stream that is drawn
// exactly once per decision. Nothing depends on thread count, scheduling
// order, or wall clock, so a FaultPlan + seed reproduces the same faults
// bit-for-bit under READDUO_THREADS=1 and =N (test-enforced; see
// DESIGN.md §9 for the determinism contract).
//
// The injection seams are pull-based: chip / scheme / harness code holds a
// `const FaultEngine*` (null when faults are off) and asks it at each
// seam. The off path is a single pointer test — zero overhead, enforced by
// the golden tests' bit-identity with pre-fault outputs.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "faults/fault_plan.h"

namespace rd::faults {

/// Decision engine for one FaultPlan. Decision methods are const and
/// thread-safe; the per-class hit counters are atomic.
class FaultEngine {
 public:
  explicit FaultEngine(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  // ----------------------------------------------------- decisions ---

  /// Stuck level of functional-chip cell (line, cell), if faulted:
  /// explicit addresses first, then the probabilistic draw.
  std::optional<unsigned> stuck_level(std::uint64_t line,
                                      std::uint64_t cell) const;

  /// Additive metric offset (log10 units) for one cell sense of the
  /// functional chip; 0 when clean. `serial` is the chip's sense serial,
  /// so repeated reads of the same cell draw independent transients.
  double sense_offset(std::uint64_t line, std::uint64_t cell,
                      std::uint64_t serial) const;

  /// Extra R-metric errors the statistical model's read of `line` at
  /// `now` sees on top of the drift sample: binomial(ncells, sense_p).
  unsigned extra_r_errors(std::uint64_t line, Ns now, unsigned ncells) const;

  /// Vector-flag bit to flip (in [0, k)) for the LWT read of `line` at
  /// `now`, or nullopt when clean.
  std::optional<unsigned> lwt_vector_flip(std::uint64_t line, Ns now,
                                          unsigned k) const;

  /// Index-flag value (in [0, k)) to overwrite with, or nullopt.
  std::optional<unsigned> lwt_index_overwrite(std::uint64_t line, Ns now,
                                              unsigned k) const;

  /// Adversarial error burst for R-sense `serial` of `line`: plan.bch_e
  /// distinct bit positions in [0, codeword_bits), or empty when clean.
  /// Requires codeword_bits >= plan.bch_e when it fires.
  std::vector<unsigned> bch_error_positions(std::uint64_t line,
                                            std::uint64_t serial,
                                            unsigned codeword_bits) const;

  /// Corrupt `n` payload bytes of an inbound frame at the readduo_serve
  /// boundary; true when a byte was flipped. The decision is keyed by
  /// (payload content hash, per-connection frame serial) — stable
  /// identifiers, so a plan reproduces the same corruptions regardless
  /// of connection accept order or thread scheduling. Only payload bytes
  /// are touched (the header stays trustable), so every hit lands on the
  /// CRC-reject path: the server answers kBadFrame and the connection —
  /// and the run's virtual-time results — survive unchanged.
  bool wire_corrupt(char* bytes, std::size_t n, std::uint64_t serial) const;

  // ------------------------------------------------------ counters ---

  /// Faults of class `c` injected so far through this engine.
  std::uint64_t count(FaultClass c) const;

 private:
  /// The decision stream for (salt; k1, k2, k3): one Rng per decision,
  /// never shared, never advanced across decisions.
  Rng stream(std::uint64_t salt, std::uint64_t k1, std::uint64_t k2 = 0,
             std::uint64_t k3 = 0) const;
  void bump(FaultClass c, std::uint64_t n = 1) const;

  FaultPlan plan_;
  mutable std::array<std::atomic<std::uint64_t>, kNumFaultClasses> counts_{};
};

/// The process-wide engine parsed from READDUO_FAULTS on first use
/// (nullptr when the knob is unset or names an all-zero plan). When the
/// value names an existing file, the spec is read from it.
const FaultEngine* engine();

/// Test seam: replace the process engine (nullptr = faults off). Not
/// thread-safe; call only between runs. Tests should restore nullptr.
void set_engine_for_test(std::unique_ptr<FaultEngine> e);

}  // namespace rd::faults
