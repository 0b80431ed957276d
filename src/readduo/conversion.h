// Adaptive R-M-read -> write conversion controller (Section III-C).
//
// ReadDuo-LWT can convert an R-M-read of an un-tracked line into a
// redundant write so the next reads of that line enjoy fast R-sensing.
// Blind conversion wastes endurance, so the controller adjusts the
// conversion percentage T in [0, 100] at steps of 10 per epoch, from two
// signals (the paper's own wording is partially garbled; this is our
// documented interpretation, ablated in bench_paper's Figure 14):
//   * P — the fraction of reads falling on un-tracked lines. If P exceeds
//     85% despite conversion, converted data is not being re-read and the
//     writes are wasted: decrease T (the paper's explicit 85% rule).
//   * benefit — the fraction of tracked reads that hit previously
//     converted lines. High benefit means conversions are paying off
//     (each converted line serves multiple fast R-reads): increase T;
//     near-zero benefit with active conversion: decrease T.
#pragma once

#include <cstdint>

namespace rd::readduo {

/// Epoch-based controller for the conversion percentage T.
class ConversionController {
 public:
  struct Config {
    bool enabled = true;
    unsigned initial_t = 50;          ///< starting percentage
    std::uint64_t epoch_reads = 4096; ///< reads per adjustment epoch
    /// T never drops below this probing floor while enabled: a trickle of
    /// conversions keeps measuring benefit, so workloads whose re-reads
    /// arrive later than one epoch (cyclic scans) can still ramp up.
    unsigned floor_t = 10;

    bool operator==(const Config&) const = default;
  };

  ConversionController() : ConversionController(Config{}) {}
  explicit ConversionController(Config cfg);

  /// Record one read. `untracked` marks a read that needed M-sensing
  /// because the line had no tracked write; `hit_converted` marks a
  /// tracked read that was fast only thanks to an earlier conversion.
  /// Adjusts T at epoch boundaries.
  void record_read(bool untracked, bool hit_converted);

  /// Record that a conversion was issued (pairs with should_convert).
  void record_conversion() { ++epoch_conversions_; }

  /// Should this un-tracked R-M-read be converted to a write? Samples the
  /// current percentage deterministically via a rotating counter, so
  /// exactly T% of candidates convert.
  bool should_convert();

  unsigned t_percent() const { return t_; }
  bool enabled() const { return cfg_.enabled; }

 private:
  Config cfg_;
  unsigned t_;
  std::uint64_t epoch_total_ = 0;
  std::uint64_t epoch_untracked_ = 0;
  std::uint64_t epoch_benefit_ = 0;
  std::uint64_t epoch_conversions_ = 0;
  std::uint64_t convert_counter_ = 0;
};

}  // namespace rd::readduo
