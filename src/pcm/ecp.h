// ECP — Error-Correcting Pointers [Schechter et al., ISCA'10] for PCM
// hard errors (stuck-at cells from endurance wear-out).
//
// The paper's architecture (Section III-E) notes hard-error mitigation is
// orthogonal to drift and can live in the ECC chip; a production MLC PCM
// rank ships with it. ECP-n stores n (pointer, replacement) pairs per
// line: a pointer names a stuck cell, the replacement cell supplies its
// value. Unlike ECC, correction capacity never degrades with the number
// of reads — stuck cells are permanently patched.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.h"

namespace rd::pcm {

/// ECP-n corrector for a line of `cells` MLC cells (2 bits each).
class EcpLine {
 public:
  /// @param cells  cells per line (296 in the paper's geometry)
  /// @param n      number of correction pointers (ECP-6 is typical)
  explicit EcpLine(unsigned cells, unsigned n = 6);

  unsigned capacity() const { return static_cast<unsigned>(entries_.size()); }
  unsigned used() const { return used_; }
  bool exhausted() const { return used_ == capacity(); }

  /// Record a newly discovered stuck cell; its stored value will be
  /// supplied by a replacement cell from now on. Returns false when all
  /// pointers are spent (the line must be decommissioned / remapped).
  bool retire_cell(unsigned cell);

  /// Is this cell patched by a pointer?
  bool is_retired(unsigned cell) const;

  /// Apply the patches: given the raw 2-bit readouts of the line, replace
  /// retired cells' values with their replacement-cell values.
  void patch(std::vector<std::uint8_t>& cell_values) const;

  /// Write path: store the correct value for every retired cell into its
  /// replacement cell.
  void store(const std::vector<std::uint8_t>& cell_values);

 private:
  struct Entry {
    unsigned cell = 0;
    std::uint8_t value = 0;
    bool valid = false;
  };
  unsigned cells_;
  unsigned used_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace rd::pcm
