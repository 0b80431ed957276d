#include "pcm/ecp.h"

namespace rd::pcm {

EcpLine::EcpLine(unsigned cells, unsigned n) : cells_(cells) {
  RD_CHECK(cells >= 1);
  RD_CHECK(n >= 1);
  entries_.resize(n);
}

bool EcpLine::retire_cell(unsigned cell) {
  RD_CHECK(cell < cells_);
  if (is_retired(cell)) return true;  // idempotent
  if (exhausted()) return false;
  entries_[used_].cell = cell;
  entries_[used_].valid = true;
  ++used_;
  return true;
}

bool EcpLine::is_retired(unsigned cell) const {
  for (const Entry& e : entries_) {
    if (e.valid && e.cell == cell) return true;
  }
  return false;
}

void EcpLine::patch(std::vector<std::uint8_t>& cell_values) const {
  RD_CHECK(cell_values.size() == cells_);
  // Later pointers override earlier ones (an ECP entry can itself go bad
  // and be re-pointed; scanning in order preserves that semantic).
  for (const Entry& e : entries_) {
    if (e.valid) cell_values[e.cell] = e.value;
  }
}

void EcpLine::store(const std::vector<std::uint8_t>& cell_values) {
  RD_CHECK(cell_values.size() == cells_);
  for (Entry& e : entries_) {
    if (e.valid) e.value = cell_values[e.cell] & 0b11;
  }
}

}  // namespace rd::pcm
