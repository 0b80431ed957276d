// Per-line simulator state and the flat table that holds it.
//
// A full-system run touches a few hundred thousand distinct lines, almost
// every one for the first time, so the table is the simulator's hottest
// structure. Values live in insertion order in a std::deque (push_back
// never moves an element, so a LineState& stays valid across growth);
// their keys sit in a parallel vector; a power-of-two index of 32-bit
// slots (0 = empty, else value index + 1), keyed by a splitmix64 hash of
// the line and probed linearly, finds them. The index doubles at 50 %
// load. The table exposes no iteration, so hash order cannot reach an
// output; a future walk would go in insertion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "readduo/lwt_flags.h"

namespace rd::readduo {

/// Per-line simulator-side state.
struct LineState {
  /// Absolute time (seconds, may be negative = before the window) of the
  /// last write of any kind.
  double last_write_s = 0.0;
  /// Last *full-line* write; differs from last_write_s only under
  /// ReadDuo-Select. Drift-error sampling keys off this one: differential
  /// writes leave unmodified cells drifting from the older time.
  double last_full_write_s = 0.0;
  /// LWT flag bits (only meaningful for LWT/Select schemes).
  LwtFlags flags{4};
  /// Set when the line was written back by R-M-read conversion; tracked
  /// reads hitting such lines are the controller's benefit signal.
  bool converted = false;
};

/// splitmix64 finalizer of a line address: a stable, well-spread hash.
inline std::uint64_t line_hash(std::uint64_t line) {
  std::uint64_t z = line + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Line address -> LineState, insert-only. References returned by find()
/// and insert() stay valid for the table's lifetime.
class LineTable {
 public:
  /// Most entries a 32-bit slot can name (slot = index + 1).
  static constexpr std::uint32_t kMaxEntries = 0xffffffffu;

  /// `max_entries` below kMaxEntries only lets tests reach the limit.
  explicit LineTable(std::uint32_t max_entries = kMaxEntries);

  /// The state of `line`, or nullptr if it was never inserted.
  LineState* find(std::uint64_t line) {
    for (std::size_t i = line_hash(line) & mask_;; i = (i + 1) & mask_) {
      const std::uint32_t s = slots_[i];
      if (s == 0) return nullptr;
      if (keys_[s - 1] == line) return &values_[s - 1];
    }
  }

  /// Add `line` (which must be absent) with state `st`. Fails with
  /// RD_CHECK instead of wrapping once max_entries are held.
  LineState& insert(std::uint64_t line, const LineState& st);

  std::size_t size() const { return keys_.size(); }

 private:
  /// Double the index and re-slot every key.
  void grow();

  std::uint32_t max_entries_;
  std::deque<LineState> values_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_;
};

}  // namespace rd::readduo
