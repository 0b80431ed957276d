#include "readduo/line_table.h"

#include "common/check.h"

namespace rd::readduo {

namespace {

constexpr std::size_t kInitialSlots = 16;

}  // namespace

LineTable::LineTable(std::uint32_t max_entries)
    : max_entries_(max_entries),
      slots_(kInitialSlots, 0),
      mask_(kInitialSlots - 1) {}

LineState& LineTable::insert(std::uint64_t line, const LineState& st) {
  RD_CHECK_MSG(keys_.size() < max_entries_,
               "line table full at " << max_entries_ << " lines");
  if (2 * (keys_.size() + 1) > slots_.size()) grow();
  std::size_t i = line_hash(line) & mask_;
  for (; slots_[i] != 0; i = (i + 1) & mask_) {
    RD_CHECK_MSG(keys_[slots_[i] - 1] != line,
                 "line " << line << " inserted twice");
  }
  keys_.push_back(line);
  values_.push_back(st);
  slots_[i] = static_cast<std::uint32_t>(keys_.size());
  return values_.back();
}

void LineTable::grow() {
  slots_.assign(2 * slots_.size(), 0);
  mask_ = slots_.size() - 1;
  for (std::size_t v = 0; v < keys_.size(); ++v) {
    std::size_t i = line_hash(keys_[v]) & mask_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = static_cast<std::uint32_t>(v + 1);
  }
}

}  // namespace rd::readduo
