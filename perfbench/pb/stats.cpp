#include "pb/stats.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace pb {

double median(std::vector<double> v) {
  RD_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> v) {
  RD_CHECK(v.size() >= 2);
  std::sort(v.begin(), v.end());
  const std::int64_t ld = static_cast<std::int64_t>(v.size());
  const std::int64_t m = ld + 1;
  std::array<double, 3> q{};
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return {q[0], q[1], q[2]};
}

std::optional<Tail> tail(std::vector<double> v) {
  // Percentiles in thousandths of a percent, so ranks are exact integers.
  static constexpr std::array<std::uint64_t, 10> kLadder = {
      50000, 90000, 95000, 99000, 99500, 99900, 99950, 99990, 99995, 99999};
  constexpr std::uint64_t kScale = 100000;
  constexpr std::size_t kMinBeyond = 10;
  std::sort(v.begin(), v.end());
  const std::uint64_t n = v.size();
  std::optional<Tail> best;
  for (const std::uint64_t p : kLadder) {
    const std::uint64_t rank = (p * n + kScale - 1) / kScale;  // nearest rank
    if (rank == 0 || n - rank < kMinBeyond) break;
    best = Tail{static_cast<double>(p) / 1000.0,
                v[static_cast<std::size_t>(rank - 1)],
                static_cast<std::size_t>(n),
                static_cast<std::size_t>(n - rank)};
  }
  return best;
}

std::int64_t self_ns(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::int64_t covered = 0;
  std::int64_t reach = parent.begin;  // end of the union so far
  for (const Interval& c : children) {
    if (c.end <= c.begin) continue;
    const std::int64_t from = std::max(c.begin, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.begin) - covered;
}

}  // namespace pb
