// Statistics of the benchmark: medians, quartiles and the tail rule it
// reports, and span self time, which no metric reports yet. Kept free of any repository type so the tests in
// perfbench/tests can pin them on hand-made inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace pb {

/// Median as Python's statistics.median: the mean of the two middle
/// values for an even count. Requires a nonempty input.
double median(std::vector<double> v);

/// Quartiles as Python's statistics.quantiles(v, n=4) (the default
/// "exclusive" method). Requires at least two values.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

/// The tail of a sample: the highest percentile of a fixed ladder
/// (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999) that still
/// has at least ten samples strictly beyond it, by nearest rank. Empty
/// when fewer than twenty samples exist (not even p50 qualifies).
struct Tail {
  double percentile = 0;    ///< e.g. 99.9
  double value = 0;         ///< the sample at that rank
  std::size_t samples = 0;  ///< sample count
  std::size_t beyond = 0;   ///< samples ranked above it (>= 10)
};
std::optional<Tail> tail(std::vector<double> v);

/// A closed-open host-time interval in nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Self time of a span: its duration minus the part of its interval that
/// the union of its children's intervals covers. Children may overlap
/// each other (spans on several threads) and may stick out of the
/// parent; only the covered part inside the parent counts.
std::int64_t self_ns(Interval parent, std::vector<Interval> children);

}  // namespace pb
