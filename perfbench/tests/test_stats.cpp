// The benchmark's own statistics: the tail rule, median and quartiles
// (pinned against Python's statistics module), and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "pb/spans.h"
#include "pb/stats.h"

namespace pb {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(42));
  return v;
}

TEST(Median, MatchesPython) {
  EXPECT_DOUBLE_EQ(median({3.5, 1.25, 9.0, 2.0, 7.75}), 3.5);
  EXPECT_DOUBLE_EQ(median(one_to(10)), 5.5);  // mean of the middle two
  EXPECT_DOUBLE_EQ(median({4.0}), 4.0);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  // statistics.quantiles(v, n=4) on the same inputs.
  Quartiles q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  q = quartiles({3.5, 1.25, 9.0, 2.0, 7.75});
  EXPECT_DOUBLE_EQ(q.q1, 1.625);
  EXPECT_DOUBLE_EQ(q.q2, 3.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.375);
  // Two points extrapolate, as Python does.
  q = quartiles({5.0, 1.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.0);
  EXPECT_DOUBLE_EQ(q.q2, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 6.0);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  struct Case {
    int n;
    double percentile;
    double value;
    std::size_t beyond;
  };
  for (const Case& c : {Case{20, 50, 10, 10}, Case{100, 90, 90, 10},
                        Case{252, 95, 240, 12}, Case{1000, 99, 990, 10},
                        Case{10000, 99.9, 9990, 10},
                        Case{150000, 99.99, 149985, 15}}) {
    const std::optional<Tail> t = tail(one_to(c.n));
    ASSERT_TRUE(t.has_value()) << c.n;
    EXPECT_DOUBLE_EQ(t->percentile, c.percentile) << c.n;
    EXPECT_DOUBLE_EQ(t->value, c.value) << c.n;
    EXPECT_EQ(t->samples, static_cast<std::size_t>(c.n));
    EXPECT_EQ(t->beyond, c.beyond) << c.n;
  }
}

TEST(Tail, TooFewSamplesHaveNone) {
  EXPECT_FALSE(tail(one_to(19)).has_value());
  EXPECT_FALSE(tail({}).has_value());
}

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent) {
  EXPECT_EQ(self_ns({0, 100}, {}), 100);
  EXPECT_EQ(self_ns({0, 100}, {{10, 20}, {50, 60}}), 80);
  // Overlapping children (other threads) count once.
  EXPECT_EQ(self_ns({0, 100}, {{15, 30}, {10, 20}, {50, 60}}), 70);
  // Only the part inside the parent counts.
  EXPECT_EQ(self_ns({0, 100}, {{90, 120}, {-10, 5}, {200, 300}}), 85);
  EXPECT_EQ(self_ns({0, 100}, {{0, 100}, {20, 30}}), 0);
}

TEST(Tracer, CountsEachNameAndNestedSpansFitTheirParent) {
  Tracer tr(true);
  for (int i = 0; i < 3; ++i) {
    Tracer::Span outer(tr, "outer");
    { Tracer::Span a(tr, "inner"); }
    {
      Tracer::Span b(tr, "inner");
      b.rename("renamed");
    }
  }
  const Tracer::Agg outer = tr.total("outer");
  const Tracer::Agg inner = tr.total("inner");
  const Tracer::Agg renamed = tr.total("renamed");
  EXPECT_EQ(outer.count, 3u);
  EXPECT_EQ(inner.count, 3u);
  EXPECT_EQ(renamed.count, 3u);
  EXPECT_LE(inner.total_ns + renamed.total_ns, outer.total_ns);
}

TEST(Tracer, OffRecordsNothing) {
  Tracer tr(false);
  { Tracer::Span s(tr, "x"); }
  EXPECT_TRUE(tr.totals().empty());
  tr.set_on(true);
  { Tracer::Span s(tr, "x"); }
  EXPECT_EQ(tr.total("x").count, 1u);
}

}  // namespace
}  // namespace pb
