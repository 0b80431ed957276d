// Tests for the observability layer: latency histograms, bank gauges, the
// event-trace ring, and strict env parsing.
#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/env.h"
#include "stats/metrics.h"
#include "stats/trace_ring.h"

namespace rd {
namespace {

using stats::BankGauge;
using stats::LatencyHistogram;
using stats::SimMetrics;

// ------------------------------------------------------ bucket layout ---

TEST(Histogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_lo(v), v);
  }
  EXPECT_EQ(LatencyHistogram::bucket_hi(3), 4u);
}

TEST(Histogram, BucketIndexIsMonotoneAndSelfConsistent) {
  std::size_t prev = 0;
  for (std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 3, 4, 5, 7, 8, 15, 16, 150, 450, 600, 1023, 1024, 1u << 20,
           (1ull << 40) + 7, ~0ull}) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    EXPECT_GE(i, prev) << "v=" << v;
    prev = i;
    ASSERT_LT(i, LatencyHistogram::kNumBuckets);
    // v lies inside its own bucket's [lo, hi) range; the last bucket is
    // closed because its hi saturates at UINT64_MAX.
    EXPECT_GE(v, LatencyHistogram::bucket_lo(i)) << "v=" << v;
    if (i + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_LT(v, LatencyHistogram::bucket_hi(i)) << "v=" << v;
    } else {
      EXPECT_LE(v, LatencyHistogram::bucket_hi(i)) << "v=" << v;
    }
  }
}

TEST(Histogram, BucketBoundariesTile) {
  // Every bucket's hi is the next bucket's lo: no gaps, no overlaps.
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_hi(i),
              LatencyHistogram::bucket_lo(i + 1))
        << "bucket " << i;
  }
}

TEST(Histogram, LogSpacedResolutionBound) {
  // Relative bucket width (hi-lo)/lo is at most 25% from 4 ns up.
  for (std::size_t i = LatencyHistogram::bucket_index(4);
       i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    const double lo = static_cast<double>(LatencyHistogram::bucket_lo(i));
    const double hi = static_cast<double>(LatencyHistogram::bucket_hi(i));
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-12) << "bucket " << i;
  }
}

// ------------------------------------------------- recording and stats ---

TEST(Histogram, CountSumMaxMean) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  h.record(Ns{100});
  h.record(Ns{200});
  h.record(Ns{300});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600);
  EXPECT_EQ(h.max(), 300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(Histogram, NegativeValuesClampToZero) {
  LatencyHistogram h;
  h.record(Ns{-5});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, PercentilesAreOrderedAndBracketedByData) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(Ns{i});
  const double p50 = h.p50();
  const double p95 = h.p95();
  const double p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  // Within one bucket's resolution (<= 25%) of the exact quantiles.
  EXPECT_NEAR(p50, 500.0, 0.25 * 500.0);
  EXPECT_NEAR(p95, 950.0, 0.25 * 950.0);
  EXPECT_NEAR(p99, 990.0, 0.25 * 990.0);
}

TEST(Histogram, SingleValuePercentilesCollapse) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.record(Ns{155});
  // All mass in one bucket whose top is clamped to the exact max.
  EXPECT_LE(h.p50(), 155.0);
  EXPECT_GE(h.p50(), static_cast<double>(LatencyHistogram::bucket_lo(
                         LatencyHistogram::bucket_index(155))));
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 155.0);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  // Two values in well-separated buckets: the median walks from the low
  // bucket to the high one as p crosses the mass boundary.
  LatencyHistogram h;
  h.record(Ns{100});
  h.record(Ns{10000});
  EXPECT_LT(h.percentile(0.25), 150.0);
  EXPECT_GT(h.percentile(0.95), 5000.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10000.0);
}

// ---------------------------------------------------------------- merge ---

TEST(Histogram, MergeOfShardsEqualsSingleHistogram) {
  std::mt19937_64 rng(7);
  LatencyHistogram whole;
  std::vector<LatencyHistogram> shards(4);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v =
        static_cast<std::int64_t>(rng() % 1'000'000);
    whole.record(Ns{v});
    shards[static_cast<std::size_t>(i) % 4].record(Ns{v});
  }
  LatencyHistogram merged;
  for (const auto& s : shards) merged.merge(s);
  EXPECT_TRUE(merged == whole);
  EXPECT_DOUBLE_EQ(merged.p99(), whole.p99());
}

TEST(Histogram, MergeOrderIrrelevant) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(Ns{10 * i});
  for (int i = 0; i < 50; ++i) b.record(Ns{100'000 + i});
  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
}

TEST(Histogram, RestoreRoundTrips) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(Ns{i * 37});
  LatencyHistogram r;
  r.restore(h.buckets(), h.sum(), h.max());
  EXPECT_TRUE(r == h);
  EXPECT_EQ(r.count(), h.count());
}

// --------------------------------------------------------------- gauges ---

TEST(BankGaugeTest, MergeAccumulates) {
  BankGauge a{100, 2, 6, 4};
  BankGauge b{50, 1, 10, 10};
  a.merge(b);
  EXPECT_EQ(a.busy_ns, 150);
  EXPECT_EQ(a.depth_samples, 3u);
  EXPECT_EQ(a.depth_sum, 16u);
  EXPECT_EQ(a.depth_max, 10u);
  EXPECT_DOUBLE_EQ(a.avg_depth(), 16.0 / 3.0);
}

TEST(SimMetricsTest, MergeAlignsBanksByIndex) {
  SimMetrics a, b;
  a.banks.resize(2);
  b.banks.resize(4);
  b.banks[3].busy_ns = 7;
  b.lat(stats::ReqClass::kRRead).record(Ns{100});
  a.merge(b);
  ASSERT_EQ(a.banks.size(), 4u);
  EXPECT_EQ(a.banks[3].busy_ns, 7);
  EXPECT_EQ(a.lat(stats::ReqClass::kRRead).count(), 1u);
  EXPECT_EQ(a.demand_reads().count(), 1u);
}

// ----------------------------------------------------------- event ring ---

TEST(EventRing, KeepsLastNOldestFirst) {
  stats::EventRing ring(3);
  for (int i = 0; i < 5; ++i) {
    ring.push(stats::TraceEvent{i, 'R', 0, 0, static_cast<std::uint64_t>(i),
                                100});
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_pushed(), 5u);
  std::ostringstream os;
  ring.dump(os, "test");
  const std::string s = os.str();
  // Events 2, 3, 4 retained; 0 and 1 overwritten.
  EXPECT_EQ(s.find("t=0ns"), std::string::npos);
  EXPECT_EQ(s.find("t=1ns"), std::string::npos);
  EXPECT_NE(s.find("t=2ns"), std::string::npos);
  EXPECT_NE(s.find("t=4ns"), std::string::npos);
  EXPECT_LT(s.find("t=2ns"), s.find("t=3ns"));
  EXPECT_LT(s.find("t=3ns"), s.find("t=4ns"));
  EXPECT_NE(s.find("3 of 5 events retained"), std::string::npos);
  EXPECT_NE(s.find("test"), std::string::npos);
}

// ------------------------------------------------------------ env parse ---

TEST(EnvParse, AcceptsPlainIntegers) {
  EXPECT_EQ(parse_env_u64("X", "0"), 0u);
  EXPECT_EQ(parse_env_u64("X", "6000000"), 6'000'000u);
}

TEST(EnvParse, RejectsEverythingElse) {
  EXPECT_THROW(parse_env_u64("X", ""), CheckFailure);
  EXPECT_THROW(parse_env_u64("X", "abc"), CheckFailure);
  EXPECT_THROW(parse_env_u64("X", "6e6"), CheckFailure);
  EXPECT_THROW(parse_env_u64("X", "-1"), CheckFailure);
  EXPECT_THROW(parse_env_u64("X", "+1"), CheckFailure);
  EXPECT_THROW(parse_env_u64("X", " 5"), CheckFailure);
  EXPECT_THROW(parse_env_u64("X", "5 "), CheckFailure);
  EXPECT_THROW(parse_env_u64("X", "0x10"), CheckFailure);
  // Out of range for 64 bits.
  EXPECT_THROW(parse_env_u64("X", "99999999999999999999999"), CheckFailure);
}

}  // namespace
}  // namespace rd
