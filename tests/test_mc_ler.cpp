// Cross-validation of the analytic LER against the device Monte-Carlo,
// in the empirically measurable regime of Tables III/IV.
#include "mc_ler.h"

#include <gtest/gtest.h>

#include <ostream>

namespace rd::pcm {
namespace {

struct Point {
  unsigned e;
  double s;
};

// Names each case after its point ("E1_S640").
void PrintTo(const Point& p, std::ostream* os) {
  *os << "E" << p.e << "_S" << p.s;
}

class McVsAnalytic : public ::testing::TestWithParam<Point> {};

TEST_P(McVsAnalytic, RMetricTableIIIEntriesReproduce) {
  const unsigned e = GetParam().e;
  const double s = GetParam().s;
  const drift::MetricConfig cfg = drift::r_metric();
  drift::LerCalculator calc{drift::ErrorModel(cfg)};
  const double analytic = calc.ler(e, s);
  ASSERT_GT(analytic, 5e-4);  // measurable with 20k lines

  const McLerResult mc = mc_ler(cfg, e, s, /*lines=*/20000,
                                /*seed=*/1234 + e);
  const double tolerance = 6.0 * mc.stderr_() + 0.15 * analytic;
  EXPECT_NEAR(mc.ler(), analytic, tolerance)
      << "E=" << e << " S=" << s << " (mc=" << mc.ler()
      << " analytic=" << analytic << ")";
}

INSTANTIATE_TEST_SUITE_P(Points, McVsAnalytic,
                         ::testing::Values(Point{0, 8.0}, Point{0, 64.0},
                                           Point{1, 64.0}, Point{1, 640.0},
                                           Point{2, 1024.0}),
                         ::testing::PrintToStringParamName());

TEST(McLer, FailureCountsAreDeterministic) {
  const drift::MetricConfig cfg = drift::r_metric();
  const McLerResult a = mc_ler(cfg, 0, 64.0, 2000, 77);
  const McLerResult b = mc_ler(cfg, 0, 64.0, 2000, 77);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(McLer, ZeroLines) {
  const McLerResult r = mc_ler(drift::r_metric(), 0, 8.0, 0, 1);
  EXPECT_EQ(r.ler(), 0.0);
  EXPECT_EQ(r.stderr_(), 0.0);
}

TEST(McLer, MMetricEssentiallyErrorFreeAt640) {
  const McLerResult r = mc_ler(drift::m_metric(), /*e=*/0, 640.0, 5000, 3);
  // Analytic: ~5e-6 per line; 5000 lines should see ~0 failures.
  EXPECT_LE(r.failures, 2u);
}

}  // namespace
}  // namespace rd::pcm
