// Cross-validation of the analytic LER against the device Monte-Carlo,
// in the empirically measurable regime of Tables III/IV.
#include "pcm/mc_ler.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace rd::pcm {
namespace {

// gtest prints a Point as its raw bytes, and ctest names each case after
// that print. `tag` fills what would otherwise be uninitialised padding
// between `e` and `s`, so the names are the same on every build; its values
// reproduce the names the cases were first registered under.
struct Point {
  unsigned e;
  std::uint32_t tag;
  double s;
};
static_assert(sizeof(Point) == 16, "no padding left for the name to vary on");

class McVsAnalytic : public ::testing::TestWithParam<Point> {};

TEST_P(McVsAnalytic, RMetricTableIIIEntriesReproduce) {
  const unsigned e = GetParam().e;
  const double s = GetParam().s;
  const drift::MetricConfig cfg = drift::r_metric();
  const drift::LineGeometry geom;
  drift::LerCalculator calc{drift::ErrorModel(cfg), geom};
  const double analytic = calc.ler(e, s);
  ASSERT_GT(analytic, 5e-4);  // measurable with 20k lines

  const McLerResult mc = mc_ler(cfg, geom, e, s, /*lines=*/20000,
                                /*seed=*/1234 + e);
  const double tolerance = 6.0 * mc.stderr_() + 0.15 * analytic;
  EXPECT_NEAR(mc.ler(), analytic, tolerance)
      << "E=" << e << " S=" << s << " (mc=" << mc.ler()
      << " analytic=" << analytic << ")";
}

INSTANTIATE_TEST_SUITE_P(Points, McVsAnalytic,
                         ::testing::Values(Point{0, 0, 8.0},
                                           Point{0, 0x00091E03, 64.0},
                                           Point{1, 0xCAD00000, 64.0},
                                           Point{1, 0, 640.0},
                                           Point{2, 0, 1024.0}));

TEST(McLer, FailureCountsAreDeterministic) {
  const drift::MetricConfig cfg = drift::r_metric();
  const drift::LineGeometry geom;
  const McLerResult a = mc_ler(cfg, geom, 0, 64.0, 2000, 77);
  const McLerResult b = mc_ler(cfg, geom, 0, 64.0, 2000, 77);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(McLer, ZeroLines) {
  const McLerResult r =
      mc_ler(drift::r_metric(), drift::LineGeometry{}, 0, 8.0, 0, 1);
  EXPECT_EQ(r.ler(), 0.0);
  EXPECT_EQ(r.stderr_(), 0.0);
}

TEST(McLer, MMetricEssentiallyErrorFreeAt640) {
  const McLerResult r = mc_ler(drift::m_metric(), drift::LineGeometry{},
                               /*e=*/0, 640.0, 5000, 3);
  // Analytic: ~5e-6 per line; 5000 lines should see ~0 failures.
  EXPECT_LE(r.failures, 2u);
}

}  // namespace
}  // namespace rd::pcm
