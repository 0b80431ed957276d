// Tests for the PCM device layer: cells, MLC lines, differential writes,
// P&V write model, TLC codec, and the area model.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "pcm/area.h"
#include "pcm/cell.h"
#include "pcm/line.h"
#include "pcm/tlc.h"
#include "pcm/write.h"

namespace rd::pcm {
namespace {

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

// ------------------------------------------------------------- Cell ------

TEST(Cell, FreshCellReadsBack) {
  Rng rng(1);
  const drift::MetricConfig cfg = drift::r_metric();
  for (std::size_t level = 0; level < 4; ++level) {
    for (int i = 0; i < 200; ++i) {
      Cell c;
      c.program(level, 0.0, rng, cfg);
      EXPECT_EQ(c.read_level(0.0, cfg), level);
      EXPECT_FALSE(c.drift_error(0.5, cfg));
    }
  }
}

TEST(Cell, MetricWithinProgrammedRangeAtWrite) {
  Rng rng(2);
  const drift::MetricConfig cfg = drift::r_metric();
  for (int i = 0; i < 1000; ++i) {
    Cell c;
    c.program(2, 0.0, rng, cfg);
    const double x = c.metric_at(0.0, cfg);
    EXPECT_GE(x, cfg.states[2].mu - cfg.program_halfwidth * cfg.states[2].sigma);
    EXPECT_LE(x, cfg.states[2].mu + cfg.program_halfwidth * cfg.states[2].sigma);
  }
}

TEST(Cell, MetricOnlyIncreasesWithTime) {
  Rng rng(3);
  const drift::MetricConfig cfg = drift::r_metric();
  const drift::StateParams& sp = cfg.states[2];
  for (int i = 0; i < 200; ++i) {
    Cell c;
    c.program(2, 0.0, rng, cfg);
    // alpha can be (rarely) negative in the normal model: the cell's
    // metric is non-decreasing in t exactly when its own alpha is not.
    const double alpha = sp.mu_alpha + c.z_alpha() * sp.sigma_alpha;
    bool non_decreasing = true;
    double prev = c.metric_at(1.0, cfg);
    for (double t = 10.0; t < 1e5; t *= 10.0) {
      const double x = c.metric_at(t, cfg);
      non_decreasing = non_decreasing && x >= prev;
      prev = x;
    }
    EXPECT_EQ(non_decreasing, alpha >= 0.0) << "cell " << i
                                             << " alpha " << alpha;
  }
  // Statistical check: average drift over cells is positive.
  double drift_sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    Cell c;
    c.program(2, 0.0, rng, cfg);
    drift_sum += c.metric_at(1000.0, cfg) - c.metric_at(1.0, cfg);
  }
  EXPECT_GT(drift_sum / 2000.0, 0.1);
}

TEST(Cell, MisreadReturnsHigherLevel) {
  Rng rng(4);
  const drift::MetricConfig cfg = drift::r_metric();
  int errors = 0;
  for (int i = 0; i < 300000 && errors < 50; ++i) {
    Cell c;
    c.program(2, 0.0, rng, cfg);
    if (c.drift_error(640.0, cfg)) {
      ++errors;
      EXPECT_GT(c.read_level(640.0, cfg), 2u);
    }
  }
  EXPECT_GE(errors, 10);  // drift really happens at this age
}

TEST(Cell, RAndMReadoutsAreConsistent) {
  // The same cell seen through both metrics: percentiles are shared, so a
  // cell far into its R drift percentile is also far into its M one —
  // but M's 7x smaller coefficient keeps it inside its state.
  Rng rng(5);
  const drift::MetricConfig r = drift::r_metric();
  const drift::MetricConfig m = drift::m_metric();
  int r_err = 0, m_err = 0;
  for (int i = 0; i < 200000; ++i) {
    Cell c;
    c.program(2, 0.0, rng, r);
    r_err += c.drift_error(640.0, r) ? 1 : 0;
    m_err += c.drift_error(640.0, m) ? 1 : 0;
  }
  EXPECT_GT(r_err, 100);
  EXPECT_LT(m_err, r_err / 20);
}

TEST(Cell, RejectsBadLevel) {
  Rng rng(6);
  Cell c;
  EXPECT_THROW(c.program(4, 0.0, rng, drift::r_metric()), CheckFailure);
}

// ---------------------------------------------------------- MlcLine ------

TEST(MlcLine, RoundTripFresh) {
  Rng rng(7);
  const drift::MetricConfig cfg = drift::r_metric();
  MlcLine line(592);
  const BitVec data = random_bits(rng, 592);
  line.write_full(data, 0.0, rng, cfg);
  EXPECT_TRUE(line.read(0.0, cfg) == data);
  EXPECT_EQ(line.count_drift_errors(0.5, cfg), 0u);
}

TEST(MlcLine, GrayMappingInverse) {
  for (std::uint8_t v = 0; v < 4; ++v) {
    EXPECT_EQ(drift::kLevelData[data_to_level(v)], v);
  }
}

TEST(MlcLine, GeometryChecks) {
  MlcLine line(592);
  EXPECT_EQ(line.num_cells(), 296u);
  EXPECT_EQ(line.num_bits(), 592u);
  EXPECT_THROW(MlcLine(593), CheckFailure);  // odd bit count
}

TEST(MlcLine, DriftErrorsGrowWithAge) {
  Rng rng(8);
  const drift::MetricConfig cfg = drift::r_metric();
  // Average over lines: errors at 4096 s exceed errors at 64 s.
  std::size_t young = 0, old = 0;
  for (int i = 0; i < 50; ++i) {
    MlcLine line(592);
    line.write_full(random_bits(rng, 592), 0.0, rng, cfg);
    young += line.count_drift_errors(64.0, cfg);
    old += line.count_drift_errors(4096.0, cfg);
  }
  EXPECT_GT(old, young);
}

TEST(MlcLine, DifferentialWriteTouchesOnlyChangedCells) {
  Rng rng(9);
  const drift::MetricConfig cfg = drift::r_metric();
  MlcLine line(592);
  const BitVec data = random_bits(rng, 592);
  line.write_full(data, 0.0, rng, cfg);
  // Same data again: no cell should be programmed.
  EXPECT_EQ(line.write_differential(data, 1.0, rng, cfg), 0u);
  // Change exactly one cell's worth of data.
  BitVec changed = data;
  changed.flip(10);
  const std::size_t n = line.write_differential(changed, 2.0, rng, cfg);
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(line.read(2.0, cfg) == changed);
}

TEST(MlcLine, DifferentialWriteLeavesOldCellsDrifting) {
  // The Figure 6 hazard: cells untouched by a differential write keep
  // their original write time and drift budget.
  Rng rng(10);
  const drift::MetricConfig cfg = drift::r_metric();
  std::size_t diff_errors = 0, full_errors = 0;
  for (int i = 0; i < 100; ++i) {
    const BitVec data = random_bits(rng, 592);
    MlcLine naive(592), clean(592);
    naive.write_full(data, 0.0, rng, cfg);
    clean.write_full(data, 0.0, rng, cfg);
    // At 640 s, rewrite only what drifted (naive) vs everything (clean).
    naive.write_differential(data, 640.0, rng, cfg);
    clean.write_full(data, 640.0, rng, cfg);
    diff_errors += naive.count_drift_errors(1280.0, cfg);
    full_errors += clean.count_drift_errors(1280.0, cfg);
  }
  EXPECT_GT(diff_errors, full_errors);
}

TEST(MlcLine, RefreshDriftedLeavesLineCleanNow) {
  Rng rng(21);
  const drift::MetricConfig cfg = drift::r_metric();
  for (int i = 0; i < 50; ++i) {
    MlcLine line(592);
    line.write_full(random_bits(rng, 592), 0.0, rng, cfg);
    line.refresh_drifted(640.0, rng, cfg);
    EXPECT_EQ(line.count_drift_errors(640.0, cfg), 0u);
  }
}

TEST(MlcLine, UnrewrittenErrorsAccumulateMonotonically) {
  // The Figure 6 hazard as it manifests under the literal power-law: a
  // never-rewritten population only gains errors — drift is monotone.
  Rng rng(22);
  const drift::MetricConfig cfg = drift::r_metric();
  std::size_t prev = 0;
  std::vector<MlcLine> lines(100, MlcLine(592));
  for (auto& l : lines) l.write_full(random_bits(rng, 592), 0.0, rng, cfg);
  for (int epoch = 1; epoch <= 5; ++epoch) {
    std::size_t total = 0;
    for (auto& l : lines) {
      total += l.count_drift_errors(640.0 * epoch, cfg);
    }
    EXPECT_GE(total, prev) << epoch;
    prev = total;
  }
  EXPECT_GT(prev, 0u);
}

TEST(Cell, DriftIdentityPersistsAcrossReprograms) {
  // A cell's drift percentile is process variation: reprogramming must
  // not turn a fast-drifting cell into a slow one. Statistically: cells
  // that erred before a rewrite err again far more often than average.
  Rng rng(23);
  const drift::MetricConfig cfg = drift::r_metric();
  int fast_recross = 0, fast_total = 0, all_cross = 0, all_total = 0;
  for (int i = 0; i < 200000 && fast_total < 2000; ++i) {
    Cell c;
    c.program(2, 0.0, rng, cfg);
    const bool crossed = c.drift_error(640.0, cfg);
    c.program(2, 640.0, rng, cfg);  // rewrite
    const bool again = c.drift_error(1280.0, cfg);
    ++all_total;
    all_cross += again ? 1 : 0;
    if (crossed) {
      ++fast_total;
      fast_recross += again ? 1 : 0;
    }
  }
  ASSERT_GT(fast_total, 200);
  const double p_fast = static_cast<double>(fast_recross) / fast_total;
  const double p_all = static_cast<double>(all_cross) / all_total;
  // Crossing is dominated by the (redrawn) programming percentile, so the
  // enrichment from alpha persistence is moderate — but it must be there.
  // With a redrawn alpha the two probabilities would be equal.
  EXPECT_GT(p_fast, 1.5 * p_all);
}

TEST(MlcLine, MSensingCleanWhereRSensingErrs) {
  Rng rng(11);
  const drift::MetricConfig r = drift::r_metric();
  const drift::MetricConfig m = drift::m_metric();
  std::size_t r_total = 0, m_total = 0;
  for (int i = 0; i < 40; ++i) {
    MlcLine line(592);
    line.write_full(random_bits(rng, 592), 0.0, rng, r);
    r_total += line.count_drift_errors(2048.0, r);
    m_total += line.count_drift_errors(2048.0, m);
  }
  EXPECT_GT(r_total, 20u);
  EXPECT_LT(m_total, r_total / 10);
}

// -------------------------------------------------------------- P&V ------

TEST(WritePulses, BoundsRespected) {
  Rng rng(12);
  PnvParams p;
  for (std::size_t level = 0; level < 4; ++level) {
    for (int i = 0; i < 1000; ++i) {
      const unsigned pulses = write_pulses(level, p, rng);
      EXPECT_GE(pulses, 1u);
      EXPECT_LE(pulses, p.max_iterations);
    }
  }
}

TEST(WritePulses, MiddleLevelsNeedMoreIterations) {
  Rng rng(13);
  PnvParams p;
  double sums[4] = {0, 0, 0, 0};
  for (std::size_t level = 0; level < 4; ++level) {
    for (int i = 0; i < 5000; ++i) {
      sums[level] += write_pulses(level, p, rng);
    }
  }
  EXPECT_GT(sums[1], sums[0]);  // middle beats full-SET
  EXPECT_GT(sums[1], sums[3]);  // middle beats full-RESET
  EXPECT_GT(sums[2], sums[3]);
}

TEST(WritePulses, AverageMatchesParams) {
  PnvParams p;
  // RESET + mean SET iterations averaged over levels.
  const double expect =
      (1 + 1.0 + 1 + 4.0 + 1 + 3.0 + 1 + 0.0) / 4.0;
  EXPECT_NEAR(average_write_pulses(p), expect, 1e-12);
}

// -------------------------------------------------------------- TLC ------

class TlcValue : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(TlcValue, PairEncodingRoundTrips) {
  const std::uint8_t v = GetParam();
  const TlcPair p = tlc_encode(v);
  EXPECT_LT(p.hi, 3);
  EXPECT_LT(p.lo, 3);
  EXPECT_EQ(tlc_decode(p), v);
}

INSTANTIATE_TEST_SUITE_P(AllValues, TlcValue,
                         ::testing::Range<std::uint8_t>(0, 8));

TEST(TlcLine, RoundTripsArbitraryBits) {
  Rng rng(14);
  for (std::size_t nbits : {576u, 512u, 64u, 7u}) {
    TlcLine line(nbits);
    const BitVec data = random_bits(rng, nbits);
    line.write(data);
    EXPECT_TRUE(line.read() == data) << nbits;
  }
}

TEST(TlcLine, DensityMatchesPaper) {
  TlcGeometry g;
  EXPECT_EQ(g.coded_bits(), 576u);        // 512 + 8x(72,64) checks
  EXPECT_EQ(g.cells_per_line(), 384u);    // 2 cells per 3 bits
  TlcLine line(576);
  EXPECT_EQ(line.num_cells(), 384u);
}

// ------------------------------------------------------------- Area ------

TEST(AreaModel, ReadDuoIncrementNearPaper) {
  // Paper (NVSim): +0.27%. Our constants give ~0.25%.
  const double inc = readduo_area_increase();
  EXPECT_GT(inc, 0.001);
  EXPECT_LT(inc, 0.005);
}

TEST(AreaModel, CurrentSenseDominatesVoltageSense) {
  AreaParams p;
  const SubarrayArea a = subarray_area(p, true);
  EXPECT_GT(a.current_sense, a.voltage_sense);
  EXPECT_GT(a.data_array / a.total(), 0.9);
}

TEST(AreaModel, IncrementScalesWithVoltageSaSize) {
  AreaParams small, big;
  big.voltage_sa_f2 = 2 * small.voltage_sa_f2;
  EXPECT_GT(readduo_area_increase(big), readduo_area_increase(small));
}

}  // namespace
}  // namespace rd::pcm
