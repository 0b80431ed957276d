// Tests for the analytic drift-error model: metric configurations,
// per-cell probabilities, LER tails, the paper's feasibility anchors, and
// Monte-Carlo cross-validation against the device model.
#include "drift/error_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "pcm/cell.h"

namespace rd::drift {
namespace {

TEST(MetricConfig, TableIGeometry) {
  const MetricConfig r = r_metric();
  EXPECT_EQ(r.states[0].mu, 3.0);
  EXPECT_EQ(r.states[3].mu, 6.0);
  EXPECT_NEAR(r.states[0].mu_alpha, 0.001, 1e-12);
  EXPECT_NEAR(r.states[1].mu_alpha, 0.02, 1e-12);
  EXPECT_NEAR(r.states[2].mu_alpha, 0.06, 1e-12);
  EXPECT_NEAR(r.states[3].mu_alpha, 0.10, 1e-12);
  for (const auto& s : r.states) {
    EXPECT_NEAR(s.sigma_alpha, 0.4 * s.mu_alpha, 1e-12);
    EXPECT_NEAR(s.sigma, 1.0 / 6.0, 1e-12);
  }
}

TEST(MetricConfig, TableIIMMetricIsSeventhOfR) {
  const MetricConfig r = r_metric();
  const MetricConfig m = m_metric();
  for (std::size_t i = 0; i < kNumStates; ++i) {
    EXPECT_NEAR(m.states[i].mu, r.states[i].mu - 4.0, 1e-12);
    EXPECT_NEAR(m.states[i].mu_alpha, r.states[i].mu_alpha / 7.0, 1e-12);
  }
}

TEST(MetricConfig, GrayCodeAdjacency) {
  // Adjacent storage levels differ in exactly one data bit, so one drift
  // error corrupts one bit.
  for (std::size_t i = 0; i + 1 < kNumStates; ++i) {
    const unsigned diff = kLevelData[i] ^ kLevelData[i + 1];
    EXPECT_EQ(__builtin_popcount(diff), 1) << "levels " << i;
  }
}

TEST(MetricConfig, BoundariesBetweenStates) {
  const MetricConfig r = r_metric();
  for (std::size_t i = 0; i + 1 < kNumStates; ++i) {
    EXPECT_GT(r.upper_boundary(i), r.states[i].mu);
    EXPECT_LT(r.upper_boundary(i), r.states[i + 1].mu);
  }
}

class DriftState : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DriftState, ErrorProbabilityMonotoneInTime) {
  const ErrorModel model(r_metric());
  const std::size_t state = GetParam();
  double prev = 0.0;
  for (double t = 2.0; t < 1e6; t *= 4.0) {
    const double p = std::exp(model.log_cell_error_prob(state, t));
    EXPECT_GE(p, prev) << "state=" << state << " t=" << t;
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(States, DriftState,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(ErrorModel, TopStateNeverErrs) {
  const ErrorModel model(r_metric());
  EXPECT_EQ(std::exp(model.log_cell_error_prob(3, 1e6)), 0.0);
}

TEST(ErrorModel, NoErrorBeforeT0) {
  const ErrorModel model(r_metric());
  for (std::size_t s = 0; s < kNumStates; ++s) {
    EXPECT_EQ(std::exp(model.log_cell_error_prob(s, 0.5)), 0.0);
    EXPECT_EQ(std::exp(model.log_cell_error_prob(s, 1.0)), 0.0);
  }
}

TEST(ErrorModel, MiddleStatesDriftMost) {
  const ErrorModel model(r_metric());
  const double t = 64.0;
  // State 2 (highest drift coefficient among error-capable states)
  // dominates; full-crystalline state 0 is essentially immune.
  const auto p = [&](std::size_t s) {
    return std::exp(model.log_cell_error_prob(s, t));
  };
  EXPECT_GT(p(2), p(1));
  EXPECT_GT(p(1), p(0));
  EXPECT_LT(p(0), 1e-12);
}

TEST(ErrorModel, MMetricFarMoreReliableThanR) {
  const ErrorModel r(r_metric()), m(m_metric());
  for (double t : {8.0, 64.0, 640.0}) {
    EXPECT_LT(m.avg_cell_error_prob(t), r.avg_cell_error_prob(t) * 1e-2)
        << t;
  }
}

TEST(ErrorModel, LogAndLinearAgree) {
  const ErrorModel model(r_metric());
  for (double t : {8.0, 640.0}) {
    EXPECT_NEAR(std::exp(model.log_avg_cell_error_prob(t)),
                model.avg_cell_error_prob(t), 1e-15);
  }
}

// --- The paper's feasibility anchors (Tables III-V) --------------------

TEST(LerAnchors, Bch8At8SecondsMeetsDramTarget) {
  LerCalculator calc{ErrorModel(r_metric())};
  EXPECT_LE(calc.ler(8, 8.0), LerCalculator::ler_dram_target(8.0));
}

TEST(LerAnchors, SeventeenErrorDetectionSafeTo640) {
  // The decoupled detect/correct argument of Section III-B: silent
  // corruption (> 17 errors) stays under the DRAM target out to 640 s.
  LerCalculator calc{ErrorModel(r_metric())};
  EXPECT_LE(calc.ler(17, 640.0), LerCalculator::ler_dram_target(640.0));
  // ... but not forever (sanity that the test is non-vacuous).
  EXPECT_GT(calc.ler(17, 4096.0), LerCalculator::ler_dram_target(4096.0));
}

TEST(LerAnchors, UnprotectedLinesFailQuickly) {
  LerCalculator calc{ErrorModel(r_metric())};
  EXPECT_GT(calc.ler(0, 8.0), 1e-2);  // Table III, E=0 column
}

TEST(LerAnchors, MMetricBch8SafeAt640AndBeyond) {
  LerCalculator calc{ErrorModel(m_metric())};
  EXPECT_LE(calc.ler(8, 640.0), LerCalculator::ler_dram_target(640.0));
  EXPECT_LE(calc.ler(8, 16384.0), LerCalculator::ler_dram_target(16384.0));
}

TEST(LerAnchors, TableVVerdictsUnderPaperMethod) {
  LerCalculator r{ErrorModel(r_metric())};
  LerCalculator m{ErrorModel(m_metric())};
  const double target8 = LerCalculator::ler_dram_target(8.0);
  const double target640 = LerCalculator::ler_dram_target(640.0);
  // R(BCH=8, S=8, W=1): UNSAFE -> ReadDuo-Hybrid must use W=0.
  EXPECT_GT(std::exp(r.log_prob_second_interval_indep(8, 1, 8.0)), target8);
  // R(BCH=10, S=8, W=1): SAFE.
  EXPECT_LE(std::exp(r.log_prob_second_interval_indep(10, 1, 8.0)), target8);
  EXPECT_LE(std::exp(r.log_prob_third_interval_indep(10, 1, 8.0)), target8);
  // M(BCH=8, S=640, W=1): SAFE -> ReadDuo-LWT's setting.
  EXPECT_LE(std::exp(m.log_prob_second_interval_indep(8, 1, 640.0)),
            target640);
  EXPECT_LE(std::exp(m.log_prob_third_interval_indep(8, 1, 640.0)),
            target640);
}

TEST(LerCalculator, ExactIntervalBoundedByIndependent) {
  // The exact interval computation can only be smaller than the paper's
  // independence approximation (it removes double-counted error mass).
  LerCalculator r{ErrorModel(r_metric())};
  for (double s : {8.0, 64.0}) {
    EXPECT_LE(r.log_prob_second_interval(8, 1, s),
              r.log_prob_second_interval_indep(8, 1, s) + 1e-9)
        << s;
  }
}

TEST(LerCalculator, TailMonotoneInE) {
  LerCalculator calc{ErrorModel(r_metric())};
  double prev = 1.0;
  for (unsigned e = 0; e <= 18; e += 2) {
    const double v = calc.ler(e, 640.0);
    EXPECT_LE(v, prev) << e;
    prev = v;
  }
}

TEST(LerCalculator, DramTargetScalesLinearly) {
  EXPECT_NEAR(LerCalculator::ler_dram_target(8.0) /
                  LerCalculator::ler_dram_target(4.0),
              2.0, 1e-12);
  EXPECT_NEAR(LerCalculator::ler_dram_target(1.0), 3.56e-15, 1e-20);
}

TEST(Temperature, ReferenceIsIdentity) {
  const MetricConfig base = r_metric();
  const MetricConfig same = at_temperature(base, 26.85);  // 300 K
  for (std::size_t i = 0; i < kNumStates; ++i) {
    EXPECT_NEAR(same.states[i].mu_alpha, base.states[i].mu_alpha, 1e-9);
  }
}

TEST(Temperature, HotterDriftsFaster) {
  const ErrorModel cold(at_temperature(r_metric(), 0.0));
  const ErrorModel ref(r_metric());
  const ErrorModel hot(at_temperature(r_metric(), 85.0));
  for (double t : {8.0, 640.0}) {
    EXPECT_LT(cold.avg_cell_error_prob(t), ref.avg_cell_error_prob(t)) << t;
    EXPECT_GT(hot.avg_cell_error_prob(t), ref.avg_cell_error_prob(t)) << t;
  }
}

TEST(Temperature, ScaleNeverGoesNegative) {
  const MetricConfig frozen = at_temperature(r_metric(), -300.0);
  for (const auto& st : frozen.states) {
    EXPECT_GE(st.mu_alpha, 0.0);
    EXPECT_GE(st.sigma_alpha, 0.0);
  }
}

// --- CellErrorTable interpolation ----------------------------------------

TEST(CellErrorTable, MatchesDirectEvaluation) {
  const ErrorModel model(r_metric());
  const CellErrorTable table(model);
  for (double t : {0.01, 2.0, 8.0, 37.5, 640.0, 123456.0}) {
    const double direct = model.avg_cell_error_prob(t);
    const double interp = table.prob(t);
    if (direct > 1e-5) {
      EXPECT_NEAR(interp / direct, 1.0, 0.05) << t;
    } else if (direct > 1e-12) {
      // Steep drift onset: log-space interpolation is within ~10%.
      EXPECT_NEAR(interp / direct, 1.0, 0.15) << t;
    } else {
      EXPECT_LT(interp, 1e-10) << t;
    }
  }
}

TEST(CellErrorTable, ClampsOutOfRange) {
  const ErrorModel model(r_metric());
  const CellErrorTable table(model, 1.0, 1e6);
  EXPECT_EQ(table.prob(0.0), 0.0);
  EXPECT_EQ(table.prob(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(table.prob(1e9), table.prob(1e6));
}

// --- Monte-Carlo cross-validation ----------------------------------------

class McValidation : public ::testing::TestWithParam<double> {};

TEST_P(McValidation, DeviceModelMatchesAnalyticProbability) {
  // The pcm::Cell Monte-Carlo device model and the analytic ErrorModel
  // must describe the same physics: program many cells per state, drift
  // them to time t, and compare the empirical error rate.
  const double t = GetParam();
  const MetricConfig cfg = r_metric();
  const ErrorModel model(cfg);
  Rng rng(static_cast<std::uint64_t>(t * 1000));
  const int kCells = 400000;
  for (std::size_t state : {1u, 2u}) {
    const double p = std::exp(model.log_cell_error_prob(state, t));
    if (p < 30.0 / kCells) continue;  // not enough statistics
    int errors = 0;
    for (int i = 0; i < kCells; ++i) {
      pcm::Cell cell;
      cell.program(state, 0.0, rng, cfg);
      errors += cell.drift_error(t, cfg) ? 1 : 0;
    }
    const double emp = static_cast<double>(errors) / kCells;
    const double sd = std::sqrt(p * (1.0 - p) / kCells);
    EXPECT_NEAR(emp, p, 6.0 * sd + 0.1 * p)
        << "state=" << state << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Times, McValidation,
                         ::testing::Values(16.0, 64.0, 640.0, 4096.0));

}  // namespace
}  // namespace rd::drift
