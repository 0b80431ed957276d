// Tests for the ReadDuo policy layer: steady-state sampler, conversion
// controller, and the six schemes' decision logic.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "memsim/env.h"
#include "memsim/simulator.h"
#include "readduo/conversion.h"
#include "readduo/line_table.h"
#include "readduo/scheme_base.h"
#include "readduo/schemes.h"
#include "readduo/steady_state.h"
#include "scoped_env.h"
#include "trace/workload.h"

namespace rd::readduo {
namespace {

// ----------------------------------------------------- ScrubAgeSampler ---

TEST(ScrubAgeSampler, W0AgesUniformWithinInterval) {
  const drift::ErrorModel model(drift::r_metric());
  ScrubAgeSampler sampler(model, 296, 640.0, /*nu=*/0);
  EXPECT_DOUBLE_EQ(sampler.rewrite_probability(), 1.0);
  EXPECT_NEAR(sampler.mean_rewrite_interval(), 640.0, 1e-6);
  Rng rng(1);
  double mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double a = sampler.sample(rng);
    ASSERT_GE(a, 0.0);
    ASSERT_LT(a, 640.0);
    mx = std::max(mx, a);
    sum += a;
  }
  EXPECT_GT(mx, 600.0);
  EXPECT_NEAR(sum / n, 320.0, 10.0);
}

TEST(ScrubAgeSampler, RMetricW1HasModerateRewriteRate) {
  const drift::ErrorModel model(drift::r_metric());
  ScrubAgeSampler sampler(model, 296, 8.0, /*nu=*/1);
  // Conditional hazards of a few percent per scrub.
  EXPECT_GT(sampler.rewrite_probability(), 0.001);
  EXPECT_LT(sampler.rewrite_probability(), 0.2);
  EXPECT_GT(sampler.mean_rewrite_interval(), 8.0);
}

TEST(ScrubAgeSampler, MMetricW1AlmostNeverRewrites) {
  const drift::ErrorModel model(drift::m_metric());
  ScrubAgeSampler sampler(model, 296, 640.0, /*nu=*/1);
  EXPECT_LT(sampler.rewrite_probability(), 0.01);
  // Ages routinely reach far beyond the scrub interval.
  Rng rng(2);
  double mx = 0.0;
  for (int i = 0; i < 5000; ++i) mx = std::max(mx, sampler.sample(rng));
  EXPECT_GT(mx, 10.0 * 640.0);
}

TEST(ScrubAgeSampler, Nu0MeanIntervalIsExactlyOneScrubPeriod) {
  // Analytic pin for the tail-truncation bookkeeping in the constructor:
  // with nu=0 every line fails its first post-scrub check, so q(1) = 1,
  // the survival loop stops after one step, and the residual term
  // (credited at survival.size() * interval) contributes zero mass.
  // mean_interval_ must equal the scrub interval *exactly* — any
  // off-by-one in the truncation shows up here as interval*2 or 0.
  const drift::ErrorModel model(drift::r_metric());
  for (const double interval : {1.0, 8.0, 640.0}) {
    ScrubAgeSampler sampler(model, 296, interval, /*nu=*/0);
    EXPECT_DOUBLE_EQ(sampler.rewrite_probability(), 1.0) << interval;
    EXPECT_DOUBLE_EQ(sampler.mean_rewrite_interval(), interval) << interval;
  }
}

TEST(ScrubAgeSampler, MeanIntervalNeverExceedsModelledHorizon) {
  // The residual survival mass is credited at the earliest un-modelled
  // scrub, so the estimate is conservative: it can never exceed the
  // modelled horizon even for metrics that almost never rewrite.
  const drift::ErrorModel model(drift::m_metric());
  ScrubAgeSampler sampler(model, 296, 640.0, /*nu=*/1);
  EXPECT_GT(sampler.mean_rewrite_interval(), 640.0);
  // The default max_age caps the modelled hazard at 1e6 seconds; the
  // residual is credited one interval past the last modelled scrub.
  EXPECT_LE(sampler.mean_rewrite_interval(), 1.0e6 + 640.0);
}

TEST(ScrubAgeSampler, StrongerThresholdRewritesLess) {
  const drift::ErrorModel model(drift::r_metric());
  ScrubAgeSampler nu1(model, 296, 8.0, 1);
  ScrubAgeSampler nu3(model, 296, 8.0, 3);
  EXPECT_LT(nu3.rewrite_probability(), nu1.rewrite_probability());
}

TEST(ScrubAgeSampler, TailInterpolationMatchesExactLoop) {
  // Reference values: rewrite_probability and mean_rewrite_interval from
  // the exact loop, which evaluated p(j*S) by quadrature at every scrub.
  struct Exact {
    bool m_metric;
    double interval;
    unsigned nu;
    double rewrite_probability;
    double mean_rewrite_interval;
  };
  const Exact kExact[] = {
      {false, 8.0, 1, 0x1.26845cb8a43f2p-6, 0x1.bd0a5bd625f68p+8},
      {false, 8.0, 3, 0x1.0c90099d0f3c9p-17, 0x1.e80cccde75452p+19},
      {true, 640.0, 1, 0x1.56f1ceda49951p-11, 0x1.ddbeaec1a13b2p+19},
  };
  for (const Exact& e : kExact) {
    SCOPED_TRACE(::testing::Message() << "m_metric=" << e.m_metric
                                      << " S=" << e.interval << " W=" << e.nu);
    const drift::ErrorModel model(e.m_metric ? drift::m_metric()
                                             : drift::r_metric());
    const ScrubAgeSampler sampler(model, 296, e.interval, e.nu);
    if (e.m_metric) {
      // 1,562 scrubs: wholly inside the exact head, so bit for bit.
      EXPECT_EQ(sampler.rewrite_probability(), e.rewrite_probability);
      EXPECT_EQ(sampler.mean_rewrite_interval(), e.mean_rewrite_interval);
    } else {
      EXPECT_NEAR(sampler.rewrite_probability() / e.rewrite_probability, 1.0,
                  1e-6);
      EXPECT_NEAR(sampler.mean_rewrite_interval() / e.mean_rewrite_interval,
                  1.0, 1e-6);
    }
  }
}

TEST(ScrubAgeSampler, UnderflowingTailNodesGiveFiniteRates) {
  // Every tail node underflows: no cell ever drifts to its boundary, so
  // no scrub rewrites and the whole mass is the residual, credited one
  // interval past the last modelled scrub.
  drift::MetricConfig frozen = drift::r_metric();
  for (drift::StateParams& sp : frozen.states) {
    sp.mu_alpha = 0.0;
    sp.sigma_alpha = 0.0;
  }
  const double interval = 8.0;
  const double max_j = std::floor(1.0e6 / interval);
  const ScrubAgeSampler never(drift::ErrorModel(frozen), 296, interval, 1);
  EXPECT_TRUE(std::isfinite(never.rewrite_probability()));
  EXPECT_EQ(never.rewrite_probability(),
            interval / ((max_j + 1.0) * interval));

  // Drift first reaches the boundary at 1e5 s, inside the interpolated
  // tail (the head ends at 2048 * 8 s). With a fixed drift coefficient
  // p(t) is exactly 0 until alpha * log10(t) bridges the guard band, so
  // the tail nodes before the onset underflow. The interval from an
  // underflowed node to a finite one counts as p = 0, and the rewrites
  // after the onset must still count.
  drift::MetricConfig late = drift::r_metric();
  for (drift::StateParams& sp : late.states) {
    sp.mu_alpha = (late.boundary_halfwidth - late.program_halfwidth) *
                  sp.sigma / 5.0;
    sp.sigma_alpha = 0.0;
  }
  const ScrubAgeSampler onset(drift::ErrorModel(late), 296, interval, 1);
  EXPECT_TRUE(std::isfinite(onset.rewrite_probability()));
  EXPECT_TRUE(std::isfinite(onset.mean_rewrite_interval()));
  EXPECT_GT(onset.rewrite_probability(), never.rewrite_probability());
  EXPECT_LT(onset.mean_rewrite_interval(), never.mean_rewrite_interval());
}

/// A sampler's outputs, as hex floats. The draws and the M-metric entry
/// were recorded from the exact one-point-at-a-time survival loop; the R
/// entries' rewrite_probability and mean_rewrite_interval from the
/// exact-head, interpolated-tail build (TailInterpolationMatchesExactLoop
/// bounds their distance from the exact loop's).
struct SamplerPin {
  bool m_metric;
  double interval;
  unsigned nu;
  double rewrite_probability;
  double mean_rewrite_interval;
  std::array<double, 64> draws;  ///< sample() from Rng(2024)
};

const SamplerPin kSamplerPins[] = {
    // R-metric, S = 8 s, W = 1: the paper's Scrubbing.
    {false, 8.0, 1, 0x1.26845c7e70dcap-6, 0x1.bd0a5c2e18359p+8,
     {0x1.e41bf9f7453dp+4, 0x1.0a38c8e9aaf8ap+5, 0x1.323eaff0863cdp+11,
      0x1.920e59d299e29p+8, 0x1.ac33e2311cc1fp+9, 0x1.cfdd0ba45c113p+10,
      0x1.39aee3bb20453p+12, 0x1.32309db314cb4p+11, 0x1.538c91094a537p+4,
      0x1.7a66e46b97785p+11, 0x1.469ba4714a67cp+10, 0x1.06b2d7e8e1d53p+7,
      0x1.3002cfde5d29fp+9, 0x1.50f61fd606ce7p+9, 0x1.5e5734da992fp+9,
      0x1.9fa026d926886p+13, 0x1.2426a57011b6ep+6, 0x1.dbd865ade43e1p+11,
      0x1.dd2657013eebap+4, 0x1.4f43d6d2ffc8p+7, 0x1.2e4a522e09acfp+12,
      0x1.28aa47a8801bbp+6, 0x1.2b3e86e69abb7p+8, 0x1.0c5892fc4956bp+11,
      0x1.4934aaa96d5fcp+12, 0x1.5ba8f981ce2e8p+8, 0x1.b8b61d9c6d667p+3,
      0x1.ff6318c087c78p+11, 0x1.14be6e14d1a9ep+10, 0x1.ea08d1dcb71cdp+10,
      0x1.41fab2820d9dap+6, 0x1.63c43245be246p+9, 0x1.8651890f92a93p+12,
      0x1.de744f8e65859p+6, 0x1.c640eb0c3fdbcp+11, 0x1.1751ea1ff2847p+4,
      0x1.1b7f004130d0dp+11, 0x1.ca6eae029a8cbp+9, 0x1.3cddf18917bbfp+8,
      0x1.218cfbe70dde3p+4, 0x1.4816a408f47a9p+12, 0x1.d64f2105dd022p+8,
      0x1.a58fc97ae764bp+10, 0x1.9d10925929e83p+9, 0x1.9e12699795a5ap+5,
      0x1.d32418527879bp+5, 0x1.a10656516c96ap+6, 0x1.c778dc2ca3208p+4,
      0x1.a39d53e00bf7ep+13, 0x1.149a348853e18p+10, 0x1.1e30922777cfap+12,
      0x1.09b33b9f06b09p+5, 0x1.51b4af1ee2b92p+10, 0x1.e85d3aabc891fp+9,
      0x1.496b19d11b93ep+8, 0x1.bae4c94178655p+9, 0x1.87158446a7142p+8,
      0x1.1daf02ae0b538p+12, 0x1.4aaf1a7810e08p+8, 0x1.135738d9846a9p+7,
      0x1.97ae712920795p+4, 0x1.18ff80c879907p+8, 0x1.a2e5148fd4632p+13,
      0x1.006a41bf58d3cp+10}},
    // R-metric, S = 8 s, W = 3.
    {false, 8.0, 3, 0x1.0c90099d0ef9dp-17, 0x1.e80cccde75be6p+19,
     {0x1.b3ec837f3ee8ap+15, 0x1.197147191d356p+16, 0x1.79c33eaff0864p+19,
      0x1.8118839674a68p+18, 0x1.0fde0cf88c473p+19, 0x1.5fbbee85d22e1p+19,
      0x1.aeaa5dc776409p+19, 0x1.79a4309db314dp+19, 0x1.4eca719221295p+15,
      0x1.8b8966e46b978p+19, 0x1.3cff4dd238a53p+19, 0x1.7c35acb5fa387p+17,
      0x1.d4c60167ef2e9p+18, 0x1.ea8a7b0feb036p+18, 0x1.f2bb2b9a6d4c9p+18,
      0x1.d669809b649a2p+19, 0x1.00a484d4ae023p+17, 0x1.9cb2d865ade44p+19,
      0x1.bd9ba4cae027ep+15, 0x1.c373d0f5b4bffp+17, 0x1.ac7494a45c136p+19,
      0x1.f30a2a91ea2p+16, 0x1.440ccfa1b9a6bp+18, 0x1.6df75892fc495p+19,
      0x1.b171695552dacp+19, 0x1.6046ea3e60739p+18, 0x1.ddb716c3b38dbp+14,
      0x1.a1b36318c087cp+19, 0x1.2aee5f370a68dp+19, 0x1.655f0468ee5b9p+19,
      0x1.1c583f565041bp+17, 0x1.f4efe21922df1p+18, 0x1.ba9ea3121f255p+19,
      0x1.593bce89f1ccbp+17, 0x1.996e40eb0c3fep+19, 0x1.88a2ea3d43fe5p+15,
      0x1.72f17f004130dp+19, 0x1.16c79bab80a6ap+19, 0x1.4e47377c6245fp+18,
      0x1.8764319f7ce1cp+15, 0x1.b1432d4811e8fp+19, 0x1.9e0f93c841774p+18,
      0x1.56c6c7e4bd73bp+19, 0x1.0bdd4424964a8p+19, 0x1.70d3c24d32f2bp+16,
      0x1.b9ca64830a4f1p+16, 0x1.57ec20caca2d9p+17, 0x1.f658ef1b85946p+15,
      0x1.d6a2754f802fep+19, 0x1.2af74d1a4429fp+19, 0x1.a91a61244eefap+19,
      0x1.0cc9366773e0dp+16, 0x1.3fbada578f716p+19, 0x1.1e3c174eaaf22p+19,
      0x1.5a2c5ac67446ep+18, 0x1.1262b932505e2p+19, 0x1.758dc56111a9cp+18,
      0x1.a8f95e055c16ap+19, 0x1.5820abc69e044p+18, 0x1.9654d5ce36612p+17,
      0x1.e252f5ce25241p+15, 0x1.3a623fe0321e6p+18, 0x1.d69894523f519p+19,
      0x1.22ed3520dfac7p+19}},
    // M-metric, S = 640 s, W = 1.
    {true, 640.0, 1, 0x1.56f1ceda49951p-11, 0x1.ddbeaec1a13b2p+19,
     {0x1.ace917c3a8b47p+15, 0x1.136637d920adcp+16, 0x1.78f396fb29f3p+19,
      0x1.7e091f047405cp+18, 0x1.0e540dabd63f2p+19, 0x1.5eea89d1ae62ap+19,
      0x1.ae1d4e54f42b4p+19, 0x1.789f3147f67f8p+19, 0x1.48437daa5ce74p+15,
      0x1.8ad027619f559p+19, 0x1.3bb851b1b3a03p+19, 0x1.7785f8de31a4ap+17,
      0x1.d1a0707abe8e9p+18, 0x1.e7a674f971104p+18, 0x1.effda04227ef6p+18,
      0x1.d678308f702a8p+19, 0x1.f95304ecc1625p+16, 0x1.9c239fc657536p+19,
      0x1.b6a37f660c754p+15, 0x1.bf714cc87bfbap+17, 0x1.abfe735cc60c2p+19,
      0x1.eaad4d992a023p+16, 0x1.40e0e28a0416ap+18, 0x1.6d1badeed6eb2p+19,
      0x1.b0f0eaa9e45bep+19, 0x1.5da9337e241bap+18, 0x1.d3371d281c46p+14,
      0x1.a14ef7bc2a6e6p+19, 0x1.299dc13340c29p+19, 0x1.644160ca7c9c8p+19,
      0x1.1813caf914883p+17, 0x1.f2b6a7dae5b5bp+18, 0x1.ba62f5a9bba9cp+19,
      0x1.55308b1b8ff74p+17, 0x1.98d44973d3f4bp+19, 0x1.81e933253f792p+15,
      0x1.7227b0145f414p+19, 0x1.1560a5983413p+19, 0x1.4ba156deb5dabp+18,
      0x1.7d4f81d7068abp+15, 0x1.b0de268598ccap+19, 0x1.9b1e2e9475442p+18,
      0x1.55ce777b3427bp+19, 0x1.0a554b6ef7462p+19, 0x1.6bacb81febd88p+16,
      0x1.b3bf68f338b4cp+16, 0x1.52ca3f5f2e3dep+17, 0x1.eccab899be5f4p+15,
      0x1.d674a8d80ef5ep+19, 0x1.299818354d1b4p+19, 0x1.a87e5b58aae1cp+19,
      0x1.06e100543642fp+16, 0x1.3eb43b5cd36cep+19, 0x1.1cb748956bab6p+19,
      0x1.573c5e0456279p+18, 0x1.1109dfb91d67fp+19, 0x1.732dae55850d9p+18,
      0x1.a87d61acc7143p+19, 0x1.5575ae1161519p+18, 0x1.9182d070fe586p+17,
      0x1.d6ecd06b9b44cp+15, 0x1.3753f60fa97f5p+18, 0x1.d67e59b3c97bep+19,
      0x1.21709a45e5e11p+19}},
};

TEST(ScrubAgeSampler, BitsPinnedAtOneAndFourThreads) {
  // The build is serial; its values must not depend on READDUO_THREADS.
  // Built directly, bypassing the scheme cache.
  for (const char* threads : {"1", "4"}) {
    const ScopedEnv env("READDUO_THREADS", threads);
    for (const SamplerPin& pin : kSamplerPins) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " m_metric=" << pin.m_metric
                   << " S=" << pin.interval << " W=" << pin.nu);
      const drift::ErrorModel model(pin.m_metric ? drift::m_metric()
                                                 : drift::r_metric());
      const ScrubAgeSampler sampler(model, 296, pin.interval, pin.nu);
      EXPECT_EQ(sampler.rewrite_probability(), pin.rewrite_probability);
      EXPECT_EQ(sampler.mean_rewrite_interval(), pin.mean_rewrite_interval);
      Rng rng(2024);
      for (std::size_t i = 0; i < pin.draws.size(); ++i) {
        EXPECT_EQ(sampler.sample(rng), pin.draws[i]) << "draw " << i;
      }
    }
  }
}

TEST(ScrubAgeSampler, RunawayStepCountFailsFast) {
  const drift::ErrorModel model(drift::r_metric());
  // lint: allow(no-wallclock) "fails fast" is a wall-time bound
  const auto start = std::chrono::steady_clock::now();
  // 1e6 s / 1 us = 1e12 scrub steps: rejected before any quadrature.
  try {
    ScrubAgeSampler sampler(model, 296, 1e-6, /*nu=*/1);
    FAIL() << "a 1 us scrub interval must be rejected";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("interval=1e-06"), std::string::npos) << what;
    EXPECT_NE(what.find("max_age=1e+06"), std::string::npos) << what;
  }
  // lint: allow(no-wallclock) "fails fast" is a wall-time bound
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ScrubAgeSampler(model, 296, inf, 1), CheckFailure);
  EXPECT_THROW(ScrubAgeSampler(model, 296, std::nan(""), 1), CheckFailure);
  EXPECT_THROW(ScrubAgeSampler(model, 296, 8.0, 1, inf), CheckFailure);
}

// ------------------------------------------------ ConversionController ---

TEST(ConversionController, DisabledNeverConverts) {
  ConversionController::Config cfg;
  cfg.enabled = false;
  ConversionController c(cfg);
  for (int i = 0; i < 100; ++i) {
    c.record_read(true, false);
    EXPECT_FALSE(c.should_convert());
  }
  EXPECT_EQ(c.t_percent(), 0u);
}

TEST(ConversionController, ConvertsExactlyTPercent) {
  ConversionController::Config cfg;
  cfg.initial_t = 30;
  ConversionController c(cfg);
  int converted = 0;
  for (int i = 0; i < 1000; ++i) converted += c.should_convert() ? 1 : 0;
  EXPECT_EQ(converted, 300);
}

TEST(ConversionController, HighWatermarkBacksOffToFloor) {
  ConversionController::Config cfg;
  cfg.initial_t = 50;
  cfg.epoch_reads = 100;
  cfg.floor_t = 10;
  ConversionController c(cfg);
  // Ten epochs of 90% untracked reads with no benefit.
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 100; ++i) c.record_read(i % 10 != 0, false);
  }
  EXPECT_EQ(c.t_percent(), 10u);  // floored, still probing
}

TEST(ConversionController, BenefitRampsUp) {
  ConversionController::Config cfg;
  cfg.initial_t = 10;
  cfg.epoch_reads = 100;
  ConversionController c(cfg);
  // Epochs where conversions happen and converted lines are re-read a lot.
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 100; ++i) {
      const bool untracked = i % 4 == 0;
      c.record_read(untracked, !untracked && i % 2 == 0);
      if (untracked && c.should_convert()) c.record_conversion();
    }
  }
  EXPECT_GT(c.t_percent(), 10u);
}

TEST(ConversionController, NoBenefitDecays) {
  ConversionController::Config cfg;
  cfg.initial_t = 50;
  cfg.epoch_reads = 100;
  cfg.floor_t = 10;
  ConversionController c(cfg);
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 100; ++i) {
      const bool untracked = i % 3 == 0;  // 33% < watermark
      c.record_read(untracked, false);    // no benefit ever
      if (untracked && c.should_convert()) c.record_conversion();
    }
  }
  EXPECT_EQ(c.t_percent(), 10u);
}

// ------------------------------------------------------------ Schemes ----

SchemeEnv test_env(std::uint64_t seed = 7) {
  SchemeEnv env;
  env.seed = seed;
  env.footprint_lines = 1u << 16;
  env.archive_lines = 1u << 14;
  env.zipf_s = 0.6;
  env.per_core_write_rate = 1e5;
  return env;
}

// ---------------------------------------------------------- LineTable ----

TEST(LineTable, ReferencesSurviveDoublings) {
  LineTable t;
  LineState marked;
  marked.last_write_s = -1.25;
  marked.last_full_write_s = -2.5;
  marked.flags = LwtFlags(8);
  marked.flags.on_write(5);
  marked.converted = true;
  LineState& ref = t.insert(42, marked);
  // 100k more lines take the index through fourteen doublings.
  for (std::uint64_t line = 1000; line < 101000; ++line) {
    LineState st;
    st.last_write_s = static_cast<double>(line);
    t.insert(line, st);
  }
  ASSERT_EQ(t.size(), 100001u);
  EXPECT_EQ(t.find(42), &ref);
  EXPECT_EQ(ref.last_write_s, -1.25);
  EXPECT_EQ(ref.last_full_write_s, -2.5);
  EXPECT_EQ(ref.flags.k(), 8u);
  EXPECT_EQ(ref.flags.vector_flag(), marked.flags.vector_flag());
  EXPECT_EQ(ref.flags.index_flag(), 5u);
  EXPECT_TRUE(ref.converted);
}

TEST(LineTable, CollidingAndHighBitKeysRoundTrip) {
  std::vector<std::uint64_t> keys = {0, ~std::uint64_t{0}};
  // Equal low 32 bits, differing only above them.
  for (std::uint64_t hi = 1; hi <= 64; ++hi) keys.push_back(hi << 32 | 5);
  // Equal in the low 20 bits of the key itself.
  for (std::uint64_t i = 1; i <= 64; ++i) keys.push_back(i << 20 | 7);
  // Equal in the hash's low 10 bits: one home slot while the index has at
  // most 1024 slots, so they probe one long chain.
  const std::size_t plain = keys.size();
  for (std::uint64_t k = 1; keys.size() < plain + 64; ++k) {
    if ((line_hash(k) & 1023) == (line_hash(0) & 1023)) keys.push_back(k);
  }
  LineTable t;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    LineState st;
    st.last_write_s = static_cast<double>(i);
    t.insert(keys[i], st);
  }
  ASSERT_EQ(t.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const LineState* st = t.find(keys[i]);
    ASSERT_NE(st, nullptr) << "key " << keys[i];
    EXPECT_EQ(st->last_write_s, static_cast<double>(i)) << "key " << keys[i];
  }
  EXPECT_EQ(t.find(6), nullptr);
  EXPECT_EQ(t.find(std::uint64_t{65} << 32 | 5), nullptr);
  EXPECT_THROW(t.insert(keys[1], LineState{}), CheckFailure);
}

TEST(LineTable, FailsInsteadOfWrappingWhenFull) {
  // A slot names its entry as index + 1 in 32 bits, so the default limit
  // is the most a slot can name; a smaller limit reaches the same check
  // without allocating 4 G entries.
  static_assert(LineTable::kMaxEntries ==
                std::numeric_limits<std::uint32_t>::max());
  LineTable t(3);
  for (std::uint64_t line = 0; line < 3; ++line) t.insert(line, LineState{});
  EXPECT_THROW(t.insert(3, LineState{}), CheckFailure);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_NE(t.find(2), nullptr);
}

/// SchemeBase with its per-line lookup and RNG exposed.
class ProbeScheme : public SchemeBase {
 public:
  using SchemeBase::SchemeBase;
  using SchemeBase::rng;
  using SchemeBase::state_of;
};

TEST(LineTable, StateOfHitDrawsNothing) {
  // Hybrid's policy: every first touch samples an age.
  ProbeScheme s("probe", test_env(),
                {ReadPolicy::kRThenM, 1.0, ScrubSense::kM, 0});
  const Rng fresh = s.rng();
  LineState& first = s.state_of(99, Ns{1000}, /*archive=*/false);
  const Rng after_miss = s.rng();
  EXPECT_NE(Rng(after_miss).next(), Rng(fresh).next())
      << "a first touch samples the line's age";
  for (int i = 0; i < 3; ++i) {
    LineState& again = s.state_of(99, Ns{5000 + i}, /*archive=*/i == 1,
                                  i == 2 ? FirstTouch::kWrite
                                         : FirstTouch::kRead);
    EXPECT_EQ(&again, &first);
  }
  EXPECT_EQ(s.rng().next(), Rng(after_miss).next());
}

TEST(Schemes, FactoryNames) {
  const SchemeEnv env = test_env();
  ReadDuoOptions opts;
  EXPECT_EQ(make_scheme(SchemeKind::kIdeal, env)->name(), "Ideal");
  EXPECT_EQ(make_scheme(SchemeKind::kTlc, env)->name(), "TLC");
  EXPECT_EQ(make_scheme(SchemeKind::kScrubbing, env)->name(), "Scrubbing");
  EXPECT_EQ(make_scheme(SchemeKind::kMMetric, env)->name(), "M-metric");
  EXPECT_EQ(make_scheme(SchemeKind::kHybrid, env)->name(), "Hybrid");
  EXPECT_EQ(make_scheme(SchemeKind::kLwt, env, opts)->name(), "LWT-4");
  opts.k = 2;
  opts.select_s = 3;
  EXPECT_EQ(make_scheme(SchemeKind::kSelect, env, opts)->name(),
            "Select-2:3");
}

TEST(Schemes, DensitiesMatchPaper) {
  ReadDuoOptions opts;
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kIdeal, opts), 296.0);
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kTlc, opts), 384.0);
  // LWT-4 adds 6 SLC flag bits.
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kLwt, opts), 302.0);
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kSelect, opts), 302.0);
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kScrubbing, opts), 296.0);
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kScrubbingW0, opts), 296.0);
  // BCH-10: 512 data + 100 parity bits.
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kScrubbingBch10, opts), 306.0);
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kMMetric, opts), 296.0);
  EXPECT_DOUBLE_EQ(cells_per_line(SchemeKind::kHybrid, opts), 296.0);
}

TEST(Schemes, EveryKindsNameParsesBack) {
  const std::pair<SchemeKind, const char*> kinds[] = {
      {SchemeKind::kIdeal, "Ideal"},
      {SchemeKind::kTlc, "TLC"},
      {SchemeKind::kScrubbing, "Scrubbing"},
      {SchemeKind::kScrubbingW0, "Scrubbing-W0"},
      {SchemeKind::kScrubbingBch10, "Scrubbing-BCH10"},
      {SchemeKind::kMMetric, "M-metric"},
      {SchemeKind::kHybrid, "Hybrid"},
      {SchemeKind::kLwt, "LWT"},
      {SchemeKind::kSelect, "Select"},
  };
  for (const auto& [kind, name] : kinds) {
    // The printed name is the family name, plus k (and s) for LWT/Select.
    EXPECT_EQ(scheme_name(kind).rfind(name, 0), 0u) << name;
    EXPECT_EQ(scheme_kind_by_name(name), kind) << name;
  }
  EXPECT_EQ(scheme_kind_by_name("LWT-4"), std::nullopt);
  EXPECT_EQ(scheme_kind_by_name("hybrid"), std::nullopt);
  EXPECT_EQ(scheme_kind_by_name(""), std::nullopt);
}

TEST(Schemes, ScrubIntervalsMatchPaperSettings) {
  const SchemeEnv env = test_env();
  EXPECT_EQ(make_scheme(SchemeKind::kIdeal, env)->scrub_interval_seconds(),
            0.0);
  EXPECT_EQ(
      make_scheme(SchemeKind::kScrubbing, env)->scrub_interval_seconds(),
      8.0);
  EXPECT_EQ(make_scheme(SchemeKind::kMMetric, env)->scrub_interval_seconds(),
            640.0);
  EXPECT_EQ(make_scheme(SchemeKind::kHybrid, env)->scrub_interval_seconds(),
            640.0);

  // A device's [scrub] point moves every M-scrubbing kind and leaves the
  // R-scrubbing kinds at the paper's 8 s.
  SchemeEnv hourly = test_env();
  hourly.scrub = {.interval_s = 3600.0, .w = 2};
  for (const SchemeKind kind : {SchemeKind::kMMetric, SchemeKind::kHybrid,
                                SchemeKind::kLwt, SchemeKind::kSelect}) {
    const auto s = make_scheme(kind, hourly);
    EXPECT_EQ(s->scrub_interval_seconds(), 3600.0) << s->name();
    EXPECT_STREQ(s->scrub_origin(), "scrub.interval") << s->name();
  }
  EXPECT_EQ(
      make_scheme(SchemeKind::kScrubbing, hourly)->scrub_interval_seconds(),
      8.0);
}

TEST(Schemes, DisabledScrubFailsFastForMScrubbingKinds) {
  // "scrub.interval = 0" disables the chip's scrub; a kind that scrubs
  // with the M-metric cannot run without one and names the key.
  SchemeEnv env = test_env();
  env.scrub.interval_s = 0.0;
  for (const SchemeKind kind : {SchemeKind::kMMetric, SchemeKind::kHybrid,
                                SchemeKind::kLwt, SchemeKind::kSelect}) {
    const std::string name = scheme_name(kind);
    try {
      make_scheme(kind, env);
      FAIL() << name << " built with scrubbing disabled";
    } catch (const CheckFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find("scrub.interval = 0"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(make_scheme(SchemeKind::kIdeal, env)->scrub_interval_seconds(),
            0.0);
}

TEST(Schemes, ConcurrentSamplerBuildsFinishAndAgree) {
  // A thread outside the pool and the shards of a running pool job build
  // the same sampler (M-metric at S = 256 s: a key no other test builds,
  // 3906 scrub steps, so it reaches the interpolated tail). The outside
  // thread starts first and builds inside the key's call_once; the shards
  // wait for that one build and must read the sampler it published. Under
  // TSan an unsynchronised publish is a reported race, and ctest's
  // TIMEOUT turns a deadlock into a failure.
  const ScopedEnv threads("READDUO_THREADS", "4");
  SchemeEnv env = test_env();
  env.scrub.interval_s = 256.0;
  std::unique_ptr<Scheme> outside;
  std::thread builder;
  std::vector<std::unique_ptr<Scheme>> pooled(8);
  parallel_for_shards(pooled.size(), [&](std::size_t i) {
    if (i == 0) {
      builder = std::thread(
          [&] { outside = make_scheme(SchemeKind::kMMetric, env); });
    }
    // Let the outside thread reach the sampler cache first.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pooled[i] = make_scheme(SchemeKind::kMMetric, env);
  });
  builder.join();

  // Same env seed, so equal samplers give equal rewrite draws.
  const auto rewrites = [](Scheme& s) {
    std::vector<unsigned> r;
    for (int i = 0; i < 64; ++i) {
      r.push_back(s.on_scrub(Ns{0}, 4096).rewrites);
    }
    return r;
  };
  const std::vector<unsigned> expect = rewrites(*outside);
  for (const auto& s : pooled) EXPECT_EQ(rewrites(*s), expect);
}

TEST(Schemes, IdealReadIs150ns) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kIdeal, env);
  const ReadOutcome r = s->on_read(123, Ns{1000}, false);
  EXPECT_EQ(r.mode, ReadMode::kRRead);
  EXPECT_EQ(r.latency.v, 150);
  EXPECT_FALSE(r.convert_to_write);
  EXPECT_EQ(s->counters().r_reads, 1u);
}

TEST(Schemes, MMetricReadIs450ns) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kMMetric, env);
  const ReadOutcome r = s->on_read(123, Ns{1000}, false);
  EXPECT_EQ(r.mode, ReadMode::kMRead);
  EXPECT_EQ(r.latency.v, 450);
}

TEST(Schemes, HybridYoungLinesUseRRead) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kHybrid, env);
  // Write then read immediately: no drift, fast path.
  s->on_write(5, Ns{0});
  const ReadOutcome r = s->on_read(5, Ns{1000}, false);
  EXPECT_EQ(r.mode, ReadMode::kRRead);
  EXPECT_EQ(r.latency.v, 150);
}

TEST(Schemes, LwtUntrackedArchiveReadsAreRMReads) {
  SchemeEnv env = test_env();
  env.archive_age_scale_s = 1e5;  // archive written ages ago
  ReadDuoOptions opts;
  opts.controller.enabled = false;
  auto s = make_scheme(SchemeKind::kLwt, env, opts);
  int rm = 0;
  for (std::uint64_t line = 1u << 16; line < (1u << 16) + 200; ++line) {
    const ReadOutcome r = s->on_read(line, Ns{1000}, /*archive=*/true);
    rm += r.mode == ReadMode::kRMRead ? 1 : 0;
    EXPECT_FALSE(r.convert_to_write) << line;  // the controller is off
  }
  // Essentially all day-old archive lines are untracked.
  EXPECT_GT(rm, 190);
  EXPECT_EQ(s->counters().untracked_reads, s->counters().rm_reads);
}

TEST(Schemes, LwtFreshWritesEnableRRead) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kLwt, env);
  for (std::uint64_t line = 0; line < 100; ++line) {
    s->on_write(line, Ns{0});
    const ReadOutcome r = s->on_read(line, Ns{500}, false);
    EXPECT_EQ(r.mode, ReadMode::kRRead) << line;
  }
}

TEST(Schemes, LwtConversionEmitsWriteRequests) {
  SchemeEnv env = test_env();
  env.archive_age_scale_s = 1e5;
  ReadDuoOptions opts;
  opts.controller.initial_t = 100;  // convert everything
  auto s = make_scheme(SchemeKind::kLwt, env, opts);
  int conversions = 0;
  for (std::uint64_t line = 1u << 16; line < (1u << 16) + 100; ++line) {
    const ReadOutcome r = s->on_read(line, Ns{1000}, true);
    if (r.convert_to_write) {
      ++conversions;
      s->on_converted_write(line, Ns{2000});
      // Next read of the same line is tracked and fast.
      const ReadOutcome again = s->on_read(line, Ns{3000}, true);
      EXPECT_EQ(again.mode, ReadMode::kRRead);
    }
  }
  EXPECT_GT(conversions, 90);
  EXPECT_EQ(s->counters().conversion_writes,
            static_cast<std::uint64_t>(conversions));
}

TEST(Schemes, SelectDifferentialWithinWindowFullBeyond) {
  const SchemeEnv env = test_env();
  ReadDuoOptions opts;  // k=4, s=2 -> window = 2 * 160 s = 320 s
  auto s = make_scheme(SchemeKind::kSelect, env, opts);
  // First write: the line's sampled pre-window age decides; write again
  // immediately — within the window — must be differential.
  s->on_write(9, Ns{0});
  const WriteOutcome w2 = s->on_write(9, from_seconds(10.0));
  EXPECT_FALSE(w2.full_line);
  EXPECT_LT(w2.cells_written, 296u);
  EXPECT_GT(w2.cells_written, 0u);
  // Beyond the 320 s window: full-line write again.
  const WriteOutcome w3 = s->on_write(9, from_seconds(400.0));
  EXPECT_TRUE(w3.full_line);
  EXPECT_EQ(w3.cells_written, 296u);
}

TEST(Schemes, SelectConvertedWritesAreAlwaysFull) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kSelect, env);
  s->on_write(11, Ns{0});
  const WriteOutcome w = s->on_converted_write(11, from_seconds(1.0));
  EXPECT_TRUE(w.full_line);
  EXPECT_EQ(w.cells_written, 296u);
}

TEST(Schemes, SelectDiffWriteDoesNotResetTrackingClock) {
  const SchemeEnv env = test_env();
  ReadDuoOptions opts;
  auto s = make_scheme(SchemeKind::kSelect, env, opts);
  s->on_write(13, Ns{0});                           // full at t=0
  s->on_write(13, from_seconds(100.0));             // diff at t=100
  const WriteOutcome w = s->on_write(13, from_seconds(350.0));
  // 350 s is beyond the 320 s window measured from the last FULL write
  // (t=0), even though a differential write happened at t=100.
  EXPECT_TRUE(w.full_line);
}

TEST(Schemes, EnergyAccountingIsConsistent) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kHybrid, env);
  s->on_write(1, Ns{0});
  s->on_read(1, Ns{1000}, false);
  const auto& c = s->counters();
  EXPECT_DOUBLE_EQ(
      c.dynamic_energy_pj(),
      c.read_energy_pj + c.write_energy_pj + c.scrub_energy_pj);
  EXPECT_DOUBLE_EQ(c.write_energy_pj, 296.0 * env.energy.cell_write.v);
  EXPECT_DOUBLE_EQ(c.read_energy_pj, env.energy.r_read.v);
}

TEST(Schemes, ScrubbingW0RewritesEveryRowLine) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kScrubbingW0, env);
  EXPECT_EQ(s->name(), "Scrubbing-W0");
  const ScrubOutcome out = s->on_scrub(Ns{0}, 16);
  EXPECT_EQ(out.rewrites, 16u);
  EXPECT_EQ(out.sense_latency.v, 150);  // still R-sensing
}

TEST(Schemes, ScrubOutcomesFollowPolicy) {
  const SchemeEnv env = test_env();
  // W=0 Hybrid rewrites every line of the row.
  auto hybrid = make_scheme(SchemeKind::kHybrid, env);
  const ScrubOutcome h = hybrid->on_scrub(Ns{0}, 16);
  EXPECT_EQ(h.rewrites, 16u);
  EXPECT_EQ(h.sense_latency.v, 450);  // M sense
  // Ideal never scrubs.
  auto ideal = make_scheme(SchemeKind::kIdeal, env);
  const ScrubOutcome i = ideal->on_scrub(Ns{0}, 16);
  EXPECT_EQ(i.rewrites, 0u);
  // W=1 M-metric scrub almost never rewrites.
  auto m = make_scheme(SchemeKind::kMMetric, env);
  unsigned rewrites = 0;
  for (int j = 0; j < 200; ++j) rewrites += m->on_scrub(Ns{0}, 16).rewrites;
  EXPECT_LT(rewrites, 40u);
}

TEST(Schemes, TlcWritesCost384Cells) {
  const SchemeEnv env = test_env();
  auto s = make_scheme(SchemeKind::kTlc, env);
  const WriteOutcome w = s->on_write(3, Ns{0});
  EXPECT_EQ(w.cells_written, 384u);
  EXPECT_EQ(s->counters().cell_writes, 384u);
}

// ------------------------------------------------------ Whole runs -----

/// One scheme's whole simulated run: every Counters field and the
/// SimResult totals. Doubles are compared bit for bit.
struct RunPin {
  SchemeKind kind;
  /// r, m and rm reads; untracked and converted reads; demand full, demand
  /// diff and conversion writes; scrub senses and rewrites; detected and
  /// silent errors; cell writes; injected faults.
  std::array<std::uint64_t, 14> counts;
  /// Read, write and scrub energy (pJ).
  std::array<double, 3> energy_pj;
  /// Exec time, instructions, reads, writes, scrubs, write cancellations,
  /// read latency sum, bank busy time, scrub backlog at the end, dropped
  /// scrub rewrites, row hits.
  std::array<std::int64_t, 11> totals;

  bool operator==(const RunPin&) const = default;
};

RunPin run_for_pin(SchemeKind kind) {
  const trace::Workload& w = trace::workload_by_name("mcf");
  memsim::SimConfig cfg;
  cfg.instructions_per_core = 200'000;
  cfg.seed = 5;
  const SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, cfg.seed);
  const std::unique_ptr<Scheme> scheme = make_scheme(kind, env);
  memsim::Simulator sim(cfg, *scheme, w);
  const memsim::SimResult r = sim.run();
  // The run's R-read classifications almost never leave the fast path, so
  // drive fresh lines read back at ages from 1 s to ~1e7 s as well, and a
  // scrub with its rewrites (which Ideal and TLC never see in a run).
  Ns now = r.exec_time;
  for (unsigned i = 0; i < 224; ++i) {
    const std::uint64_t line = (1ull << 30) + i;
    scheme->on_write(line, now);
    now += from_seconds(std::pow(10.0, i / 32.0));
    if (scheme->on_read(line, now, false).convert_to_write) {
      scheme->on_converted_write(line, now);
    }
  }
  const ScrubOutcome scrub = scheme->on_scrub(now, 16);
  for (unsigned i = 0; i < scrub.rewrites; ++i) scheme->on_scrub_rewrite(now);
  const stats::Counters& c = scheme->counters();
  const auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  return RunPin{
      kind,
      {c.r_reads, c.m_reads, c.rm_reads, c.untracked_reads, c.converted_reads,
       c.demand_full_writes, c.demand_diff_writes, c.conversion_writes,
       c.scrub_senses, c.scrub_rewrites, c.detected_uncorrectable,
       c.silent_corruptions, c.cell_writes, c.injected_faults},
      {c.read_energy_pj, c.write_energy_pj, c.scrub_energy_pj},
      {r.exec_time.v, i64(r.instructions), i64(r.reads_serviced),
       i64(r.writes_serviced), i64(r.scrubs_serviced),
       i64(r.write_cancellations), r.read_latency_sum_ns, r.bank_busy_ns,
       i64(r.scrub_backlog_end), i64(r.scrub_rewrites_dropped),
       i64(r.row_hits)}};
}

/// The pin as a kRunPins row, for the failure message.
std::string pin_row(const RunPin& p) {
  std::string out = "{SchemeKind(" +
                    std::to_string(static_cast<int>(p.kind)) + "),\n {";
  for (const std::uint64_t v : p.counts) out += std::to_string(v) + "u, ";
  out += "},\n {";
  char buf[32];
  for (const double v : p.energy_pj) {
    std::snprintf(buf, sizeof buf, "%a, ", v);
    out += buf;
  }
  out += "},\n {";
  for (const std::int64_t v : p.totals) out += std::to_string(v) + ", ";
  return out + "}},";
}

/// Recorded from the per-kind scheme classes that SchemeBase's shared
/// read, scrub and rewrite bodies replaced.
const RunPin kRunPins[] = {
    {SchemeKind::kIdeal,
     {7746u, 0u, 0u, 0u, 0u, 2322u, 0u, 0u, 0u, 0u, 0u, 0u, 687312u, 0u},
     {0x1.d8c74p+22, 0x1.61f46cp+26, 0x0p+0},
     {585181, 800000, 7519, 2043, 0, 4213, 2170840, 4635800, 0, 0, 0}},
    {SchemeKind::kTlc,
     {7746u, 0u, 0u, 0u, 0u, 2322u, 0u, 0u, 0u, 0u, 0u, 0u, 891648u, 0u},
     {0x1.d8c74p+22, 0x1.6f59p+26, 0x0p+0},
     {585181, 800000, 7519, 2043, 0, 4213, 2170840, 4635800, 0, 0, 0}},
    {SchemeKind::kScrubbing,
     {7746u, 0u, 0u, 0u, 0u, 2322u, 0u, 0u, 1286u, 284u, 51u, 37u, 771376u, 0u},
     {0x1.d8c74p+22, 0x1.61f46cp+26, 0x1.4a262p+24},
     {639282, 800000, 7518, 2282, 1285, 4260, 2030664, 5110891, 56, 70, 0}},
    {SchemeKind::kScrubbingW0,
     {7746u, 0u, 0u, 0u, 0u, 2322u, 0u, 0u, 1850u, 2107u, 39u, 36u, 1310984u, 0u},
     {0x1.d8c74p+22, 0x1.61f46cp+26, 0x1.79a382p+26},
     {912975, 800000, 7520, 3935, 1849, 5102, 1703728, 7303355, 66, 27493, 0}},
    {SchemeKind::kScrubbingBch10,
     {7746u, 0u, 0u, 0u, 0u, 2322u, 0u, 0u, 1286u, 284u, 51u, 37u, 771376u, 0u},
     {0x1.d8c74p+22, 0x1.61f46cp+26, 0x1.4a262p+24},
     {639282, 800000, 7518, 2282, 1285, 4260, 2030664, 5110891, 56, 70, 0}},
    {SchemeKind::kMMetric,
     {0u, 7743u, 0u, 0u, 0u, 2322u, 0u, 0u, 25u, 1u, 0u, 0u, 687608u, 0u},
     {0x1.627248p+23, 0x1.61f46cp+26, 0x1.4bfep+18},
     {883391, 800000, 7513, 2095, 24, 3007, 6010149, 6652812, 0, 0, 0}},
    {SchemeKind::kHybrid,
     {7695u, 0u, 51u, 0u, 0u, 2322u, 0u, 0u, 8u, 128u, 0u, 27u, 725200u, 0u},
     {0x1.dd729p+22, 0x1.61f46cp+26, 0x1.3e0cp+22},
     {594229, 800000, 7519, 2141, 7, 4314, 2150370, 4753451, 9, 0, 0}},
    {SchemeKind::kLwt,
     {7285u, 0u, 461u, 419u, 190u, 2322u, 0u, 190u, 7u, 0u, 0u, 34u, 743552u, 0u},
     {0x1.017df8p+23, 0x1.7eeaep+26, 0x1.482p+16},
     {635307, 800000, 7519, 2165, 6, 4222, 2422140, 5036663, 11, 0, 0}},
    {SchemeKind::kSelect,
     {7286u, 0u, 460u, 422u, 192u, 964u, 1358u, 192u, 16u, 0u, 0u, 36u, 487660u, 0u},
     {0x1.01724p+23, 0x1.f6463ap+25, 0x1.77p+17},
     {646879, 800000, 7519, 2265, 15, 4182, 2464292, 5094915, 2, 0, 0}},
};

TEST(Schemes, AllKindsPinnedBitForBit) {
  // Every kind, including the three no golden file or sweep fingerprint
  // covers (TLC, Scrubbing-W0, Scrubbing-BCH10), on one short mcf run.
  for (const RunPin& want : kRunPins) {
    const RunPin got = run_for_pin(want.kind);
    EXPECT_TRUE(got == want) << scheme_name(want.kind) << " ran as\n"
                             << pin_row(got);
  }
}

}  // namespace
}  // namespace rd::readduo
