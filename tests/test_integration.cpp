// Cross-module integration tests: device + ECC end-to-end, full-system
// scheme orderings, and the EDAP metric layer.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "drift/error_model.h"
#include "ecc/bch.h"
#include "memsim/env.h"
#include "memsim/simulator.h"
#include "pcm/line.h"
#include "readduo/schemes.h"
#include "stats/edap.h"
#include "trace/workload.h"

namespace rd {
namespace {

// --- Device + ECC: the full data path of one memory line -----------------

TEST(DeviceEccIntegration, HybridReadoutRecoversAfterLongDrift) {
  // End-to-end ReadDuo data path: encode -> program -> drift -> R-sense ->
  // BCH decode; on failure, M-sense retry. Over many lines and a long
  // age, data must always come back intact via one of the two paths.
  Rng rng(77);
  const ecc::BchCode bch(10, 8, 512);
  const drift::MetricConfig r_cfg = drift::r_metric();
  const drift::MetricConfig m_cfg = drift::m_metric();
  const double age = 2048.0;  // way beyond the R-safe window

  int r_path = 0, m_path = 0;
  for (int trial = 0; trial < 60; ++trial) {
    BitVec payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload.set(i, rng.bernoulli(0.5));
    }
    pcm::MlcLine line(592);
    line.write_full(bch.encode(payload), 0.0, rng, r_cfg);

    BitVec image = line.read(age, r_cfg);
    ecc::BchDecodeResult res = bch.decode(image);
    if (!res.corrected) {
      image = line.read(age, m_cfg);
      res = bch.decode(image);
      ++m_path;
    } else {
      ++r_path;
    }
    ASSERT_TRUE(res.corrected);
    for (std::size_t i = 0; i < 512; ++i) {
      ASSERT_EQ(image.get(i), payload.get(i)) << "trial " << trial;
    }
  }
  // At 2048 s some lines exceed 8 R errors; both paths must be exercised.
  EXPECT_GT(r_path, 0);
}

TEST(DeviceEccIntegration, MSensingAloneSufficesAtExtremeAges) {
  Rng rng(78);
  const ecc::BchCode bch(10, 8, 512);
  const drift::MetricConfig m_cfg = drift::m_metric();
  for (int trial = 0; trial < 20; ++trial) {
    BitVec payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload.set(i, rng.bernoulli(0.5));
    }
    pcm::MlcLine line(592);
    line.write_full(bch.encode(payload), 0.0, rng, m_cfg);
    BitVec image = line.read(1e5, m_cfg);
    const ecc::BchDecodeResult res = bch.decode(image);
    ASSERT_TRUE(res.corrected);
    EXPECT_LE(res.num_corrected, 8u);
  }
}

// --- Full-system orderings (the qualitative claims of Figures 9/10/15) ---

struct SystemRun {
  memsim::SimResult sim;
  stats::Counters counters;
  double cells_per_line;
};

SystemRun run_system(readduo::SchemeKind kind, const trace::Workload& w,
                     std::uint64_t budget,
                     const readduo::ReadDuoOptions& opts = {}) {
  memsim::SimConfig cfg;
  cfg.instructions_per_core = budget;
  cfg.seed = 21;
  readduo::SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, 21);
  auto scheme = readduo::make_scheme(kind, env, opts);
  memsim::Simulator sim(cfg, *scheme, w);
  SystemRun out;
  out.sim = sim.run();
  out.counters = scheme->counters();
  out.cells_per_line = readduo::cells_per_line(kind, opts);
  return out;
}

TEST(SystemOrdering, MMetricIsTheSlowestReadPath) {
  const auto& w = trace::workload_by_name("mcf");
  const auto ideal = run_system(readduo::SchemeKind::kIdeal, w, 400'000);
  const auto m = run_system(readduo::SchemeKind::kMMetric, w, 400'000);
  const auto hybrid = run_system(readduo::SchemeKind::kHybrid, w, 400'000);
  EXPECT_GT(m.sim.exec_time.v, hybrid.sim.exec_time.v);
  EXPECT_GT(m.sim.exec_time.v, ideal.sim.exec_time.v);
}

TEST(SystemOrdering, HybridServicesMostReadsFast) {
  const auto& w = trace::workload_by_name("bzip2");
  const auto hybrid = run_system(readduo::SchemeKind::kHybrid, w, 400'000);
  // Fresh-ish working sets: nearly everything via 150 ns R-reads.
  EXPECT_GT(hybrid.counters.r_reads, 50 * hybrid.counters.rm_reads + 100);
  EXPECT_EQ(hybrid.counters.m_reads, 0u);
}

TEST(SystemOrdering, SelectWritesFewestCells) {
  const auto& w = trace::workload_by_name("lbm");
  const auto ideal = run_system(readduo::SchemeKind::kIdeal, w, 400'000);
  const auto select = run_system(readduo::SchemeKind::kSelect, w, 400'000);
  EXPECT_LT(select.counters.cell_writes, ideal.counters.cell_writes);
  EXPECT_GT(select.counters.demand_diff_writes, 0u);
}

TEST(SystemOrdering, ScrubbingPaysEnergyAndEndurance) {
  const auto& w = trace::workload_by_name("milc");
  const auto ideal = run_system(readduo::SchemeKind::kIdeal, w, 400'000);
  const auto scrub = run_system(readduo::SchemeKind::kScrubbing, w, 400'000);
  EXPECT_GT(scrub.counters.dynamic_energy_pj(),
            ideal.counters.dynamic_energy_pj());
  EXPECT_GT(scrub.counters.cell_writes, ideal.counters.cell_writes);
  EXPECT_GT(scrub.counters.scrub_senses, 0u);
}

TEST(SystemOrdering, HybridScrubRewritesEveryLineLwtDoesNot) {
  const auto& w = trace::workload_by_name("bwaves");
  const auto hybrid = run_system(readduo::SchemeKind::kHybrid, w, 400'000);
  const auto lwt = run_system(readduo::SchemeKind::kLwt, w, 400'000);
  // W=0 vs W=1: Hybrid's scrub rewrites vastly outnumber LWT's.
  EXPECT_GT(hybrid.counters.scrub_rewrites,
            10 * lwt.counters.scrub_rewrites + 10);
}

TEST(SystemOrdering, NoSilentCorruptionUnderReadDuoSchemes) {
  for (const char* name : {"bzip2", "sphinx3", "mcf"}) {
    const auto& w = trace::workload_by_name(name);
    for (auto kind : {readduo::SchemeKind::kHybrid, readduo::SchemeKind::kLwt,
                      readduo::SchemeKind::kSelect}) {
      const auto r = run_system(kind, w, 200'000);
      EXPECT_EQ(r.counters.silent_corruptions, 0u) << name;
    }
  }
}

// --- Stats layer ----------------------------------------------------------

TEST(Edap, IdentityWhenEqual) {
  stats::RunSummary a;
  a.exec_time = Ns{1000};
  a.dynamic_energy_pj = 500.0;
  a.static_watts = 0.35;
  a.cells_per_line = 296.0;
  a.cell_writes = 100.0;
  EXPECT_DOUBLE_EQ(stats::edap_dynamic(a, a), 1.0);
  EXPECT_DOUBLE_EQ(stats::edap_system(a, a), 1.0);
  EXPECT_DOUBLE_EQ(stats::relative_lifetime(a, a), 1.0);
}

TEST(Edap, FactorsMultiply) {
  stats::RunSummary base, run;
  base.exec_time = Ns{1000};
  base.dynamic_energy_pj = 100.0;
  base.cells_per_line = 384.0;
  run.exec_time = Ns{2000};       // 2x
  run.dynamic_energy_pj = 50.0;   // 0.5x
  run.cells_per_line = 192.0;     // 0.5x
  EXPECT_DOUBLE_EQ(stats::edap_dynamic(run, base), 0.5);
}

TEST(Edap, SystemEnergyAddsStaticPower) {
  stats::RunSummary r;
  r.exec_time = Ns{1'000'000};  // 1 ms
  r.dynamic_energy_pj = 0.0;
  r.static_watts = 1.0;
  // 1 W over 1 ms = 1 mJ = 1e9 pJ.
  EXPECT_NEAR(r.system_energy_pj(), 1e9, 1.0);
}

TEST(Edap, LifetimeInverseOfCellWrites) {
  stats::RunSummary base, run;
  base.cell_writes = 1000.0;
  run.cell_writes = 500.0;
  EXPECT_DOUBLE_EQ(stats::relative_lifetime(run, base), 2.0);
}

}  // namespace
}  // namespace rd
