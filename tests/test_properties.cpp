// Property-based and failure-injection tests across modules.
#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "drift/error_model.h"
#include "ecc/bch.h"
#include "faults/injector.h"
#include "memsim/env.h"
#include "memsim/simulator.h"
#include "readduo/schemes.h"
#include "readduo/steady_state.h"
#include "trace/generator.h"
#include "secded.h"

namespace rd {
namespace {

// --- BCH code properties ---------------------------------------------------

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

TEST(BchProperties, CodeIsLinear) {
  // encode(a) XOR encode(b) == encode(a XOR b): parity is GF(2)-linear.
  const ecc::BchCode code(10, 8, 512);
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec a = random_bits(rng, 512);
    const BitVec b = random_bits(rng, 512);
    const BitVec lhs = code.encode(a) ^ code.encode(b);
    const BitVec rhs = code.encode(a ^ b);
    EXPECT_TRUE(lhs == rhs) << "trial " << trial;
  }
}

TEST(BchProperties, ZeroPayloadIsZeroCodeword) {
  const ecc::BchCode code(10, 8, 512);
  const BitVec cw = code.encode(BitVec(512));
  EXPECT_FALSE(cw.any());
  EXPECT_TRUE(code.is_codeword(cw));
}

TEST(BchProperties, MinimumWeightAtLeastDesignDistance) {
  // Random nonzero codewords must weigh at least 2t + 1 = 17.
  const ecc::BchCode code(10, 8, 512);
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    BitVec data = random_bits(rng, 512);
    if (!data.any()) data.set(0, true);
    const BitVec cw = code.encode(data);
    EXPECT_GE(cw.popcount(), code.design_distance()) << trial;
  }
}

TEST(BchProperties, XorOfCodewordsIsCodeword) {
  const ecc::BchCode code(10, 8, 512);
  Rng rng(3);
  const BitVec c1 = code.encode(random_bits(rng, 512));
  const BitVec c2 = code.encode(random_bits(rng, 512));
  EXPECT_TRUE(code.is_codeword(c1 ^ c2));
}

/// e distinct flip positions drawn through the fault injector, so the
/// property tests exercise exactly the burst generator the READDUO_FAULTS
/// "bch" class uses at runtime.
std::vector<unsigned> injected_burst(unsigned e, std::uint64_t key,
                                     unsigned nbits) {
  const faults::FaultEngine engine(faults::FaultPlan::parse(
      "seed=31;bch:p=1,e=" + std::to_string(e)));
  return engine.bch_error_positions(key, key * 7 + 1, nbits);
}

TEST(BchProperties, CorrectsEveryWeightUpToT) {
  // e <= t = 8 errors anywhere in the codeword must decode back to the
  // original word with exactly e corrections.
  const ecc::BchCode code(10, 8, 512);
  Rng rng(11);
  for (unsigned e = 1; e <= 8; ++e) {
    for (int trial = 0; trial < 5; ++trial) {
      const BitVec original = code.encode(random_bits(rng, 512));
      BitVec noisy = original;
      // Random distinct positions per (e, trial).
      std::vector<unsigned> flips;
      while (flips.size() < e) {
        const unsigned p = static_cast<unsigned>(
            rng.uniform_below(code.codeword_bits()));
        bool dup = false;
        for (unsigned q : flips) dup = dup || q == p;
        if (!dup) flips.push_back(p);
      }
      for (unsigned p : flips) noisy.set(p, !noisy.get(p));
      const ecc::BchDecodeResult dec = code.decode(noisy);
      EXPECT_TRUE(dec.corrected) << "e=" << e << " trial " << trial;
      EXPECT_EQ(dec.num_corrected, e) << "e=" << e << " trial " << trial;
      EXPECT_TRUE(noisy == original) << "e=" << e << " trial " << trial;
    }
  }
}

TEST(BchProperties, BoundaryWeightsDetectNeverMiscorrect) {
  // 9 <= e <= 17 errors are past the correction radius: the original
  // codeword is unreachable (distance e > t), so a "corrected" outcome
  // would be a miscorrection to a *different* codeword — silent
  // corruption. For these injector-generated bursts the decoder must
  // report detected-uncorrectable, and decode_verified must agree.
  const ecc::BchCode code(10, 8, 512);
  Rng rng(12);
  for (unsigned e = 9; e <= 17; ++e) {
    for (int trial = 0; trial < 5; ++trial) {
      const BitVec original = code.encode(random_bits(rng, 512));
      const std::vector<unsigned> flips =
          injected_burst(e, e * 100 + static_cast<unsigned>(trial),
                         code.codeword_bits());
      ASSERT_EQ(flips.size(), e);
      BitVec noisy = original;
      for (unsigned p : flips) noisy.set(p, !noisy.get(p));

      BitVec plain = noisy;
      const ecc::BchDecodeResult dec = code.decode(plain);
      EXPECT_FALSE(dec.corrected) << "e=" << e << " trial " << trial;
      EXPECT_TRUE(dec.detected_uncorrectable)
          << "e=" << e << " trial " << trial;

      BitVec verified = noisy;
      const ecc::BchDecodeResult vdec = code.decode_verified(verified);
      EXPECT_FALSE(vdec.corrected) << "e=" << e << " trial " << trial;
      EXPECT_TRUE(vdec.detected_uncorrectable)
          << "e=" << e << " trial " << trial;
    }
  }
}

TEST(SecdedProperties, InjectedSingleAndDoubleErrorsCrossCheck) {
  // The TLC baseline's (72, 64) SECDED, cross-checked with flip positions
  // drawn through the same injector: 1 flip corrects, 2 flips are
  // detected as a double error (never silently accepted).
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t data = rng.next();
    const std::uint8_t checks = ecc::Secded7264::encode_checks(data);
    const std::vector<unsigned> pos = injected_burst(
        /*e=*/9, /*key=*/static_cast<std::uint64_t>(trial),
        ecc::Secded7264::kCodeBits);

    {  // single error in the data half
      std::uint64_t d = data ^ (1ull << (pos[0] % 64));
      std::uint8_t c = checks;
      const ecc::SecdedResult r = ecc::Secded7264::decode(d, c);
      EXPECT_TRUE(r.ok) << trial;
      EXPECT_EQ(r.num_corrected, 1u) << trial;
      EXPECT_EQ(d, data) << trial;
    }
    {  // double error: two distinct data bits
      const unsigned b0 = pos[0] % 64;
      unsigned b1 = pos[1] % 64;
      if (b1 == b0) b1 = (b1 + 1) % 64;
      std::uint64_t d = data ^ (1ull << b0) ^ (1ull << b1);
      std::uint8_t c = checks;
      const ecc::SecdedResult r = ecc::Secded7264::decode(d, c);
      EXPECT_FALSE(r.ok) << trial;
      EXPECT_TRUE(r.double_error) << trial;
    }
  }
}

// --- Drift model properties -------------------------------------------------

class LerMonotone : public ::testing::TestWithParam<unsigned> {};

TEST_P(LerMonotone, LerNondecreasingInTime) {
  const unsigned e = GetParam();
  drift::LerCalculator calc{drift::ErrorModel(drift::r_metric())};
  double prev = 0.0;
  for (double t = 2.0; t <= 1e5; t *= 3.0) {
    const double v = calc.ler(e, t);
    EXPECT_GE(v, prev - 1e-18) << "E=" << e << " t=" << t;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Es, LerMonotone,
                         ::testing::Values(0u, 1u, 4u, 8u, 17u));

TEST(DriftProperties, StrongerCodeAlwaysHelps) {
  drift::LerCalculator calc{drift::ErrorModel(drift::r_metric())};
  for (double t : {8.0, 64.0, 640.0}) {
    for (unsigned e = 0; e < 17; ++e) {
      EXPECT_GE(calc.ler(e, t), calc.ler(e + 1, t)) << t << " " << e;
    }
  }
}

TEST(DriftProperties, MoreCellsMoreErrors) {
  // The line-error tail at one per-cell probability grows with the cell
  // count: a data-only 256-cell line against a two-line 592-cell one.
  const double log_p =
      drift::ErrorModel(drift::r_metric()).log_avg_cell_error_prob(640.0);
  EXPECT_LT(log_binomial_tail_gt(256, 8, log_p),
            log_binomial_tail_gt(592, 8, log_p));
}

// --- Renewal identities -----------------------------------------------------

TEST(ScrubAgeProperties, RewriteProbabilityIsRenewalRate) {
  // One rewrite per renewal interval, one scrub per S:
  // rewrite_probability == S / mean_rewrite_interval.
  const drift::ErrorModel model(drift::r_metric());
  for (double s : {8.0, 64.0}) {
    readduo::ScrubAgeSampler sampler(model, 296, s, 1);
    EXPECT_NEAR(sampler.rewrite_probability(),
                s / sampler.mean_rewrite_interval(), 1e-9);
  }
}

TEST(ScrubAgeProperties, SampledAgesRespectRenewalMean) {
  // Steady-state mean age <= mean interval (ages live inside intervals).
  const drift::ErrorModel model(drift::r_metric());
  readduo::ScrubAgeSampler sampler(model, 296, 8.0, 1);
  Rng rng(4);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += sampler.sample(rng);
  EXPECT_GT(sum / n, 8.0);  // intervals span many scrubs
}

// --- Simulator failure injection / edge configs ------------------------------

memsim::SimResult run_cfg(const trace::Workload& w, memsim::SimConfig cfg,
                          readduo::SchemeKind kind) {
  readduo::SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, cfg.seed);
  auto scheme = readduo::make_scheme(kind, env);
  memsim::Simulator sim(cfg, *scheme, w);
  return sim.run();
}

TEST(SimulatorEdge, TinyWriteQueueStillMakesProgress) {
  const auto& w = trace::workload_by_name("lbm");
  memsim::SimConfig cfg;
  cfg.instructions_per_core = 100'000;
  cfg.write_queue_depth = 1;
  const memsim::SimResult r = run_cfg(w, cfg, readduo::SchemeKind::kIdeal);
  EXPECT_EQ(r.instructions, 400'000u);
  EXPECT_GT(r.writes_serviced, 0u);
}

TEST(SimulatorEdge, SingleCoreRuns) {
  const auto& w = trace::workload_by_name("mcf");
  memsim::SimConfig cfg;
  cfg.instructions_per_core = 100'000;
  cfg.cpu.num_cores = 1;
  const memsim::SimResult r = run_cfg(w, cfg, readduo::SchemeKind::kHybrid);
  EXPECT_EQ(r.instructions, 100'000u);
}

TEST(SimulatorEdge, ReadOnlyWorkload) {
  trace::Workload w = trace::workload_by_name("sphinx3");
  w.wpki = 1e-9;  // effectively read-only
  memsim::SimConfig cfg;
  cfg.instructions_per_core = 100'000;
  const memsim::SimResult r = run_cfg(w, cfg, readduo::SchemeKind::kMMetric);
  EXPECT_GT(r.reads_serviced, 0u);
}

TEST(SimulatorEdge, AlwaysStallingCoreIsStrictlyOrdered) {
  const auto& w = trace::workload_by_name("bzip2");
  memsim::SimConfig cfg;
  cfg.instructions_per_core = 100'000;
  cfg.cpu.read_stall_fraction = 1.0;
  const memsim::SimResult r = run_cfg(w, cfg, readduo::SchemeKind::kIdeal);
  EXPECT_EQ(r.instructions, 400'000u);
}

TEST(SimulatorEdge, NeverCancellingWritesCompletes) {
  const auto& w = trace::workload_by_name("lbm");
  memsim::SimConfig cfg;
  cfg.instructions_per_core = 100'000;
  cfg.max_write_cancellations = 0;
  const memsim::SimResult r = run_cfg(w, cfg, readduo::SchemeKind::kIdeal);
  EXPECT_EQ(r.write_cancellations, 0u);
  EXPECT_EQ(r.instructions, 400'000u);
}

// --- All 14 workloads, all schemes, smoke determinism ------------------------

class WorkloadSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSweep, AllSchemesRunDeterministically) {
  const auto& w = trace::workload_by_name(GetParam());
  for (auto kind : {readduo::SchemeKind::kIdeal, readduo::SchemeKind::kTlc,
                    readduo::SchemeKind::kScrubbing,
                    readduo::SchemeKind::kScrubbingW0,
                    readduo::SchemeKind::kMMetric,
                    readduo::SchemeKind::kHybrid, readduo::SchemeKind::kLwt,
                    readduo::SchemeKind::kSelect}) {
    memsim::SimConfig cfg;
    cfg.instructions_per_core = 50'000;
    const memsim::SimResult a = run_cfg(w, cfg, kind);
    const memsim::SimResult b = run_cfg(w, cfg, kind);
    ASSERT_GT(a.exec_time.v, 0);
    ASSERT_EQ(a.exec_time.v, b.exec_time.v);
    ASSERT_EQ(a.reads_serviced, b.reads_serviced);
  }
}

INSTANTIATE_TEST_SUITE_P(
    All14, WorkloadSweep,
    ::testing::Values("astar", "bwaves", "bzip2", "gcc", "GemsFDTD", "lbm",
                      "leslie3d", "libquantum", "mcf", "milc", "omnetpp",
                      "soplex", "sphinx3", "xalancbmk"));

// --- Scheme interplay -------------------------------------------------------

TEST(SchemeInterplay, ConvertedWriteResetsSelectWindow) {
  readduo::SchemeEnv env;
  env.seed = 5;
  env.footprint_lines = 1u << 16;
  env.archive_lines = 1u << 14;
  env.zipf_s = 0.5;
  env.per_core_write_rate = 1e5;
  auto s = readduo::make_scheme(readduo::SchemeKind::kSelect, env);
  // Conversion writes are full-line; a demand write soon after must be
  // differential (within the 320 s window of that full write).
  s->on_converted_write(77, Ns{0});
  const readduo::WriteOutcome w = s->on_write(77, from_seconds(5.0));
  EXPECT_FALSE(w.full_line);
}

TEST(SchemeInterplay, ScrubbingW0CostsMoreThanW1) {
  const auto& w = trace::workload_by_name("bzip2");
  memsim::SimConfig cfg;
  cfg.instructions_per_core = 300'000;
  readduo::SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, 9);

  auto w1 = readduo::make_scheme(readduo::SchemeKind::kScrubbing, env);
  memsim::Simulator sim1(cfg, *w1, w);
  const memsim::SimResult r1 = sim1.run();

  auto w0 = readduo::make_scheme(readduo::SchemeKind::kScrubbingW0, env);
  memsim::Simulator sim0(cfg, *w0, w);
  const memsim::SimResult r0 = sim0.run();

  // W=0 rewrites every line at every scrub: far more endurance and energy.
  EXPECT_GT(w0->counters().cell_writes, 2 * w1->counters().cell_writes);
  EXPECT_GT(w0->counters().scrub_energy_pj, w1->counters().scrub_energy_pj);
  EXPECT_GE(r0.exec_time.v, r1.exec_time.v);
}

}  // namespace
}  // namespace rd
