// Optimized-vs-reference kernel equivalence (DESIGN.md §10).
//
// Every rewritten hot-path kernel keeps its straight-line reference
// implementation selectable, and the contract is strict value equality:
// not "close", but the same bits. These tests pin that contract — each
// one runs the identical workload through both implementations and
// EXPECT_EQs the results. A failure here means an optimization changed
// observable behavior and must be fixed before anything else.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/kernels.h"
#include "common/math.h"
#include "common/rng.h"
#include "drift/error_model.h"
#include "ecc/bch.h"
#include "faults/injector.h"
#include "pcm/chip.h"
#include "pcm/line.h"
#include "pcm/mc_ler.h"
#include "gf/gf2m.h"

namespace rd {
namespace {

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

/// e distinct flip positions. Weights 9..17 come through the fault
/// injector's burst generator (the same sampler the runtime "bch" fault
/// class uses — its plan grammar only accepts the detect-only band);
/// other weights fall back to rejection sampling on a keyed Rng.
std::vector<unsigned> distinct_positions(unsigned e, std::uint64_t key,
                                         unsigned nbits) {
  if (e >= 9 && e <= 17) {
    const faults::FaultEngine engine(faults::FaultPlan::parse(
        "seed=47;bch:p=1,e=" + std::to_string(e)));
    return engine.bch_error_positions(key, key * 5 + 3, nbits);
  }
  Rng rng(47, key);
  std::vector<unsigned> flips;
  while (flips.size() < e) {
    const unsigned p = static_cast<unsigned>(rng.uniform_below(nbits));
    bool dup = false;
    for (unsigned q : flips) dup = dup || q == p;
    if (!dup) flips.push_back(p);
  }
  return flips;
}

// --- BCH: table-driven syndromes + incremental Chien search ---------------

class BchKernelEquivalence : public ::testing::Test {
 protected:
  const ecc::BchCode ref_{10, 8, 512, KernelMode::kReference};
  const ecc::BchCode opt_{10, 8, 512, KernelMode::kOptimized};
};

TEST_F(BchKernelEquivalence, ModesResolved) {
  EXPECT_EQ(ref_.kernel_mode(), KernelMode::kReference);
  EXPECT_EQ(opt_.kernel_mode(), KernelMode::kOptimized);
}

TEST_F(BchKernelEquivalence, SyndromesMatchForEveryWeightThroughDetection) {
  // Weights 0..17 cover correctable (<= 8), detect-only (9..16), and the
  // design distance boundary (17) on random codewords.
  Rng rng(101);
  for (unsigned e = 0; e <= 17; ++e) {
    for (unsigned trial = 0; trial < 4; ++trial) {
      BitVec cw = ref_.encode(random_bits(rng, 512));
      for (unsigned p :
           distinct_positions(e, e * 31 + trial, ref_.codeword_bits())) {
        cw.set(p, !cw.get(p));
      }
      const std::vector<gf::Elem> sr = ref_.compute_syndromes(cw);
      const std::vector<gf::Elem> so = opt_.compute_syndromes(cw);
      ASSERT_EQ(sr.size(), so.size());
      for (std::size_t k = 0; k < sr.size(); ++k) {
        EXPECT_EQ(sr[k], so[k]) << "e=" << e << " trial=" << trial
                                << " syndrome " << k;
      }
    }
  }
}

TEST_F(BchKernelEquivalence, SyndromesMatchOnRandomNoise) {
  // Not just codeword + burst: arbitrary words (dense, sparse, all-ones)
  // must produce identical syndromes too.
  Rng rng(102);
  const unsigned n = ref_.codeword_bits();
  std::vector<BitVec> words;
  words.push_back(BitVec(n));  // all zero
  BitVec ones(n);
  for (unsigned i = 0; i < n; ++i) ones.set(i, true);
  words.push_back(ones);
  for (int i = 0; i < 8; ++i) words.push_back(random_bits(rng, n));
  for (const BitVec& w : words) {
    EXPECT_EQ(ref_.compute_syndromes(w), opt_.compute_syndromes(w));
  }
}

TEST_F(BchKernelEquivalence, DecodeOutcomesMatchForEveryWeight) {
  // Full decode equivalence: flags, correction count, and the corrected
  // word itself, from clean through past-detection weights.
  Rng rng(103);
  for (unsigned e = 0; e <= 20; ++e) {
    for (unsigned trial = 0; trial < 3; ++trial) {
      const BitVec clean = ref_.encode(random_bits(rng, 512));
      BitVec noisy = clean;
      for (unsigned p :
           distinct_positions(e, e * 17 + trial, ref_.codeword_bits())) {
        noisy.set(p, !noisy.get(p));
      }
      BitVec wr = noisy;
      BitVec wo = noisy;
      const ecc::BchDecodeResult dr = ref_.decode(wr);
      const ecc::BchDecodeResult d_opt = opt_.decode(wo);
      EXPECT_EQ(dr.corrected, d_opt.corrected) << "e=" << e << " t=" << trial;
      EXPECT_EQ(dr.num_corrected, d_opt.num_corrected)
          << "e=" << e << " t=" << trial;
      EXPECT_EQ(dr.detected_uncorrectable, d_opt.detected_uncorrectable)
          << "e=" << e << " t=" << trial;
      EXPECT_TRUE(wr == wo) << "e=" << e << " t=" << trial;
      if (e <= 8) {
        EXPECT_TRUE(wr == clean) << "e=" << e << " t=" << trial;
      }
    }
  }
}

// --- Drift model: pinned quadrature --------------------------------------

// Both tests keep the names they had when a memo sat in front of the
// quadrature and was compared against the direct path; the values below
// were recorded from that build, so they pin what the memo returned.

TEST(DriftKernelEquivalence, MemoMatchesDirectAcrossPaperGrids) {
  // The (state, t) points the Tables III-V style grids actually touch:
  // every state crossed with scrub-relevant ages, for both readout metrics
  // and a heated variant. Exact double equality against recorded hex-float
  // values, so a change to the quadrature, its panels or the math helpers
  // it calls shows up here bit for bit, under every READDUO_KERNELS tier.
  const std::vector<drift::MetricConfig> configs = {
      drift::r_metric(), drift::m_metric(),
      drift::at_temperature(drift::r_metric(), 55.0)};
  const double ages[] = {1e-3,   0.1,    1.0,     64.0, 640.0,
                         1280.0, 6400.0, 86400.0, 2.6e6};
  constexpr std::size_t kAges = std::size(ages);
  using StateRows = std::array<std::array<double, kAges>, drift::kNumStates>;
  const StateRows want[] = {
    {{
      {kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf,
       -0x1.2ac1802dad87p+9, -0x1.5a8de95a620b7p+8, -0x1.8fcaec90a1ee5p+7},
      {kNegInf, kNegInf, kNegInf, -0x1.47652335c5547p+3, -0x1.d57adf80eba24p+2,
       -0x1.b99147319242ap+2, -0x1.89c6271d79fd1p+2, -0x1.54ad489e47887p+2,
       -0x1.221d5d9bd548ap+2},
      {kNegInf, kNegInf, kNegInf, -0x1.429b3f57ca452p+2, -0x1.d9db999c26375p+1,
       -0x1.b114026150915p+1, -0x1.5f416e587826fp+1, -0x1.f3ac25af0ab8fp+0,
       -0x1.41e2784aee157p+0},
      {kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf,
       kNegInf},
    }},
    {{
      {kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf,
       kNegInf},
      {kNegInf, kNegInf, kNegInf, -0x1.3bb928d5e45dbp+8, -0x1.f55494a5b8832p+6,
       -0x1.95b091ff4f069p+6, -0x1.0bcae53c358f8p+6, -0x1.414364d886cfdp+5,
       -0x1.90826821ac64cp+4},
      {kNegInf, kNegInf, kNegInf, -0x1.0dedc8fcebef8p+5, -0x1.06919924f8e6cp+4,
       -0x1.ca1591f52edcap+3, -0x1.6a0dc0a11b882p+3, -0x1.1dc2d61e76633p+3,
       -0x1.db866be6e82b9p+2},
      {kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf,
       kNegInf},
    }},
    {{
      {kNegInf, kNegInf, kNegInf, kNegInf, -0x1.605108083052bp+9,
       -0x1.1cc7fc8ecca5ap+9, -0x1.745a67c16c21dp+8, -0x1.af5377c257eap+7,
       -0x1.f2679ed534016p+6},
      {kNegInf, kNegInf, kNegInf, -0x1.0f58a1bfa1f24p+3, -0x1.9b6b9394610edp+2,
       -0x1.84d422d3509ep+2, -0x1.5b63049a59783p+2, -0x1.2914bcb34f5b1p+2,
       -0x1.ec1aaefffb1ebp+1},
      {kNegInf, kNegInf, kNegInf, -0x1.1717dfc4814bdp+2, -0x1.7f173c8d44b3dp+1,
       -0x1.560ed3128fd7ep+1, -0x1.06a875b19c221p+1, -0x1.58168703ce4d5p+0,
       -0x1.972d6b63cb832p-1},
      {kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf,
       kNegInf},
    }},
  };
  ASSERT_EQ(std::size(want), configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const drift::ErrorModel model(configs[c]);
    for (std::size_t s = 0; s < drift::kNumStates; ++s) {
      for (std::size_t i = 0; i < kAges; ++i) {
        EXPECT_EQ(want[c][s][i], model.log_cell_error_prob(s, ages[i]))
            << "config " << c << " state " << s << " t " << ages[i];
      }
    }
  }
}

TEST(DriftKernelEquivalence, DerivedQuantitiesMatch) {
  // The aggregates built on the pinned primitive (averages and LER tails),
  // bit for bit. R-metric: t, log avg p, avg p, log LER at E = 0, 4, 8.
  const double derived[][6] = {
      {64.0, -0x1.9af94a1cabb7p+2, 0x1.aa5138634e98fp-10, -0x1.ec4ce464d3933p-1,
       -0x1.1bd19bb768f17p+3, -0x1.3ec8e6b4fbc85p+4},
      {640.0, -0x1.43fb974bfc12fp+2, 0x1.9eef9592c595ep-8,
       -0x1.5311491ca3f18p-3, -0x1.976109bd3abddp+1, -0x1.1cb24746af27p+3},
      {6400.0, -0x1.064465ef32936p+2, 0x1.10173eab6fa6bp-6,
       -0x1.ce9e7b7530a14p-8, -0x1.35ddb82d21a9ap-1, -0x1.65b9a5ab1fa23p+1},
  };
  const drift::ErrorModel r(drift::r_metric());
  const drift::LerCalculator calc(r);
  for (const auto& row : derived) {
    const double t = row[0];
    EXPECT_EQ(row[1], r.log_avg_cell_error_prob(t)) << t;
    EXPECT_EQ(row[2], r.avg_cell_error_prob(t)) << t;
    EXPECT_EQ(row[3], calc.log_ler(0, t)) << t;
    EXPECT_EQ(row[4], calc.log_ler(4, t)) << t;
    EXPECT_EQ(row[5], calc.log_ler(8, t)) << t;
  }
}

// --- MLC line: batched per-line readout ----------------------------------

TEST(LineKernelEquivalence, ReadMatchesAfterFullWrite) {
  Rng rng(104);
  const drift::MetricConfig cfg = drift::r_metric();
  pcm::MlcLine line(592);
  line.write_full(random_bits(rng, 592), 0.0, rng, cfg);
  for (double t : {0.5, 64.0, 640.0, 6400.0, 1e6}) {
    const BitVec r = line.read(t, cfg, KernelMode::kReference);
    const BitVec o = line.read(t, cfg, KernelMode::kOptimized);
    EXPECT_TRUE(r == o) << "t=" << t;
    EXPECT_EQ(line.count_drift_errors(t, cfg, KernelMode::kReference),
              line.count_drift_errors(t, cfg, KernelMode::kOptimized))
        << "t=" << t;
  }
}

TEST(LineKernelEquivalence, ReadMatchesWithMixedWriteTimes) {
  // Differential writes leave cells with different ages — exactly the
  // case where the batched kernel must recompute log10 at every
  // write-time boundary instead of hoisting one value.
  Rng rng(105);
  const drift::MetricConfig cfg = drift::r_metric();
  pcm::MlcLine line(592);
  line.write_full(random_bits(rng, 592), 0.0, rng, cfg);
  line.write_differential(random_bits(rng, 592), 100.0, rng, cfg);
  line.write_differential(random_bits(rng, 592), 300.0, rng, cfg);
  for (double t : {301.0, 640.0, 6400.0}) {
    const BitVec r = line.read(t, cfg, KernelMode::kReference);
    const BitVec o = line.read(t, cfg, KernelMode::kOptimized);
    EXPECT_TRUE(r == o) << "t=" << t;
    EXPECT_EQ(line.count_drift_errors(t, cfg, KernelMode::kReference),
              line.count_drift_errors(t, cfg, KernelMode::kOptimized))
        << "t=" << t;
  }
}

TEST(LineKernelEquivalence, ReadLevelsMatchesPerCellWithOffsetsAndStuck) {
  // The raw batched kernel against a hand-rolled per-cell loop, with
  // sense offsets on every cell and one stuck cell (which must ignore
  // its offset), for both metrics.
  Rng rng(106);
  pcm::MlcLine line(592);
  line.write_full(random_bits(rng, 592), 0.0, rng, drift::r_metric());
  line.cell_at(17).set_stuck(2);
  std::vector<double> offsets(line.num_cells());
  for (double& o : offsets) o = rng.normal(0.0, 0.02);
  for (const drift::MetricConfig& cfg :
       {drift::r_metric(), drift::m_metric()}) {
    std::vector<std::uint8_t> batched(line.num_cells());
    line.read_levels(640.0, cfg, offsets.data(), batched.data());
    for (std::size_t c = 0; c < line.num_cells(); ++c) {
      EXPECT_EQ(line.cells()[c].read_level(640.0, cfg, offsets[c]),
                batched[c])
          << "cell " << c;
    }
  }
}

// --- Monte-Carlo LER: hoisted drift law ----------------------------------

TEST(McLerKernelEquivalence, CountsMatchBitIdentically) {
  const drift::MetricConfig cfg = drift::r_metric();
  const drift::LineGeometry geom;
  for (double t : {64.0, 640.0}) {
    const pcm::McLerResult r =
        pcm::mc_ler(cfg, geom, 2, t, 20000, 9, KernelMode::kReference);
    const pcm::McLerResult o =
        pcm::mc_ler(cfg, geom, 2, t, 20000, 9, KernelMode::kOptimized);
    EXPECT_EQ(r.lines, o.lines);
    EXPECT_EQ(r.failures, o.failures) << "t=" << t;
  }
}

// --- Whole chip: everything composed -------------------------------------

TEST(ChipKernelEquivalence, FullLifetimeIsIdentical) {
  // Two chips, same seed, opposite kernels; write, age across scrub
  // boundaries, read back. Data, readout flags, and every counter must
  // agree — this composes the BCH, line, and sensing kernels under the
  // real fault serials.
  pcm::ChipConfig base;
  base.num_lines = 8;
  base.seed = 77;
  pcm::ChipConfig ref_cfg = base;
  ref_cfg.kernels = KernelMode::kReference;
  pcm::ChipConfig opt_cfg = base;
  opt_cfg.kernels = KernelMode::kOptimized;
  pcm::MlcChip ref_chip(ref_cfg);
  pcm::MlcChip opt_chip(opt_cfg);

  Rng data_rng(107);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t l = 0; l < base.num_lines; ++l) {
    std::vector<std::uint8_t> p(base.data_bytes);
    for (auto& b : p) b = static_cast<std::uint8_t>(data_rng.next());
    payloads.push_back(p);
    ref_chip.write(l, p);
    opt_chip.write(l, p);
  }
  ref_chip.inject_stuck_cell(3, 11, 1);
  opt_chip.inject_stuck_cell(3, 11, 1);

  for (double dt : {100.0, 600.0, 1200.0}) {
    ref_chip.advance_time(dt);
    opt_chip.advance_time(dt);
    for (std::size_t l = 0; l < base.num_lines; ++l) {
      const pcm::ChipReadResult r = ref_chip.read(l);
      const pcm::ChipReadResult o = opt_chip.read(l);
      EXPECT_EQ(r.data, o.data) << "line " << l;
      EXPECT_EQ(r.used_m_sense, o.used_m_sense) << "line " << l;
      EXPECT_EQ(r.corrected, o.corrected) << "line " << l;
      EXPECT_EQ(r.errors_corrected, o.errors_corrected) << "line " << l;
    }
  }
  const pcm::ChipStats& rs = ref_chip.stats();
  const pcm::ChipStats& os = opt_chip.stats();
  EXPECT_EQ(rs.reads, os.reads);
  EXPECT_EQ(rs.m_fallbacks, os.m_fallbacks);
  EXPECT_EQ(rs.writes, os.writes);
  EXPECT_EQ(rs.scrub_passes, os.scrub_passes);
  EXPECT_EQ(rs.scrub_rewrites, os.scrub_rewrites);
  EXPECT_EQ(rs.uncorrectable, os.uncorrectable);
}

// --- Vectorized tier (DESIGN.md §10.5) -----------------------------------
//
// The kVectorized lanes must match the reference bit for bit at every
// dispatch level this host can reach. Each check therefore runs twice:
// once under native dispatch (whatever simd_level() detected — AVX2 or
// already scalar) and once with the dispatch forced to the
// scalar fallback, which must route through the optimized kernels. On a
// scalar-only host the two passes coincide and both still run.

/// Force simd_level() for a scope, restoring the previous level after.
/// The restore is always legal: the previous level was at or below what
/// detection allows by construction.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(simd_level()) {
    set_simd_level_for_testing(level);
  }
  ~ScopedSimdLevel() { set_simd_level_for_testing(prev_); }

 private:
  SimdLevel prev_;
};

class VectorBchEquivalence : public ::testing::Test {
 protected:
  const ecc::BchCode ref_{10, 8, 512, KernelMode::kReference};
  const ecc::BchCode vec_{10, 8, 512, KernelMode::kVectorized};
};

TEST_F(VectorBchEquivalence, ModeResolvesAndLevelHasAName) {
  EXPECT_EQ(vec_.kernel_mode(), KernelMode::kVectorized);
  const std::string name = simd_level_name(simd_level());
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
}

TEST_F(VectorBchEquivalence, SyndromesMatchForEveryWeightThroughDetection) {
  for (SimdLevel level : {simd_level(), SimdLevel::kScalar}) {
    ScopedSimdLevel scoped(level);
    Rng rng(201);
    for (unsigned e = 0; e <= 17; ++e) {
      for (unsigned trial = 0; trial < 3; ++trial) {
        BitVec cw = ref_.encode(random_bits(rng, 512));
        for (unsigned p :
             distinct_positions(e, e * 13 + trial, ref_.codeword_bits())) {
          cw.set(p, !cw.get(p));
        }
        EXPECT_EQ(ref_.compute_syndromes(cw), vec_.compute_syndromes(cw))
            << "e=" << e << " trial=" << trial << " level="
            << simd_level_name(level);
      }
    }
  }
}

TEST_F(VectorBchEquivalence, SyndromesMatchOnRandomNoise) {
  for (SimdLevel level : {simd_level(), SimdLevel::kScalar}) {
    ScopedSimdLevel scoped(level);
    Rng rng(202);
    const unsigned n = ref_.codeword_bits();
    std::vector<BitVec> words;
    words.push_back(BitVec(n));  // all zero
    BitVec ones(n);
    for (unsigned i = 0; i < n; ++i) ones.set(i, true);
    words.push_back(ones);
    for (int i = 0; i < 6; ++i) words.push_back(random_bits(rng, n));
    for (const BitVec& w : words) {
      EXPECT_EQ(ref_.compute_syndromes(w), vec_.compute_syndromes(w))
          << simd_level_name(level);
    }
  }
}

TEST_F(VectorBchEquivalence, DecodeOutcomesMatchForEveryWeight) {
  for (SimdLevel level : {simd_level(), SimdLevel::kScalar}) {
    ScopedSimdLevel scoped(level);
    Rng rng(203);
    for (unsigned e = 0; e <= 20; ++e) {
      for (unsigned trial = 0; trial < 3; ++trial) {
        const BitVec clean = ref_.encode(random_bits(rng, 512));
        BitVec noisy = clean;
        for (unsigned p :
             distinct_positions(e, e * 19 + trial, ref_.codeword_bits())) {
          noisy.set(p, !noisy.get(p));
        }
        BitVec wr = noisy;
        BitVec wv = noisy;
        const ecc::BchDecodeResult dr = ref_.decode(wr);
        const ecc::BchDecodeResult dv = vec_.decode(wv);
        EXPECT_EQ(dr.corrected, dv.corrected)
            << "e=" << e << " t=" << trial << " " << simd_level_name(level);
        EXPECT_EQ(dr.num_corrected, dv.num_corrected)
            << "e=" << e << " t=" << trial << " " << simd_level_name(level);
        EXPECT_EQ(dr.detected_uncorrectable, dv.detected_uncorrectable)
            << "e=" << e << " t=" << trial << " " << simd_level_name(level);
        EXPECT_TRUE(wr == wv)
            << "e=" << e << " t=" << trial << " " << simd_level_name(level);
        if (e <= 8) {
          EXPECT_TRUE(wv == clean) << "e=" << e << " t=" << trial;
        }
      }
    }
  }
}

TEST(VectorLineEquivalence, ReadMatchesMixedAgesOffsetsAndStuck) {
  // The hardest line shape at once: three write generations (so the
  // log_t SoA fill hits its run boundaries), per-cell sense offsets, and
  // stuck cells (which must ignore both metric and offset), against the
  // per-cell reference — at native dispatch and through the scalar
  // fallback.
  for (SimdLevel level : {simd_level(), SimdLevel::kScalar}) {
    ScopedSimdLevel scoped(level);
    Rng rng(204);
    pcm::MlcLine line(592);
    line.write_full(random_bits(rng, 592), 0.0, rng, drift::r_metric());
    line.write_differential(random_bits(rng, 592), 100.0, rng,
                            drift::r_metric());
    line.write_differential(random_bits(rng, 592), 300.0, rng,
                            drift::r_metric());
    line.cell_at(17).set_stuck(2);
    line.cell_at(0).set_stuck(0);
    line.cell_at(295).set_stuck(3);
    std::vector<double> offsets(line.num_cells());
    for (double& o : offsets) o = rng.normal(0.0, 0.02);
    for (const drift::MetricConfig& cfg :
         {drift::r_metric(), drift::m_metric()}) {
      for (double t : {301.0, 640.0, 6400.0, 1e6}) {
        std::vector<std::uint8_t> lanes(line.num_cells());
        line.read_levels(t, cfg, offsets.data(), lanes.data(),
                         KernelMode::kVectorized);
        for (std::size_t c = 0; c < line.num_cells(); ++c) {
          ASSERT_EQ(line.cells()[c].read_level(t, cfg, offsets[c]), lanes[c])
              << "cell " << c << " t=" << t << " "
              << simd_level_name(level);
        }
        const BitVec r = line.read(t, cfg, KernelMode::kReference);
        const BitVec v = line.read(t, cfg, KernelMode::kVectorized);
        EXPECT_TRUE(r == v) << "t=" << t << " " << simd_level_name(level);
        EXPECT_EQ(line.count_drift_errors(t, cfg, KernelMode::kReference),
                  line.count_drift_errors(t, cfg, KernelMode::kVectorized))
            << "t=" << t << " " << simd_level_name(level);
      }
    }
  }
}

TEST(VectorLineEquivalence, SoaCacheInvalidatesOnEveryMutator) {
  // Read (building the SoA mirror), mutate through each mutator in turn,
  // read again: the vectorized image must track the reference image
  // across every rebuild.
  for (SimdLevel level : {simd_level(), SimdLevel::kScalar}) {
    ScopedSimdLevel scoped(level);
    Rng rng(205);
    const drift::MetricConfig cfg = drift::r_metric();
    pcm::MlcLine line(592);
    line.write_full(random_bits(rng, 592), 0.0, rng, cfg);
    auto check = [&](double t, const char* what) {
      const BitVec r = line.read(t, cfg, KernelMode::kReference);
      const BitVec v = line.read(t, cfg, KernelMode::kVectorized);
      EXPECT_TRUE(r == v) << what << " " << simd_level_name(level);
    };
    check(64.0, "after write_full");
    line.write_differential(random_bits(rng, 592), 100.0, rng, cfg);
    check(164.0, "after write_differential");
    line.refresh_drifted(1e5, rng, cfg);
    check(1e5 + 64.0, "after refresh_drifted");
    line.cell_at(42).set_stuck(1);
    check(1e5 + 128.0, "after cell_at().set_stuck");
  }
}

TEST(VectorMcLerEquivalence, CountsMatchBitIdentically) {
  // The population scan with its RNG-stream replication on failing lines
  // (the early-exit contract): failure counts must equal the reference
  // count exactly, not statistically. e=0 at a late age maximizes
  // failing lines, stressing the snapshot/replay path; e=2 exercises
  // mid-line exits.
  const drift::MetricConfig cfg = drift::r_metric();
  const drift::LineGeometry geom;
  for (SimdLevel level : {simd_level(), SimdLevel::kScalar}) {
    ScopedSimdLevel scoped(level);
    for (unsigned e : {0u, 2u}) {
      for (double t : {64.0, 640.0}) {
        const pcm::McLerResult r =
            pcm::mc_ler(cfg, geom, e, t, 20000, 9, KernelMode::kReference);
        const pcm::McLerResult v =
            pcm::mc_ler(cfg, geom, e, t, 20000, 9, KernelMode::kVectorized);
        EXPECT_EQ(r.lines, v.lines);
        EXPECT_EQ(r.failures, v.failures)
            << "e=" << e << " t=" << t << " " << simd_level_name(level);
      }
    }
  }
}

TEST(VectorChipEquivalence, FullLifetimeIsIdentical) {
  // The composed system under kVectorized: same seed, same faults, same
  // scrub schedule as a reference chip — data, flags, and counters must
  // all agree (this routes the SIMD lanes through sense(), ECP patching,
  // and the BCH decode path together).
  for (SimdLevel level : {simd_level(), SimdLevel::kScalar}) {
    ScopedSimdLevel scoped(level);
    SCOPED_TRACE(simd_level_name(level));
    pcm::ChipConfig base;
    base.num_lines = 8;
    base.seed = 77;
    pcm::ChipConfig ref_cfg = base;
    ref_cfg.kernels = KernelMode::kReference;
    pcm::ChipConfig vec_cfg = base;
    vec_cfg.kernels = KernelMode::kVectorized;
    pcm::MlcChip ref_chip(ref_cfg);
    pcm::MlcChip vec_chip(vec_cfg);

    Rng data_rng(206);
    for (std::size_t l = 0; l < base.num_lines; ++l) {
      std::vector<std::uint8_t> p(base.data_bytes);
      for (auto& b : p) b = static_cast<std::uint8_t>(data_rng.next());
      ref_chip.write(l, p);
      vec_chip.write(l, p);
    }
    ref_chip.inject_stuck_cell(3, 11, 1);
    vec_chip.inject_stuck_cell(3, 11, 1);

    for (double dt : {100.0, 600.0, 1200.0}) {
      ref_chip.advance_time(dt);
      vec_chip.advance_time(dt);
      for (std::size_t l = 0; l < base.num_lines; ++l) {
        const pcm::ChipReadResult r = ref_chip.read(l);
        const pcm::ChipReadResult v = vec_chip.read(l);
        EXPECT_EQ(r.data, v.data) << "line " << l;
        EXPECT_EQ(r.used_m_sense, v.used_m_sense) << "line " << l;
        EXPECT_EQ(r.corrected, v.corrected) << "line " << l;
        EXPECT_EQ(r.errors_corrected, v.errors_corrected) << "line " << l;
      }
    }
    const pcm::ChipStats& rs = ref_chip.stats();
    const pcm::ChipStats& vs = vec_chip.stats();
    EXPECT_EQ(rs.reads, vs.reads);
    EXPECT_EQ(rs.m_fallbacks, vs.m_fallbacks);
    EXPECT_EQ(rs.writes, vs.writes);
    EXPECT_EQ(rs.scrub_passes, vs.scrub_passes);
    EXPECT_EQ(rs.scrub_rewrites, vs.scrub_rewrites);
    EXPECT_EQ(rs.uncorrectable, vs.uncorrectable);
  }
}

TEST(VectorDispatchContract, ForcingAboveDetectionThrows) {
  // The test seam only narrows: asking for a level the build/host cannot
  // run must fail loudly (a silent downgrade would mislabel benchmarks).
  // The cap is raw detection, not the current (possibly test-lowered)
  // level, so probe by attempting the top level directly.
  const SimdLevel prev = simd_level();
  bool threw = false;
  try {
    set_simd_level_for_testing(SimdLevel::kAvx2);
  } catch (const CheckFailure&) {
    threw = true;
  }
  set_simd_level_for_testing(prev);  // a restore never exceeds detection
  if (!threw) {
    GTEST_SKIP() << "build/host can dispatch AVX2; nothing above it to ask";
  }
}

// --- GF(2^m) helper identities -------------------------------------------

TEST(GfKernelIdentities, SqrAndReducedPowerAgreeWithMul) {
  // The table tricks the optimized kernels lean on: sqr(a) == mul(a, a)
  // for every element, and alpha_pow_reduced(k) == alpha_pow(k) for every
  // in-range exponent.
  const gf::Field f(10);
  for (std::uint32_t a = 0; a < f.size(); ++a) {
    EXPECT_EQ(f.sqr(static_cast<gf::Elem>(a)),
              f.mul(static_cast<gf::Elem>(a), static_cast<gf::Elem>(a)))
        << a;
  }
  for (std::uint32_t k = 0; k < f.order(); ++k) {
    EXPECT_EQ(f.alpha_pow_reduced(k), f.alpha_pow(k)) << k;
  }
}

}  // namespace
}  // namespace rd
