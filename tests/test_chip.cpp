// Tests for the functional MLC PCM chip (Figure 7 end to end): real data
// through BCH + hybrid readout + scrubbing + ECP.
#include "pcm/chip.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"

namespace rd::pcm {
namespace {

std::vector<std::uint8_t> payload(Rng& rng, unsigned n = 64) {
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_below(256));
  return data;
}

TEST(Chip, WriteReadRoundTripFresh) {
  ChipConfig cfg;
  cfg.num_lines = 8;
  MlcChip chip(cfg);
  Rng rng(1);
  for (std::size_t l = 0; l < 8; ++l) {
    const auto data = payload(rng);
    chip.write(l, data);
    const ChipReadResult r = chip.read(l);
    EXPECT_TRUE(r.corrected);
    EXPECT_FALSE(r.used_m_sense);
    EXPECT_EQ(r.data, data);
  }
  EXPECT_EQ(chip.stats().reads, 8u);
  EXPECT_EQ(chip.stats().writes, 8u);
}

TEST(Chip, DataSurvivesLongDriftViaHybridReadout) {
  ChipConfig cfg;
  cfg.num_lines = 24;
  cfg.scrub.interval_s = 0.0;  // no scrubbing: drift unchecked
  MlcChip chip(cfg);
  Rng rng(2);
  std::vector<std::vector<std::uint8_t>> wrote;
  for (std::size_t l = 0; l < 24; ++l) {
    wrote.push_back(payload(rng));
    chip.write(l, wrote.back());
  }
  chip.advance_time(4096.0);  // far beyond the R-safe window
  unsigned fallbacks = 0;
  for (std::size_t l = 0; l < 24; ++l) {
    const ChipReadResult r = chip.read(l);
    ASSERT_TRUE(r.corrected) << "line " << l;
    EXPECT_EQ(r.data, wrote[l]) << "line " << l;
    fallbacks += r.used_m_sense ? 1 : 0;
  }
  // At 4096 s some lines exceed BCH-8 under R-sensing; the M fallback
  // must have fired at least once and saved them.
  EXPECT_GT(fallbacks, 0u);
  EXPECT_EQ(chip.stats().m_fallbacks, fallbacks);
}

TEST(Chip, RSenseOnlyChipCorruptsWhereHybridSurvives) {
  Rng rng(3);
  const auto data = payload(rng);
  unsigned r_failures = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ChipConfig cfg;
    cfg.num_lines = 1;
    cfg.readout = ReadoutPolicy::kRSense;
    cfg.scrub.interval_s = 0.0;
    cfg.seed = seed;
    MlcChip chip(cfg);
    chip.write(0, data);
    chip.advance_time(8192.0);
    const ChipReadResult r = chip.read(0);
    if (!r.corrected || r.data != data) ++r_failures;
  }
  EXPECT_GT(r_failures, 0u);  // R-only really does lose data at this age
}

TEST(Chip, ScrubbingKeepsRSensingFast) {
  // With W=0 scrubbing every 640 s, even week-old data stays within the
  // R-sensing window (the ReadDuo-Hybrid guarantee).
  ChipConfig cfg;
  cfg.num_lines = 12;
  cfg.scrub.interval_s = 640.0;
  cfg.scrub.w = 0;
  MlcChip chip(cfg);
  Rng rng(4);
  std::vector<std::vector<std::uint8_t>> wrote;
  for (std::size_t l = 0; l < 12; ++l) {
    wrote.push_back(payload(rng));
    chip.write(l, wrote.back());
  }
  chip.advance_time(7 * 86400.0);  // one week
  EXPECT_GT(chip.stats().scrub_passes, 900u);
  EXPECT_GT(chip.stats().scrub_rewrites, 900u * 12u / 2u);
  for (std::size_t l = 0; l < 12; ++l) {
    // Age is bounded by the scrub interval.
    EXPECT_LE(chip.line_age(l), 640.0 + 1e-6);
    const ChipReadResult r = chip.read(l);
    EXPECT_TRUE(r.corrected);
    EXPECT_FALSE(r.used_m_sense) << "line " << l;
    EXPECT_EQ(r.data, wrote[l]);
  }
}

TEST(Chip, W1ScrubbingRewritesOnlyErroredLines) {
  ChipConfig cfg;
  cfg.num_lines = 16;
  cfg.scrub.interval_s = 640.0;
  cfg.scrub.w = 1;
  cfg.scrub.use_m_sense = true;
  MlcChip chip(cfg);
  Rng rng(5);
  for (std::size_t l = 0; l < 16; ++l) chip.write(l, payload(rng));
  chip.advance_time(10 * 640.0);
  EXPECT_EQ(chip.stats().scrub_passes, 10u);
  // M-metric sees essentially no drift at 640 s: rewrites must be rare.
  EXPECT_LT(chip.stats().scrub_rewrites, 8u);
}

TEST(Chip, EcpPatchesStuckCellsTransparently) {
  ChipConfig cfg;
  cfg.num_lines = 2;
  cfg.scrub.interval_s = 0.0;
  MlcChip chip(cfg);
  Rng rng(6);
  // Wear out five cells before the line is ever written.
  for (unsigned c : {3u, 50u, 77u, 120u, 250u}) {
    chip.inject_stuck_cell(0, c, /*level=*/0);
  }
  const auto data = payload(rng);
  chip.write(0, data);
  EXPECT_GT(chip.stats().cells_retired, 0u);
  const ChipReadResult r = chip.read(0);
  EXPECT_TRUE(r.corrected);
  EXPECT_EQ(r.data, data);
  // The patch is durable across rewrites and time.
  chip.advance_time(100.0);
  chip.write(0, payload(rng));
  chip.advance_time(100.0);
  EXPECT_TRUE(chip.read(0).corrected);
}

TEST(Chip, StuckCellsBeyondEcpStillCaughtByBch) {
  // More stuck cells than ECP pointers: the overflow lands on BCH-8,
  // which still corrects a few extra bit errors.
  ChipConfig cfg;
  cfg.num_lines = 1;
  cfg.ecp_pointers = 2;
  cfg.scrub.interval_s = 0.0;
  MlcChip chip(cfg);
  Rng rng(7);
  for (unsigned c : {10u, 20u}) chip.inject_stuck_cell(0, c, 0);
  const auto data = payload(rng);
  chip.write(0, data);  // retires the two
  // Two more stuck cells appear after the write (no pointers left; they
  // are only visible as read errors now).
  chip.inject_stuck_cell(0, 30, 0);
  chip.inject_stuck_cell(0, 40, 0);
  const ChipReadResult r = chip.read(0);
  EXPECT_TRUE(r.corrected);
  EXPECT_EQ(r.data, data);
}

TEST(Chip, AdvanceTimeRunsDueScrubsInOrder) {
  ChipConfig cfg;
  cfg.num_lines = 1;
  cfg.scrub.interval_s = 100.0;
  MlcChip chip(cfg);
  Rng rng(8);
  chip.write(0, payload(rng));
  chip.advance_time(50.0);
  EXPECT_EQ(chip.stats().scrub_passes, 0u);
  chip.advance_time(60.0);  // crosses t = 100
  EXPECT_EQ(chip.stats().scrub_passes, 1u);
  chip.advance_time(1000.0);  // crosses 200..1100
  EXPECT_EQ(chip.stats().scrub_passes, 11u);
  EXPECT_DOUBLE_EQ(chip.now(), 1110.0);
}

TEST(Chip, OddCodewordAndUnalignedPayloadRoundTripInEveryTier) {
  // BCH-17 over 60 bytes: 480 data bits (not a whole number of words)
  // and 165 parity bits, so the 645-bit codeword is padded to 646 bits
  // (323 cells). Both readouts, through two always-rewrite scrub passes,
  // must return the written bytes, identically in every kernel tier.
  for (ReadoutPolicy readout :
       {ReadoutPolicy::kHybrid, ReadoutPolicy::kMSense}) {
    std::vector<std::unique_ptr<MlcChip>> chips;
    for (KernelMode mode : {KernelMode::kReference, KernelMode::kOptimized}) {
      ChipConfig cfg;
      cfg.num_lines = 8;
      cfg.bch_t = 17;
      cfg.data_bytes = 60;
      cfg.readout = readout;
      cfg.scrub.interval_s = 640.0;
      cfg.scrub.w = 0;
      cfg.kernels = mode;
      chips.push_back(std::make_unique<MlcChip>(cfg));
    }
    Rng rng(17);
    std::vector<std::vector<std::uint8_t>> want;
    for (std::size_t l = 0; l < 8; ++l) {
      want.push_back(payload(rng, 60));
      for (auto& chip : chips) chip->write(l, want[l]);
    }
    for (double dt : {10.0, 1300.0}) {
      for (auto& chip : chips) chip->advance_time(dt);
      for (std::size_t l = 0; l < 8; ++l) {
        const ChipReadResult r = chips[0]->read(l);
        EXPECT_TRUE(r.corrected) << "line " << l;
        EXPECT_EQ(r.data, want[l]) << "line " << l;
        for (std::size_t i = 1; i < chips.size(); ++i) {
          const ChipReadResult o = chips[i]->read(l);
          EXPECT_EQ(o.data, r.data) << "line " << l << " chip " << i;
          EXPECT_EQ(o.used_m_sense, r.used_m_sense);
          EXPECT_EQ(o.corrected, r.corrected);
          EXPECT_EQ(o.errors_corrected, r.errors_corrected);
        }
      }
    }
    for (auto& chip : chips) {
      EXPECT_EQ(chip->stats().scrub_passes, 2u);
      EXPECT_EQ(chip->stats().scrub_rewrites, 16u);
      EXPECT_EQ(chip->stats().uncorrectable, 0u);
      EXPECT_EQ(chip->stats().m_fallbacks, chips[0]->stats().m_fallbacks);
    }
  }
}

TEST(Chip, ApiMisuseThrows) {
  ChipConfig cfg;
  cfg.num_lines = 2;
  MlcChip chip(cfg);
  Rng rng(9);
  EXPECT_THROW(chip.read(0), CheckFailure);  // never written
  EXPECT_THROW(chip.write(2, payload(rng)), CheckFailure);
  EXPECT_THROW(chip.write(0, std::vector<std::uint8_t>(63)), CheckFailure);
  EXPECT_THROW(chip.advance_time(-1.0), CheckFailure);
  EXPECT_THROW(chip.inject_stuck_cell(0, 100000, 0), CheckFailure);
}

}  // namespace
}  // namespace rd::pcm
