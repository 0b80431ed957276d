// Tests for the endurance substrates: Start-Gap wear leveling and ECP
// hard-error pointers.
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "pcm/ecp.h"
#include "pcm/wear_level.h"

namespace rd::pcm {
namespace {

// ----------------------------------------------------------- StartGap ----

TEST(StartGap, InitialMappingIsIdentity) {
  StartGap sg(16);
  for (std::uint64_t l = 0; l < 16; ++l) {
    EXPECT_EQ(sg.to_physical(l), l);
  }
  EXPECT_EQ(sg.gap_position(), 16u);
  EXPECT_EQ(sg.physical_lines(), 17u);
}

class StartGapState : public ::testing::TestWithParam<int> {};

TEST_P(StartGapState, MappingIsAlwaysInjective) {
  // Property: after any number of gap movements the logical->physical map
  // is a bijection into [0, lines] minus the gap slot.
  const int moves = GetParam();
  StartGap sg(12, /*gap_write_interval=*/1);
  for (int m = 0; m < moves; ++m) sg.on_write();
  std::set<std::uint64_t> seen;
  for (std::uint64_t l = 0; l < 12; ++l) {
    const std::uint64_t p = sg.to_physical(l);
    EXPECT_LT(p, sg.physical_lines());
    EXPECT_NE(p, sg.gap_position()) << "logical " << l;
    EXPECT_TRUE(seen.insert(p).second) << "collision at logical " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Moves, StartGapState,
                         ::testing::Values(0, 1, 5, 11, 12, 13, 25, 144,
                                           157));

TEST(StartGap, GapMovesEveryInterval) {
  StartGap sg(8, /*gap_write_interval=*/4);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(sg.on_write());
  EXPECT_TRUE(sg.on_write());  // 4th write moves the gap
  EXPECT_EQ(sg.gap_position(), 7u);
}

TEST(StartGap, FullRotationAdvancesStart) {
  StartGap sg(8, 1);
  // Gap starts at 8; 9 movements return it to 8 with start advanced.
  for (int i = 0; i < 9; ++i) sg.on_write();
  EXPECT_EQ(sg.gap_position(), 8u);
  EXPECT_EQ(sg.rotations(), 1u);
  // Mapping is now shifted by one.
  EXPECT_EQ(sg.to_physical(0), 1u);
}

TEST(StartGap, EveryLogicalLineVisitsEveryPhysicalSlot) {
  // The wear-leveling property itself: across full rotations a hot
  // logical line's writes spread over all physical slots.
  StartGap sg(6, 1);
  std::set<std::uint64_t> slots;
  // 7 gap moves per rotation; 7 rotations visit everything.
  for (int i = 0; i < 7 * 7; ++i) {
    slots.insert(sg.to_physical(3));
    sg.on_write();
  }
  EXPECT_EQ(slots.size(), sg.physical_lines());
}

TEST(StartGap, HotLineWearFlattens) {
  // Monte-Carlo: a 90%-hot single line, with Start-Gap rotating under a
  // realistic gap interval, spreads its writes over many physical slots.
  StartGap sg(64, /*gap_write_interval=*/16);
  Rng rng(5);
  std::map<std::uint64_t, int> wear;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t logical = rng.bernoulli(0.9) ? 7 : rng.uniform_below(64);
    ++wear[sg.to_physical(logical)];
    sg.on_write();
  }
  // Without leveling one slot would take ~180k writes; with it the peak
  // slot takes a small multiple of the mean.
  int peak = 0;
  for (const auto& [slot, count] : wear) peak = std::max(peak, count);
  const double mean = 200000.0 / static_cast<double>(sg.physical_lines());
  EXPECT_LT(peak, 3.0 * mean);
}

TEST(StartGap, RejectsBadArgs) {
  EXPECT_THROW(StartGap(0), CheckFailure);
  EXPECT_THROW(StartGap(4, 0), CheckFailure);
  StartGap sg(4);
  EXPECT_THROW(sg.to_physical(4), CheckFailure);
}

// ---------------------------------------------------------------- ECP ----

TEST(Ecp, FreshLineHasNoRetirements) {
  EcpLine ecp(296, 6);
  EXPECT_EQ(ecp.capacity(), 6u);
  EXPECT_EQ(ecp.used(), 0u);
  EXPECT_FALSE(ecp.exhausted());
  EXPECT_FALSE(ecp.is_retired(0));
}

TEST(Ecp, RetireAndPatch) {
  EcpLine ecp(8, 2);
  ASSERT_TRUE(ecp.retire_cell(3));
  ASSERT_TRUE(ecp.retire_cell(5));
  EXPECT_TRUE(ecp.exhausted());

  // Write path stores the true values for retired cells...
  std::vector<std::uint8_t> values = {0, 1, 2, 3, 0, 1, 2, 3};
  ecp.store(values);
  // ...then the stuck cells corrupt themselves...
  values[3] = 0;
  values[5] = 2;
  // ...and patch() restores them on read.
  ecp.patch(values);
  EXPECT_EQ(values[3], 3);
  EXPECT_EQ(values[5], 1);
}

TEST(Ecp, RetireIsIdempotent) {
  EcpLine ecp(16, 2);
  EXPECT_TRUE(ecp.retire_cell(9));
  EXPECT_TRUE(ecp.retire_cell(9));
  EXPECT_EQ(ecp.used(), 1u);
}

TEST(Ecp, ExhaustionReported) {
  EcpLine ecp(16, 2);
  EXPECT_TRUE(ecp.retire_cell(1));
  EXPECT_TRUE(ecp.retire_cell(2));
  EXPECT_FALSE(ecp.retire_cell(3));
  EXPECT_EQ(ecp.used(), 2u);
}

TEST(Ecp, PatchOnlyTouchesRetiredCells) {
  EcpLine ecp(6, 3);
  ecp.retire_cell(0);
  std::vector<std::uint8_t> values = {3, 2, 1, 0, 1, 2};
  ecp.store(values);
  std::vector<std::uint8_t> corrupted = {0, 9, 9, 9, 9, 9};
  ecp.patch(corrupted);
  EXPECT_EQ(corrupted[0], 3);  // patched
  for (int i = 1; i < 6; ++i) EXPECT_EQ(corrupted[i], 9);
}

TEST(Ecp, EndToEndStuckCellLifecycle) {
  // A stuck-at cell discovered by a verify-after-write: retire it, then
  // every subsequent read round-trips despite the cell lying.
  Rng rng(9);
  EcpLine ecp(296, 6);
  std::vector<std::uint8_t> stored(296);
  for (auto& v : stored) v = static_cast<std::uint8_t>(rng.uniform_below(4));
  const unsigned stuck = 123;
  const std::uint8_t stuck_value = 0;
  ASSERT_TRUE(ecp.retire_cell(stuck));
  ecp.store(stored);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::uint8_t> read = stored;
    read[stuck] = stuck_value;  // the cell is stuck
    ecp.patch(read);
    EXPECT_EQ(read, stored);
  }
}

TEST(Ecp, RejectsBadArgs) {
  EXPECT_THROW(EcpLine(0, 6), CheckFailure);
  EXPECT_THROW(EcpLine(296, 0), CheckFailure);
  EcpLine ecp(296, 6);
  EXPECT_THROW(ecp.retire_cell(296), CheckFailure);
  std::vector<std::uint8_t> wrong(10);
  EXPECT_THROW(ecp.patch(wrong), CheckFailure);
}

}  // namespace
}  // namespace rd::pcm
