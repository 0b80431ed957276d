// Tests for the (72,64) SECDED code used by the TLC baseline.
#include "secded.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace rd::ecc {
namespace {

TEST(Secded, CleanWordPasses) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t d = rng.next();
    std::uint8_t c = Secded7264::encode_checks(d);
    const std::uint64_t orig = d;
    const SecdedResult r = Secded7264::decode(d, c);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.num_corrected, 0u);
    EXPECT_FALSE(r.double_error);
    EXPECT_EQ(d, orig);
  }
}

class SecdedDataBit : public ::testing::TestWithParam<unsigned> {};

TEST_P(SecdedDataBit, SingleDataErrorCorrected) {
  const unsigned bit = GetParam();
  Rng rng(2 + bit);
  for (int i = 0; i < 10; ++i) {
    std::uint64_t d = rng.next();
    std::uint8_t c = Secded7264::encode_checks(d);
    const std::uint64_t orig = d;
    d ^= 1ull << bit;
    const SecdedResult r = Secded7264::decode(d, c);
    ASSERT_TRUE(r.ok) << "bit " << bit;
    EXPECT_EQ(r.num_corrected, 1u);
    EXPECT_EQ(d, orig);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, SecdedDataBit, ::testing::Range(0u, 64u));

class SecdedCheckBit : public ::testing::TestWithParam<unsigned> {};

TEST_P(SecdedCheckBit, SingleCheckErrorCorrected) {
  const unsigned bit = GetParam();
  Rng rng(100 + bit);
  std::uint64_t d = rng.next();
  std::uint8_t c = Secded7264::encode_checks(d);
  const std::uint64_t orig = d;
  c = static_cast<std::uint8_t>(c ^ (1u << bit));
  const SecdedResult r = Secded7264::decode(d, c);
  ASSERT_TRUE(r.ok) << "check bit " << bit;
  EXPECT_EQ(r.num_corrected, 1u);
  EXPECT_EQ(d, orig);
  // Check bits restored too.
  EXPECT_EQ(c, Secded7264::encode_checks(d));
}

INSTANTIATE_TEST_SUITE_P(AllChecks, SecdedCheckBit, ::testing::Range(0u, 8u));

TEST(Secded, DoubleDataErrorsDetected) {
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    std::uint64_t d = rng.next();
    std::uint8_t c = Secded7264::encode_checks(d);
    const unsigned b1 = static_cast<unsigned>(rng.uniform_below(64));
    unsigned b2 = static_cast<unsigned>(rng.uniform_below(64));
    while (b2 == b1) b2 = static_cast<unsigned>(rng.uniform_below(64));
    d ^= (1ull << b1) ^ (1ull << b2);
    const SecdedResult r = Secded7264::decode(d, c);
    EXPECT_FALSE(r.ok) << b1 << "," << b2;
    EXPECT_TRUE(r.double_error);
  }
}

TEST(Secded, DataPlusCheckDoubleErrorDetected) {
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t d = rng.next();
    std::uint8_t c = Secded7264::encode_checks(d);
    d ^= 1ull << rng.uniform_below(64);
    c = static_cast<std::uint8_t>(c ^ (1u << rng.uniform_below(7)));
    const SecdedResult r = Secded7264::decode(d, c);
    EXPECT_TRUE(r.double_error || (r.ok && r.num_corrected == 1));
    // With one data + one Hamming-check error, parity sees two flips:
    // must not report a clean pass.
    EXPECT_FALSE(r.ok && r.num_corrected == 0);
  }
}

TEST(Secded, ChecksDependOnData) {
  EXPECT_NE(Secded7264::encode_checks(0x1ull),
            Secded7264::encode_checks(0x2ull));
  EXPECT_EQ(Secded7264::encode_checks(0ull), 0u);
}

}  // namespace
}  // namespace rd::ecc
