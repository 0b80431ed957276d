// Tests for the BitVec payload type.
#include "common/bitvec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace rd {
namespace {

TEST(BitVec, DefaultEmpty) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_FALSE(v.any());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, SetGetFlip) {
  BitVec v(130);  // crosses word boundaries
  for (std::size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_FALSE(v.get(i));
    v.set(i, true);
    EXPECT_TRUE(v.get(i));
    v.flip(i);
    EXPECT_FALSE(v.get(i));
  }
}

TEST(BitVec, PopcountAndAny) {
  BitVec v(200);
  EXPECT_FALSE(v.any());
  v.set(3, true);
  v.set(77, true);
  v.set(199, true);
  EXPECT_TRUE(v.any());
  EXPECT_EQ(v.popcount(), 3u);
  v.set(77, false);
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, XorComputesHammingDistance) {
  Rng rng(1);
  BitVec a(592), b(592);
  for (std::size_t i = 0; i < 592; ++i) {
    a.set(i, rng.bernoulli(0.5));
  }
  b = a;
  for (std::size_t i : {5u, 100u, 591u}) b.flip(i);
  EXPECT_EQ((a ^ b).popcount(), 3u);
}

TEST(BitVec, XorSelfIsZero) {
  Rng rng(2);
  BitVec a(100);
  for (std::size_t i = 0; i < 100; ++i) a.set(i, rng.bernoulli(0.5));
  EXPECT_FALSE((a ^ a).any());
}

TEST(BitVec, EqualityRequiresSameSize) {
  BitVec a(10), b(11);
  EXPECT_FALSE(a == b);
  BitVec c(10);
  EXPECT_TRUE(a == c);
  a.set(5, true);
  EXPECT_FALSE(a == c);
}

TEST(BitVec, BoundsChecked) {
  BitVec v(10);
  EXPECT_THROW(v.get(10), CheckFailure);
  EXPECT_THROW(v.set(11, true), CheckFailure);
  EXPECT_THROW(v.flip(99), CheckFailure);
  BitVec w(20);
  EXPECT_THROW(v ^= w, CheckFailure);
}

TEST(BitVec, HighWordBitsStayClean) {
  // Setting bits must not leak past size within the last word.
  BitVec v(65);
  v.set(64, true);
  EXPECT_EQ(v.popcount(), 1u);
  EXPECT_EQ(v.words().size(), 2u);
  EXPECT_EQ(v.words()[1], 1u);
}

TEST(BitVec, ResizedGrowsAndShrinksAcrossPartialWords) {
  Rng rng(11);
  BitVec v(130);
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.bernoulli(0.5));
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 100u, 129u, 130u, 131u, 200u}) {
    const BitVec r = v.resized(n);
    ASSERT_EQ(r.size(), n);
    std::size_t ones = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool want = i < v.size() && v.get(i);
      ASSERT_EQ(r.get(i), want) << "n=" << n << " bit " << i;
      ones += want ? 1 : 0;
    }
    EXPECT_EQ(r.popcount(), ones) << "n=" << n;  // no bits past size()
    BitVec bitwise(n);
    for (std::size_t i = 0; i < std::min(n, v.size()); ++i) {
      bitwise.set(i, v.get(i));
    }
    EXPECT_TRUE(r == bitwise) << "n=" << n;
  }
  EXPECT_TRUE(v.resized(130) == v);
  EXPECT_TRUE(v.resized(200).resized(130) == v);
}

TEST(BitVec, BytesRoundTripOffWordBoundary) {
  Rng rng(12);
  std::vector<std::uint8_t> bytes(13);  // 104 bits: 1 word + 40 bits
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  const BitVec v = BitVec::from_bytes(bytes);
  ASSERT_EQ(v.size(), 104u);
  std::size_t ones = 0;
  BitVec bitwise(104);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const bool want = (bytes[i / 8] >> (i % 8)) & 1;
    ASSERT_EQ(v.get(i), want) << "bit " << i;
    bitwise.set(i, want);
    ones += want ? 1 : 0;
  }
  EXPECT_EQ(v.popcount(), ones);
  EXPECT_TRUE(v == bitwise);
  EXPECT_EQ(v.to_bytes(13), bytes);
  EXPECT_EQ(v.to_bytes(5),
            std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 5));
  // Unpacking reads only the leading bytes of a longer vector...
  const BitVec longer = v.resized(109);
  EXPECT_EQ(longer.popcount(), ones);
  EXPECT_EQ(longer.to_bytes(13), bytes);
  // ...and never past its end.
  EXPECT_THROW(longer.to_bytes(14), CheckFailure);
  EXPECT_TRUE(BitVec::from_bytes({}) == BitVec());
}

}  // namespace
}  // namespace rd
