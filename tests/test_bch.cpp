// Tests for the BCH encoder/decoder — the line ECC of the paper
// ((m=10, t=8) over 512-bit payloads) plus a parameter sweep.
#include "ecc/bch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace rd::ecc {
namespace {

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.5));
  return v;
}

/// Flip `k` distinct random bits.
void inject_errors(BitVec& v, unsigned k, Rng& rng) {
  std::vector<std::size_t> picked;
  while (picked.size() < k) {
    const std::size_t i = rng.uniform_below(v.size());
    bool dup = false;
    for (std::size_t p : picked) dup = dup || p == i;
    if (!dup) {
      picked.push_back(i);
      v.flip(i);
    }
  }
}

const BchCode& paper_code() {
  static const BchCode code(10, 8, 512);
  return code;
}

TEST(Bch8, GeometryMatchesPaper) {
  const BchCode& c = paper_code();
  EXPECT_EQ(c.data_bits(), 512u);
  EXPECT_EQ(c.parity_bits(), 80u);  // 8 errors x 10 bits
  EXPECT_EQ(c.codeword_bits(), 592u);
  EXPECT_EQ(c.design_distance(), 17u);
}

TEST(Bch8, EncodeProducesCodeword) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const BitVec cw = paper_code().encode(random_bits(rng, 512));
    EXPECT_TRUE(paper_code().is_codeword(cw));
  }
}

TEST(Bch8, SystematicLayout) {
  Rng rng(2);
  const BitVec data = random_bits(rng, 512);
  const BitVec cw = paper_code().encode(data);
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(cw.get(i), data.get(i));
  }
}

TEST(Bch8, GeneratorDividesEveryCodeword) {
  // The generator has binary coefficients and degree = parity bits.
  const gf::Poly& g = paper_code().generator();
  EXPECT_EQ(g.degree(), 80);
  EXPECT_EQ(g.coeff(0), 1u);   // x does not divide g
  EXPECT_EQ(g.coeff(80), 1u);  // monic
}

class Bch8Errors : public ::testing::TestWithParam<unsigned> {};

TEST_P(Bch8Errors, CorrectsUpToT) {
  const unsigned nerr = GetParam();
  Rng rng(100 + nerr);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec data = random_bits(rng, 512);
    BitVec cw = paper_code().encode(data);
    inject_errors(cw, nerr, rng);
    const BchDecodeResult res = paper_code().decode(cw);
    ASSERT_TRUE(res.corrected) << "errors=" << nerr;
    EXPECT_EQ(res.num_corrected, nerr);
    EXPECT_FALSE(res.detected_uncorrectable);
    for (std::size_t i = 0; i < 512; ++i) {
      ASSERT_EQ(cw.get(i), data.get(i)) << "bit " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ZeroToEight, Bch8Errors,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

class Bch8Detection : public ::testing::TestWithParam<unsigned> {};

TEST_P(Bch8Detection, NineToSeventeenErrorsNeverSilentlyPass) {
  // Beyond t the decoder must not return "corrected" with wrong data.
  // (Random >t patterns occasionally land within distance t of another
  // codeword — a miscorrection — but then the result is a codeword that
  // differs from the original; what must NEVER happen is the decoder
  // reporting success with the original data intact but errors remaining.)
  const unsigned nerr = GetParam();
  Rng rng(200 + nerr);
  unsigned detected = 0, miscorrected = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec data = random_bits(rng, 512);
    BitVec cw = paper_code().encode(data);
    inject_errors(cw, nerr, rng);
    const BchDecodeResult res = paper_code().decode(cw);
    if (res.detected_uncorrectable) {
      ++detected;
    } else {
      ASSERT_TRUE(res.corrected);
      // If the decoder claims success, the output must be a codeword.
      EXPECT_TRUE(paper_code().is_codeword(cw));
      bool matches = true;
      for (std::size_t i = 0; i < 512; ++i) {
        matches = matches && cw.get(i) == data.get(i);
      }
      if (!matches) ++miscorrected;
    }
  }
  // Random patterns this far beyond t are overwhelmingly detected.
  EXPECT_GE(detected + miscorrected, 1u);
  EXPECT_GE(detected, static_cast<unsigned>(trials) - 1);
}

INSTANTIATE_TEST_SUITE_P(BeyondT, Bch8Detection,
                         ::testing::Values(9u, 10u, 12u, 14u, 16u, 17u));

TEST(Bch8, ErrorsInParityRegionCorrected) {
  Rng rng(3);
  const BitVec data = random_bits(rng, 512);
  BitVec cw = paper_code().encode(data);
  cw.flip(512);  // first parity bit
  cw.flip(591);  // last parity bit
  const BchDecodeResult res = paper_code().decode(cw);
  ASSERT_TRUE(res.corrected);
  EXPECT_EQ(res.num_corrected, 2u);
  EXPECT_TRUE(paper_code().is_codeword(cw));
}

TEST(Bch8, BurstErrorsCorrected) {
  // 8 adjacent bit errors (one fully corrupted MLC cell region).
  Rng rng(4);
  const BitVec data = random_bits(rng, 512);
  BitVec cw = paper_code().encode(data);
  for (std::size_t i = 100; i < 108; ++i) cw.flip(i);
  const BchDecodeResult res = paper_code().decode(cw);
  ASSERT_TRUE(res.corrected);
  EXPECT_EQ(res.num_corrected, 8u);
  for (std::size_t i = 0; i < 512; ++i) EXPECT_EQ(cw.get(i), data.get(i));
}

struct CodeParams {
  unsigned m, t, data_bits;
};

class BchSweep : public ::testing::TestWithParam<CodeParams> {};

TEST_P(BchSweep, RoundTripAtFullCorrectionPower) {
  const auto [m, t, data_bits] = GetParam();
  const BchCode code(m, t, data_bits);
  EXPECT_LE(code.parity_bits(), m * t);
  Rng rng(m * 1000 + t);
  for (int trial = 0; trial < 5; ++trial) {
    const BitVec data = random_bits(rng, data_bits);
    BitVec cw = code.encode(data);
    inject_errors(cw, t, rng);
    const BchDecodeResult res = code.decode(cw);
    ASSERT_TRUE(res.corrected) << "m=" << m << " t=" << t;
    for (std::size_t i = 0; i < data_bits; ++i) {
      ASSERT_EQ(cw.get(i), data.get(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codes, BchSweep,
    ::testing::Values(CodeParams{4, 1, 7}, CodeParams{5, 2, 16},
                      CodeParams{6, 3, 32}, CodeParams{8, 4, 128},
                      CodeParams{10, 2, 512}, CodeParams{10, 8, 512},
                      CodeParams{10, 10, 512}, CodeParams{12, 8, 2048}));

TEST(Bch, ShorteningRejectsOversizedPayload) {
  EXPECT_THROW(BchCode(4, 2, 64), CheckFailure);  // 64 + 8 > 15
}

TEST(Bch, FuzzClassificationInvariants) {
  // For any random error count 0..25, the decoder must satisfy:
  //  - <= 8 errors: corrected, exact count reported, data restored;
  //  - > 8 errors: either flagged uncorrectable, or "miscorrected" to a
  //    different valid codeword (never success-with-garbage).
  Rng rng(600);
  for (int trial = 0; trial < 150; ++trial) {
    const BitVec data = random_bits(rng, 512);
    const BitVec clean = paper_code().encode(data);
    const unsigned nerr = static_cast<unsigned>(rng.uniform_below(26));
    BitVec cw = clean;
    inject_errors(cw, nerr, rng);
    const BitVec received = cw;
    const BchDecodeResult res = paper_code().decode(cw);
    if (nerr <= 8) {
      ASSERT_TRUE(res.corrected) << "nerr=" << nerr;
      ASSERT_EQ(res.num_corrected, nerr);
      ASSERT_TRUE(cw == clean);
    } else if (res.corrected) {
      // Possible miscorrection: the output must still be a codeword and
      // at most t flips away from the received word.
      ASSERT_TRUE(paper_code().is_codeword(cw));
      ASSERT_LE((cw ^ received).popcount(), 8u);
    } else {
      ASSERT_TRUE(res.detected_uncorrectable);
      ASSERT_TRUE(cw == received);  // untouched on failure
    }
  }
}

TEST(Bch, DecodePreservesCleanWord) {
  Rng rng(5);
  const BitVec data = random_bits(rng, 512);
  BitVec cw = paper_code().encode(data);
  const BitVec before = cw;
  const BchDecodeResult res = paper_code().decode(cw);
  EXPECT_TRUE(res.corrected);
  EXPECT_EQ(res.num_corrected, 0u);
  EXPECT_TRUE(cw == before);
}

/// Codes whose word layout stresses the word-level encoder and the
/// position-major syndrome table: payloads off a word or byte boundary,
/// parity in one word, just past one (70 bits) and over several, an odd
/// 645-bit codeword (t = 17), t = 32 and 33 (four and five blocks of 8
/// odd syndromes), and parity shorter than a byte.
class BchOracle : public ::testing::TestWithParam<CodeParams> {};

/// c(x) mod g(x) over GF(2) by schoolbook long division, with parity bit
/// i as the coefficient of x^i and data bit j of x^(parity + j).
bool generator_divides(const BchCode& code, const BitVec& cw) {
  const unsigned p = code.parity_bits();
  std::vector<std::uint8_t> c(code.codeword_bits());
  for (unsigned i = 0; i < p; ++i) c[i] = cw.get(code.data_bits() + i);
  for (unsigned j = 0; j < code.data_bits(); ++j) c[p + j] = cw.get(j);
  for (std::size_t deg = c.size(); deg-- > p;) {
    if (c[deg] == 0) continue;
    for (unsigned i = 0; i <= p; ++i) {
      c[deg - p + i] ^= static_cast<std::uint8_t>(code.generator().coeff(i));
    }
  }
  for (unsigned i = 0; i < p; ++i) {
    if (c[i] != 0) return false;
  }
  return true;
}

TEST_P(BchOracle, EncoderAndEveryTierAgreeWithTheDefinition) {
  const auto [m, t, data_bits] = GetParam();
  const BchCode ref(m, t, data_bits, KernelMode::kReference);
  const BchCode opt(m, t, data_bits, KernelMode::kOptimized);
  Rng rng(m * 7919 + t * 101 + data_bits);
  for (int trial = 0; trial < 12; ++trial) {
    const BitVec data = random_bits(rng, data_bits);
    const BitVec cw = opt.encode(data);
    ASSERT_EQ(cw.size(), data_bits + ref.parity_bits());
    ASSERT_TRUE(ref.encode(data) == cw);
    for (unsigned i = 0; i < data_bits; ++i) {
      ASSERT_EQ(cw.get(i), data.get(i)) << "systematic bit " << i;
    }
    for (gf::Elem e : ref.compute_syndromes(cw)) ASSERT_EQ(e, 0u);
    ASSERT_TRUE(generator_divides(ref, cw));

    BitVec rx = cw;
    inject_errors(rx, t, rng);
    const std::vector<gf::Elem> s = ref.compute_syndromes(rx);
    ASSERT_TRUE(opt.compute_syndromes(rx) == s);
    for (const BchCode* code : {&ref, &opt}) {
      BitVec fixed = rx;
      const BchDecodeResult res = code->decode(fixed);
      ASSERT_TRUE(res.corrected) << "mode "
                                 << static_cast<int>(code->kernel_mode());
      ASSERT_EQ(res.num_corrected, t);
      ASSERT_TRUE(fixed == cw);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BchOracle,
    ::testing::Values(CodeParams{10, 8, 512}, CodeParams{10, 8, 500},
                      CodeParams{10, 17, 480}, CodeParams{10, 32, 512},
                      CodeParams{10, 33, 480},
                      CodeParams{6, 2, 20}, CodeParams{10, 7, 500},
                      CodeParams{4, 1, 7}),
    [](const ::testing::TestParamInfo<CodeParams>& info) {
      return "m" + std::to_string(info.param.m) + "_t" +
             std::to_string(info.param.t) + "_d" +
             std::to_string(info.param.data_bits);
    });

TEST(Bch, OracleShapesHaveTheExpectedParity) {
  EXPECT_EQ(BchCode(10, 17, 480).parity_bits(), 165u);  // odd codeword
  EXPECT_EQ(BchCode(10, 7, 500).parity_bits(), 70u);    // just past a word
  EXPECT_EQ(BchCode(4, 1, 7).parity_bits(), 4u);        // under a byte
}

/// The codeword `cw` plus the parity-only pattern whose syndromes are the
/// power sums of the roots of the locator 1 + C_1 x + C_2 x^2: S_0 = 0,
/// S_1 = C_1, S_j = C_1 S_(j-1) + C_2 S_(j-2) (C_2 = 0 gives the single
/// root C_1). For roots alpha^q the pattern is the sum of x^q mod g(x),
/// whatever q is, and one exists for any locator: with parity = m * t the
/// odd syndromes of the parity bits are a bijection onto GF(2^m)^t. Solved
/// over GF(2) against the syndromes of single parity bits.
BitVec with_locator(const BchCode& code, const BitVec& cw, gf::Elem c1,
                    gf::Elem c2) {
  const gf::Field& f = code.field();
  const unsigned t = code.t(), m = f.m(), p = code.parity_bits();
  EXPECT_EQ(p, m * t);
  std::vector<gf::Elem> target(2 * t + 1, 0);
  target[1] = c1;
  for (unsigned j = 2; j <= 2 * t; ++j) {
    target[j] = f.mul(c1, target[j - 1]) ^ f.mul(c2, target[j - 2]);
  }
  // Row r * m + b is bit b of odd syndrome S_(2r+1): an equation over the
  // p parity bits (columns [0, p)) with its right-hand side in column p.
  std::vector<std::vector<std::uint8_t>> rows(
      p, std::vector<std::uint8_t>(p + 1, 0));
  for (unsigned i = 0; i <= p; ++i) {
    std::vector<gf::Elem> s = target;
    if (i < p) {
      BitVec unit(code.codeword_bits());
      unit.set(code.data_bits() + i, true);
      s = code.compute_syndromes(unit);
    }
    for (unsigned r = 0; r < t; ++r) {
      for (unsigned b = 0; b < m; ++b) {
        rows[r * m + b][i] = (s[2 * r + 1] >> b) & 1;
      }
    }
  }
  for (unsigned col = 0; col < p; ++col) {  // Gauss–Jordan
    unsigned piv = col;
    while (piv < p && rows[piv][col] == 0) ++piv;
    if (piv == p) {
      ADD_FAILURE() << "singular at column " << col;
      return cw;
    }
    std::swap(rows[col], rows[piv]);
    for (unsigned r = 0; r < p; ++r) {
      if (r == col || rows[r][col] == 0) continue;
      for (unsigned k = col; k <= p; ++k) rows[r][k] ^= rows[col][k];
    }
  }
  BitVec rx = cw;
  for (unsigned i = 0; i < p; ++i) {
    if (rows[i][p] != 0) rx.flip(code.data_bits() + i);
  }
  EXPECT_TRUE(code.compute_syndromes(rx) == target);
  return rx;
}

/// Tr(c) = c + c^2 + c^4 + ... + c^(2^(m-1)), which is 0 or 1.
gf::Elem trace(const gf::Field& f, gf::Elem c) {
  gf::Elem sum = 0;
  for (unsigned i = 0; i < f.m(); ++i, c = f.sqr(c)) sum ^= c;
  return sum;
}

const BchCode& paper_code_in(KernelMode mode) {
  static const BchCode ref(10, 8, 512, KernelMode::kReference);
  static const BchCode opt(10, 8, 512, KernelMode::kOptimized);
  return mode == KernelMode::kReference ? ref : opt;
}

/// Decodes `rx` in both tiers and expects detected_uncorrectable with the
/// word left as received: no miscorrection and no partial fix.
void expect_detected_in_both_tiers(const BitVec& rx, const std::string& what) {
  for (KernelMode mode : {KernelMode::kReference, KernelMode::kOptimized}) {
    BitVec w = rx;
    const BchDecodeResult res = paper_code_in(mode).decode(w);
    EXPECT_TRUE(res.detected_uncorrectable)
        << what << ", mode " << static_cast<int>(mode);
    EXPECT_FALSE(res.corrected) << what << ", mode " << static_cast<int>(mode);
    EXPECT_TRUE(w == rx) << what << ", mode " << static_cast<int>(mode);
  }
}

/// Decodes `rx` in both tiers and expects exactly the data bits `flips`
/// corrected (a positive control for the constructions above).
void expect_corrected_in_both_tiers(const BitVec& rx,
                                    const std::vector<std::size_t>& flips) {
  BitVec want = rx;
  for (std::size_t b : flips) want.flip(b);
  for (KernelMode mode : {KernelMode::kReference, KernelMode::kOptimized}) {
    BitVec w = rx;
    const BchDecodeResult res = paper_code_in(mode).decode(w);
    ASSERT_TRUE(res.corrected) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(res.num_corrected, flips.size());
    EXPECT_TRUE(w == want) << "mode " << static_cast<int>(mode);
  }
}

// The optimized tier solves degree-1 and degree-2 locators in closed form
// over the whole field, so a root in the shortened region (polynomial
// position >= 592, no bit of the word) or a locator without roots must
// still fail the decode, as the Chien scans report it. Each received word
// differs from a codeword in parity bits only; the positive controls put
// the root at position 591 (data bit 511) instead.
TEST(BchRoots, SingleRootInTheShortenedRegionIsDetected) {
  const BchCode& code = paper_code();
  const gf::Field& f = code.field();
  Rng rng(0x5107);
  const BitVec cw = code.encode(random_bits(rng, 512));
  for (std::uint32_t q : {592u, 593u, 800u, 1022u}) {
    expect_detected_in_both_tiers(with_locator(code, cw, f.alpha_pow(q), 0),
                                  "root at " + std::to_string(q));
  }
  expect_corrected_in_both_tiers(with_locator(code, cw, f.alpha_pow(591), 0),
                                 {511});
}

TEST(BchRoots, OneOfTwoRootsInTheShortenedRegionIsDetected) {
  const BchCode& code = paper_code();
  const gf::Field& f = code.field();
  Rng rng(0x5108);
  const BitVec cw = code.encode(random_bits(rng, 512));
  // Roots X1 = alpha^q1 in the word and X2 = alpha^q2: C_1 = X1 + X2,
  // C_2 = X1 X2. q1 = 5 is parity bit 5, q1 = 300 data bit 220.
  for (std::uint32_t q1 : {5u, 300u}) {
    for (std::uint32_t q2 : {592u, 700u, 1022u}) {
      const gf::Elem x1 = f.alpha_pow(q1), x2 = f.alpha_pow(q2);
      expect_detected_in_both_tiers(
          with_locator(code, cw, x1 ^ x2, f.mul(x1, x2)),
          "roots at " + std::to_string(q1) + ", " + std::to_string(q2));
    }
  }
  const gf::Elem x1 = f.alpha_pow(300), x2 = f.alpha_pow(591);
  expect_corrected_in_both_tiers(with_locator(code, cw, x1 ^ x2, f.mul(x1, x2)),
                                 {220, 511});
}

TEST(BchRoots, QuadraticWithoutRootsIsDetected) {
  // z^2 + z = C_2 / C_1^2 has no solution in GF(2^10) exactly when its
  // trace is 1; the locator's roots then lie in GF(2^20), outside every
  // position.
  const BchCode& code = paper_code();
  const gf::Field& f = code.field();
  Rng rng(0x5109);
  const BitVec cw = code.encode(random_bits(rng, 512));
  unsigned cases = 0;
  for (gf::Elem c = 1; c < f.size() && cases < 6; c += 31) {
    if (trace(f, c) != 1) continue;
    for (std::uint32_t e : {0u, 411u}) {
      const gf::Elem c1 = f.alpha_pow(e);
      expect_detected_in_both_tiers(
          with_locator(code, cw, c1, f.mul(c, f.sqr(c1))),
          "trace-1 c=" + std::to_string(c) + " C1=alpha^" +
              std::to_string(e));
    }
    ++cases;
  }
  EXPECT_EQ(cases, 6u);
}

TEST(BchRoots, RepeatedRootHasZeroSyndromes) {
  // C_1 = 0 (X1 = X2) has power sums S_j = 2 X^j = 0: a received word
  // never yields a degree-2 locator with a repeated root, and the closed
  // form's C_1 = 0 guard only keeps its division defined. Berlekamp–Massey
  // on binary syndromes keeps C_1 = S_1, and S_1 = 0 with any nonzero
  // syndrome makes the locator degree at least 3.
  const BchCode& code = paper_code();
  const gf::Field& f = code.field();
  Rng rng(0x510a);
  const BitVec cw = code.encode(random_bits(rng, 512));
  const BitVec rx = with_locator(code, cw, 0, f.alpha_pow(77));
  EXPECT_TRUE(rx == cw);
  expect_corrected_in_both_tiers(rx, {});
}

/// FNV-1a over 64-bit values, for pinning whole encoder/syndrome outputs.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

// Pinned before the word-level encoder and the position-major syndrome
// table: the encoder's codewords and every tier's syndromes must keep
// these digests bit for bit.
TEST(BchPin, EncodeAndSyndromesPinned) {
  Rng rng(0x9e11);
  Digest enc;
  std::vector<BitVec> corrupted;
  for (int i = 0; i < 64; ++i) {
    const BitVec cw = paper_code().encode(random_bits(rng, 512));
    for (std::uint64_t w : cw.words()) enc.add(w);
    BitVec bad = cw;
    inject_errors(bad, static_cast<unsigned>(i % 20), rng);
    corrupted.push_back(bad);
  }
  EXPECT_EQ(enc.h, 0xfc07b3c612bf0515ull);
  for (KernelMode mode : {KernelMode::kReference, KernelMode::kOptimized}) {
    const BchCode code(10, 8, 512, mode);
    Digest syn;
    for (const BitVec& w : corrupted) {
      for (gf::Elem e : code.compute_syndromes(w)) syn.add(e);
    }
    EXPECT_EQ(syn.h, 0xbfe07e11e88c1035ull) << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace rd::ecc
