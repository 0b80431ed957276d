#include "ecc/bch.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/simd_kernels.h"

namespace rd::ecc {

using gf::Elem;
using gf::Field;
using gf::Poly;

namespace {
/// The SIMD syndrome kernel keeps all odd syndromes in registers: at most
/// 32 lanes (4 AVX2 accumulators). Larger t runs the scalar kernel on the
/// same table.
constexpr unsigned kSimdMaxT = 32;
}  // namespace

BchCode::BchCode(unsigned m, unsigned t, unsigned data_bits, KernelMode mode)
    : field_(m),
      t_(t),
      data_bits_(data_bits),
      mode_(resolve_kernel_mode(mode)) {
  RD_CHECK(t >= 1);
  // g(x) = lcm of minimal polynomials of alpha^1 .. alpha^2t. Since minimal
  // polynomials are either identical (same cyclotomic coset) or coprime,
  // the lcm is the product over distinct cosets.
  std::vector<std::uint32_t> seen_cosets;
  Poly g = Poly::constant(1);
  for (std::uint32_t s = 1; s <= 2 * t; ++s) {
    auto coset = cyclotomic_coset(field_, s);
    const std::uint32_t rep = *std::min_element(coset.begin(), coset.end());
    if (std::find(seen_cosets.begin(), seen_cosets.end(), rep) !=
        seen_cosets.end()) {
      continue;
    }
    seen_cosets.push_back(rep);
    g = Poly::mul(field_, g, minimal_polynomial(field_, s));
  }
  gen_ = g;
  parity_bits_ = static_cast<unsigned>(g.degree());
  RD_CHECK_MSG(data_bits_ + parity_bits_ <= field_.order(),
               "payload too large for GF(2^" << m << ") BCH");
  gen_mask_.assign((parity_bits_ + 63) / 64, 0);
  for (unsigned i = 0; i <= parity_bits_; ++i) {
    const Elem c = gen_.coeff(i);
    RD_CHECK(c == 0 || c == 1);
    if (c != 0 && i < parity_bits_) gen_mask_[i >> 6] |= 1ull << (i & 63);
  }

  if (mode_ != KernelMode::kReference) {
    // Position-major syndrome table: row `pos` holds the t_ odd-syndrome
    // contributions alpha^(pos * (2r + 1)) of that position, padded to a
    // multiple of 8 lanes with zeros (XOR identity); the even syndromes
    // follow from S_2k = S_k^2. Only the shortened positions
    // [0, codeword_bits) exist as rows — a received bit maps to
    // pos = parity + bit (data) or bit - data (parity), both < codeword
    // length. Built incrementally with reduced exponents, so construction
    // is one table lookup per entry.
    syn_stride_ = (static_cast<std::size_t>(t_) + 7) / 8 * 8;
    syn_pos_.assign(static_cast<std::size_t>(codeword_bits()) * syn_stride_,
                    0);
    const std::uint32_t n = field_.order();
    std::vector<std::uint32_t> e(t_, 0);  // e[r] = pos * (2r + 1) mod n
    for (std::uint32_t pos = 0; pos < codeword_bits(); ++pos) {
      Elem* row = syn_pos_.data() + pos * syn_stride_;
      for (unsigned r = 0; r < t_; ++r) {
        row[r] = field_.alpha_pow_reduced(e[r]);
        e[r] += 2 * r + 1;
        if (e[r] >= n) e[r] -= n;
      }
    }
  }
}

BitVec BchCode::parity(const BitVec& data) const {
  RD_CHECK(data.size() == data_bits_);
  // LFSR division of x^parity * d(x) by g(x), the register held in words
  // (register bit i is the coefficient of x^i). Feed data bits from the
  // highest power down (data bit j corresponds to x^(parity + j)): each
  // step shifts the register up one power and, when the data bit differs
  // from the bit leaving the top, XORs in g(x) without its leading term.
  // Bits shifted past the top only move further up, never back down, and
  // the output's set_word masks them off.
  const std::size_t nw = gen_mask_.size();
  const unsigned top = parity_bits_ - 1;
  std::vector<std::uint64_t> reg(nw, 0);
  const std::vector<std::uint64_t>& d = data.words();
  for (std::size_t j = data_bits_; j-- > 0;) {
    const std::uint64_t feedback =
        ((d[j >> 6] >> (j & 63)) ^ (reg[top >> 6] >> (top & 63))) & 1;
    for (std::size_t k = nw - 1; k > 0; --k) {
      reg[k] = (reg[k] << 1) | (reg[k - 1] >> 63);
    }
    reg[0] <<= 1;
    const std::uint64_t mask = 0 - feedback;
    for (std::size_t k = 0; k < nw; ++k) reg[k] ^= gen_mask_[k] & mask;
  }
  BitVec out(parity_bits_);
  for (std::size_t k = 0; k < nw; ++k) out.set_word(k, reg[k]);
  return out;
}

BitVec BchCode::encode(const BitVec& data) const {
  const BitVec p = parity(data);
  // Systematic layout: the data words as they are, then the parity ORed
  // in at bit offset data_bits (straddling a word boundary unless that
  // offset is word-aligned).
  BitVec cw = data.resized(codeword_bits());
  const std::size_t base = data_bits_ >> 6;
  const unsigned shift = data_bits_ & 63;
  const std::vector<std::uint64_t>& out = cw.words();
  for (std::size_t k = 0; k < p.words().size(); ++k) {
    const std::uint64_t pw = p.words()[k];
    cw.set_word(base + k, out[base + k] | (pw << shift));
    if (shift != 0 && base + k + 1 < out.size()) {
      cw.set_word(base + k + 1, out[base + k + 1] | (pw >> (64 - shift)));
    }
  }
  return cw;
}

bool BchCode::syndromes_reference(const BitVec& word,
                                  std::vector<Elem>& s) const {
  s.assign(2 * t_ + 1, 0);  // s[1..2t]; s[0] unused
  bool all_zero = true;
  // Polynomial position of bit: parity bit i -> x^i, data bit j ->
  // x^(parity + j).
  for (std::size_t bit = 0; bit < word.size(); ++bit) {
    if (!word.get(bit)) continue;
    const std::size_t pos =
        bit < data_bits_ ? parity_bits_ + bit : bit - data_bits_;
    for (unsigned k = 1; k <= 2 * t_; ++k) {
      s[k] ^= field_.alpha_pow(static_cast<std::int64_t>(pos) * k);
    }
  }
  for (unsigned k = 1; k <= 2 * t_; ++k) {
    if (s[k] != 0) {
      all_zero = false;
      break;
    }
  }
  return all_zero;
}

bool BchCode::syndromes_optimized(const BitVec& word,
                                  std::vector<Elem>& s) const {
  s.assign(2 * t_ + 1, 0);  // s[1..2t]; s[0] unused
  // Odd syndromes, 8 at a time: a word-parallel scan of the set bits
  // (zero words skipped whole) XORs 8 lanes of each bit's contiguous
  // syn_pos_ row into a local accumulator, so lane j of block b ends up
  // holding S_(2(b + j) + 1). The zero padding of each row makes the last
  // block's unused lanes harmless.
  const std::vector<std::uint64_t>& words = word.words();
  for (unsigned b = 0; b < t_; b += 8) {
    Elem acc[8] = {};
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
      std::uint64_t w = words[wi];
      while (w != 0) {
        const std::size_t bit =
            wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
        w &= w - 1;
        const std::size_t pos =
            bit < data_bits_ ? parity_bits_ + bit : bit - data_bits_;
        const Elem* row = syn_pos_.data() + pos * syn_stride_ + b;
        for (unsigned j = 0; j < 8; ++j) acc[j] ^= row[j];
      }
    }
    for (unsigned j = 0; j < 8 && b + j < t_; ++j) {
      s[2 * (b + j) + 1] = acc[j];
    }
  }
  // Even syndromes from the Frobenius identity S_2k = S_k^2 (binary BCH);
  // increasing k keeps every dependency already filled.
  for (unsigned k = 2; k <= 2 * t_; k += 2) s[k] = field_.sqr(s[k / 2]);
  for (unsigned k = 1; k <= 2 * t_; ++k) {
    if (s[k] != 0) return false;
  }
  return true;
}

bool BchCode::syndromes_vectorized(const BitVec& word,
                                   std::vector<Elem>& s) const {
  if (simd_level() != SimdLevel::kAvx2 || t_ > kSimdMaxT) {
    return syndromes_optimized(word, s);
  }
  // One XOR-accumulation pass over the set bits fills all odd syndromes
  // at once from the position-major table; evens follow by Frobenius.
  alignas(32) std::uint32_t acc[kSimdMaxT] = {};
  simd::bch_syndrome_acc_avx2(word.words().data(), word.size(), data_bits_,
                              parity_bits_, syn_pos_.data(), syn_stride_, acc);
  s.assign(2 * t_ + 1, 0);  // s[1..2t]; s[0] unused
  for (unsigned r = 0; r < t_; ++r) s[2 * r + 1] = acc[r];
  for (unsigned k = 2; k <= 2 * t_; k += 2) s[k] = field_.sqr(s[k / 2]);
  for (unsigned k = 1; k <= 2 * t_; ++k) {
    if (s[k] != 0) return false;
  }
  return true;
}

bool BchCode::syndromes(const BitVec& word, std::vector<Elem>& s) const {
  RD_CHECK(word.size() == codeword_bits());
  switch (mode_) {
    case KernelMode::kReference: return syndromes_reference(word, s);
    case KernelMode::kVectorized: return syndromes_vectorized(word, s);
    default: return syndromes_optimized(word, s);
  }
}

std::vector<Elem> BchCode::compute_syndromes(const BitVec& word) const {
  std::vector<Elem> s;
  syndromes(word, s);
  return s;
}

bool BchCode::is_codeword(const BitVec& codeword) const {
  std::vector<Elem> s;
  return syndromes(codeword, s);
}

BchDecodeResult BchCode::decode_verified(BitVec& codeword) const {
  BchDecodeResult result = decode(codeword);
  if (result.corrected && result.num_corrected > 0 &&
      !is_codeword(codeword)) {
    result.corrected = false;
    result.num_corrected = 0;
    result.detected_uncorrectable = true;
  }
  return result;
}

std::vector<std::size_t> BchCode::chien_reference(const std::vector<Elem>& C,
                                                  unsigned limit) const {
  // Error at polynomial position p iff C(alpha^-p) == 0; full-period scan
  // with per-term alpha_pow evaluation.
  std::vector<std::size_t> error_positions;
  const std::uint32_t n_full = field_.order();
  for (std::uint32_t p = 0; p < n_full; ++p) {
    Elem acc = 0;
    for (std::size_t i = 0; i < C.size(); ++i) {
      acc ^= field_.mul(
          C[i], field_.alpha_pow(-static_cast<std::int64_t>(p) *
                                 static_cast<std::int64_t>(i)));
    }
    if (acc == 0) {
      error_positions.push_back(p);
      if (error_positions.size() > limit) break;
    }
  }
  return error_positions;
}

std::vector<std::size_t> BchCode::chien_optimized(const std::vector<Elem>& C,
                                                  unsigned limit) const {
  // Incremental Chien: term i of C(alpha^-p) is alpha^(log C_i - p*i).
  // Keep each term's exponent reduced in [0, n) and step it by (n - i) per
  // position — one table lookup and one add per (term, position), no
  // multiplies. Roots at p >= codeword_bits() land in the shortened
  // (implicitly zero) region, where decode() fails regardless of which
  // roots it saw, so the scan stops at the codeword length; finding fewer
  // than `limit` roots there signals the same failure. A degree-L locator
  // has at most L = limit roots, so the scan also stops once all are found.
  std::vector<std::size_t> error_positions;
  const std::uint32_t n = field_.order();
  const std::size_t terms = C.size();
  // Parallel arrays of the nonzero terms' (step, exponent).
  std::vector<std::uint32_t> step(terms), expo(terms);
  std::size_t live = 0;
  for (std::size_t i = 0; i < terms; ++i) {
    if (C[i] == 0) continue;
    step[live] = n - static_cast<std::uint32_t>(i % n);
    expo[live] = field_.log(C[i]);
    ++live;
  }
  const std::uint32_t scan = static_cast<std::uint32_t>(codeword_bits());
  for (std::uint32_t p = 0; p < scan; ++p) {
    Elem acc = 0;
    for (std::size_t i = 0; i < live; ++i) {
      acc ^= field_.alpha_pow_reduced(expo[i]);
      std::uint32_t e = expo[i] + step[i];
      if (e >= n) e -= n;
      expo[i] = e;
    }
    if (acc == 0) {
      error_positions.push_back(p);
      if (error_positions.size() == limit) break;
    }
  }
  return error_positions;
}

std::vector<std::size_t> BchCode::chien_vectorized(const std::vector<Elem>& C,
                                                   unsigned limit) const {
  // Same incremental arithmetic as chien_optimized, 8 positions per step
  // via AVX2 gathers (see bch_chien_scan_avx2). A scalar host runs the
  // optimized scan; so does a locator too large for the kernel's
  // register-resident term cap.
  if (simd_level() != SimdLevel::kAvx2) return chien_optimized(C, limit);
  const std::uint32_t n = field_.order();
  const std::size_t terms = C.size();
  std::vector<std::uint32_t> step(terms), expo(terms);
  std::size_t live = 0;
  for (std::size_t i = 0; i < terms; ++i) {
    if (C[i] == 0) continue;
    step[live] = n - static_cast<std::uint32_t>(i % n);
    expo[live] = field_.log(C[i]);
    ++live;
  }
  if (live > 33 || limit == 0) return chien_optimized(C, limit);
  std::vector<std::size_t> error_positions(limit);
  const std::size_t found = simd::bch_chien_scan_avx2(
      field_.exp_table(), n, step.data(), expo.data(), live,
      static_cast<std::uint32_t>(codeword_bits()), limit,
      error_positions.data());
  error_positions.resize(found);
  return error_positions;
}

BchDecodeResult BchCode::decode(BitVec& codeword) const {
  BchDecodeResult result;
  std::vector<Elem> s;
  if (syndromes(codeword, s)) {
    result.corrected = true;
    result.num_corrected = 0;
    return result;
  }

  // Berlekamp–Massey over GF(2^m): find the minimal LFSR C(x) generating
  // the syndrome sequence.
  std::vector<Elem> C = {1};
  std::vector<Elem> B = {1};
  unsigned L = 0;
  unsigned shift = 1;
  Elem b = 1;
  auto coeff = [](const std::vector<Elem>& p, std::size_t i) -> Elem {
    return i < p.size() ? p[i] : 0;
  };
  for (unsigned n = 0; n < 2 * t_; ++n) {
    Elem d = s[n + 1];
    for (unsigned i = 1; i <= L; ++i) {
      d ^= field_.mul(coeff(C, i), s[n + 1 - i]);
    }
    if (d == 0) {
      ++shift;
    } else if (2 * L <= n) {
      std::vector<Elem> T = C;
      const Elem factor = field_.div(d, b);
      if (C.size() < B.size() + shift) C.resize(B.size() + shift, 0);
      for (std::size_t i = 0; i < B.size(); ++i) {
        C[i + shift] ^= field_.mul(factor, B[i]);
      }
      L = n + 1 - L;
      B = std::move(T);
      b = d;
      shift = 1;
    } else {
      const Elem factor = field_.div(d, b);
      if (C.size() < B.size() + shift) C.resize(B.size() + shift, 0);
      for (std::size_t i = 0; i < B.size(); ++i) {
        C[i + shift] ^= field_.mul(factor, B[i]);
      }
      ++shift;
    }
  }
  while (!C.empty() && C.back() == 0) C.pop_back();
  const unsigned locator_degree = static_cast<unsigned>(C.size()) - 1;

  if (L > t_ || locator_degree != L) {
    result.detected_uncorrectable = true;
    return result;
  }

  const std::vector<std::size_t> error_positions =
      mode_ == KernelMode::kReference
          ? chien_reference(C, L)
          : (mode_ == KernelMode::kVectorized ? chien_vectorized(C, L)
                                              : chien_optimized(C, L));

  if (error_positions.size() != L) {
    result.detected_uncorrectable = true;
    return result;
  }

  // Map polynomial positions back to codeword bit indices; a position in
  // the shortened (implicitly zero) region means decode failure. (The
  // optimized Chien never reports such positions; the reference scan can.)
  for (std::size_t pos : error_positions) {
    if (pos >= codeword_bits()) {
      result.detected_uncorrectable = true;
      return result;
    }
    const std::size_t bit =
        pos < parity_bits_ ? data_bits_ + pos : pos - parity_bits_;
    codeword.flip(bit);
  }
  result.corrected = true;
  result.num_corrected = L;
  return result;
}

}  // namespace rd::ecc
