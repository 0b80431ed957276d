#include "ecc/bch.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/check.h"

namespace rd::ecc {

using gf::Elem;
using gf::Field;
using gf::Poly;

namespace {

/// Slots of the syndrome array: S_1 .. S_2t at [1, 2t], slot 0 unused.
constexpr std::size_t kMaxSyndromes = 2 * BchCode::kMaxT + 1;
/// Berlekamp–Massey polynomial capacity: after iteration n the
/// connection polynomial has at most n + 2 coefficients, so 2t + 1
/// suffice; one spare.
constexpr std::size_t kMaxPoly = 2 * BchCode::kMaxT + 2;

/// x^parity * d(x) mod g(x) over the payload bits [0, data_bits) of
/// `data`, with an NW-word register and table rows left-aligned (the
/// register's top 8 coefficients are always the top byte of word NW - 1).
/// Data bit j is the coefficient of x^(parity + j), fed a byte at a time
/// from the highest power down. With the register r holding x^parity
/// times the bytes fed so far mod g, appending byte b gives
/// (r x^8 + b x^parity) mod g: r's top byte leaves as c(x) x^parity and
/// comes back, with b, through table row c = top ^ b, while the rest of
/// r shifts up 8. When parity < 8 the whole register sits in the top byte
/// and the shift clears it, so one loop serves every shape.
template <std::size_t NW>
void lfsr_remainder(const std::uint64_t* table, const std::uint64_t* data,
                    unsigned data_bits, std::uint64_t* reg) {
  auto byte_at = [data](unsigned k) -> unsigned {
    return static_cast<unsigned>(data[k >> 3] >> (8 * (k & 7))) & 0xffu;
  };
  // The top data_bits % 8 bits go first: from a zero register a chunk c
  // of fewer than 8 bits leaves exactly row c.
  const unsigned nbytes = data_bits / 8;
  const unsigned lead = data_bits % 8;
  const unsigned c0 = lead == 0 ? 0 : byte_at(nbytes) & ((1u << lead) - 1);
  std::uint64_t r[NW] = {};
  for (std::size_t w = 0; w < NW; ++w) r[w] = table[c0 * NW + w];
  for (unsigned k = nbytes; k-- > 0;) {
    const std::uint64_t* row =
        table + (static_cast<unsigned>(r[NW - 1] >> 56) ^ byte_at(k)) * NW;
    for (std::size_t w = NW - 1; w > 0; --w) {
      r[w] = ((r[w] << 8) | (r[w - 1] >> 56)) ^ row[w];
    }
    r[0] = (r[0] << 8) ^ row[0];
  }
  for (std::size_t w = 0; w < NW; ++w) reg[w] = r[w];
}

/// lfsr_remainder<1> .. lfsr_remainder<sizeof...(I)>, indexed by width - 1.
template <std::size_t... I>
constexpr std::array<decltype(&lfsr_remainder<1>), sizeof...(I)>
remainder_kernels(std::index_sequence<I...>) {
  return {&lfsr_remainder<I + 1>...};
}

}  // namespace

BchCode::BchCode(unsigned m, unsigned t, unsigned data_bits, KernelMode mode)
    : field_(m),
      t_(t),
      data_bits_(data_bits),
      mode_(resolve_kernel_mode(mode)) {
  RD_CHECK(t >= 1);
  RD_CHECK_MSG(t <= kMaxT, "BCH correction power above " << kMaxT);
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

  // Byte-wise LFSR table, left-aligned by `align` bits. Row 1 is
  // x^parity mod g = g without its leading term; row 2^b is row 2^(b-1)
  // times x mod g (shift up one, fold the bit leaving the top back in
  // through row 1); every other row is the XOR of the rows of its set bits.
  const std::size_t nw = (parity_bits_ + 63) / 64;
  RD_CHECK(nw <= kMaxParityWords);
  parity_words_ = nw;
  static constexpr auto kKernels =
      remainder_kernels(std::make_index_sequence<kMaxParityWords>{});
  remainder_kernel_ = kKernels[nw - 1];
  const unsigned align = static_cast<unsigned>(64 * nw) - parity_bits_;
  lfsr_.assign(256 * nw, 0);
  std::uint64_t* one = lfsr_.data() + nw;
  for (unsigned i = 0; i < parity_bits_; ++i) {
    const Elem c = gen_.coeff(i);
    RD_CHECK(c == 0 || c == 1);
    const unsigned bit = i + align;
    if (c != 0) one[bit >> 6] |= 1ull << (bit & 63);
  }
  for (unsigned b = 1; b < 8; ++b) {
    const std::uint64_t* prev = lfsr_.data() + (1u << (b - 1)) * nw;
    std::uint64_t* row = lfsr_.data() + (1u << b) * nw;
    const std::uint64_t carry = prev[nw - 1] >> 63;
    for (std::size_t k = nw; k-- > 0;) {
      row[k] = (prev[k] << 1) | (k > 0 ? prev[k - 1] >> 63 : 0);
      row[k] ^= one[k] & (0 - carry);
    }
  }
  for (unsigned c = 3; c < 256; ++c) {
    if ((c & (c - 1)) == 0) continue;
    const std::uint64_t* hi = lfsr_.data() + (c & (c - 1)) * nw;
    const std::uint64_t* lo = lfsr_.data() + (c & (0 - c)) * nw;
    std::uint64_t* row = lfsr_.data() + c * nw;
    for (std::size_t k = 0; k < nw; ++k) row[k] = hi[k] ^ lo[k];
  }

  if (mode_ != KernelMode::kReference) {
    // Position-major syndrome table: row `pos` holds the t_ odd-syndrome
    // contributions alpha^(pos * (2r + 1)) of that position, padded to a
    // multiple of 8 lanes with zeros (XOR identity); the even syndromes
    // follow from S_2k = S_k^2. Rows exist for the remainder's positions
    // [0, parity_bits) only. Built incrementally with reduced exponents,
    // so construction is one table lookup per entry.
    syn_stride_ = (static_cast<std::size_t>(t_) + 7) / 8 * 8;
    syn_pos_.assign(static_cast<std::size_t>(parity_bits_) * syn_stride_, 0);
    const std::uint32_t n = field_.order();
    std::vector<std::uint32_t> e(t_, 0);  // e[r] = pos * (2r + 1) mod n
    for (std::uint32_t pos = 0; pos < parity_bits_; ++pos) {
      Elem* row = syn_pos_.data() + pos * syn_stride_;
      for (unsigned r = 0; r < t_; ++r) {
        row[r] = field_.alpha_pow_reduced(e[r]);
        e[r] += 2 * r + 1;
        if (e[r] >= n) e[r] -= n;
      }
    }
    // z and z ^ 1 share c = z^2 + z; the first (smaller) z is kept. The
    // c left at 0 other than c = 0 itself are the trace-1 values, which
    // have no solution.
    quad_root_.assign(field_.size(), 0);
    for (Elem z = 2; z < field_.size(); ++z) {
      const Elem c = field_.sqr(z) ^ z;
      if (quad_root_[c] == 0) quad_root_[c] = static_cast<std::uint16_t>(z);
    }
  }
}

void BchCode::data_remainder(const std::vector<std::uint64_t>& words,
                             std::uint64_t* reg) const {
  remainder_kernel_(lfsr_.data(), words.data(), data_bits_, reg);
  // Undo the left alignment: shift the register down by `align` bits.
  const unsigned align =
      static_cast<unsigned>(64 * parity_words_) - parity_bits_;
  if (align == 0) return;
  for (std::size_t k = 0; k < parity_words_; ++k) {
    reg[k] >>= align;
    if (k + 1 < parity_words_) reg[k] |= reg[k + 1] << (64 - align);
  }
}

BitVec BchCode::parity(const BitVec& data) const {
  RD_CHECK(data.size() == data_bits_);
  std::uint64_t reg[kMaxParityWords] = {};
  data_remainder(data.words(), reg);
  BitVec out(parity_bits_);
  for (std::size_t k = 0; k < parity_words_; ++k) out.set_word(k, reg[k]);
  return out;
}

BitVec BchCode::encode(const BitVec& data) const {
  RD_CHECK(data.size() == data_bits_);
  std::uint64_t reg[kMaxParityWords] = {};
  data_remainder(data.words(), reg);
  // Systematic layout: the data words as they are, then the parity ORed
  // in at bit offset data_bits (straddling a word boundary unless that
  // offset is word-aligned).
  BitVec cw = data.resized(codeword_bits());
  const std::size_t base = data_bits_ >> 6;
  const unsigned shift = data_bits_ & 63;
  const std::vector<std::uint64_t>& out = cw.words();
  for (std::size_t k = 0; k < parity_words_; ++k) {
    cw.set_word(base + k, out[base + k] | (reg[k] << shift));
    if (shift != 0 && base + k + 1 < out.size()) {
      cw.set_word(base + k + 1,
                  out[base + k + 1] | (reg[k] >> (64 - shift)));
    }
  }
  return cw;
}

bool BchCode::syndromes_reference(const BitVec& word, Elem* s) const {
  std::fill_n(s, 2 * t_ + 1, 0);  // s[1..2t]; s[0] unused
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
    if (s[k] != 0) return false;
  }
  return true;
}

bool BchCode::syndromes_optimized(const BitVec& word, Elem* s) const {
  std::fill_n(s, 2 * t_ + 1, 0);  // s[1..2t]; s[0] unused
  // The received word's remainder mod g: re-encode its data part and XOR
  // in its parity (read at bit offset data_bits; the word's bits past
  // codeword_bits are zero). Zero means a codeword.
  std::uint64_t rem[kMaxParityWords] = {};
  data_remainder(word.words(), rem);
  const std::vector<std::uint64_t>& words = word.words();
  const std::size_t base = data_bits_ >> 6;
  const unsigned shift = data_bits_ & 63;
  std::uint64_t any = 0;
  for (std::size_t k = 0; k < parity_words_; ++k) {
    std::uint64_t v = words[base + k] >> shift;
    if (shift != 0 && base + k + 1 < words.size()) {
      v |= words[base + k + 1] << (64 - shift);
    }
    rem[k] ^= v;
    any |= rem[k];
  }
  if (any == 0) return true;
  // S_k = r(alpha^k) for the remainder r, since the word minus r is a
  // multiple of g and g(alpha^k) = 0 for k <= 2t. Odd syndromes, 8 at a
  // time: each set remainder bit XORs 8 lanes of its contiguous syn_pos_
  // row into a local accumulator, so lane j of block b ends up holding
  // S_(2(b + j) + 1). The zero padding of each row makes the last block's
  // unused lanes harmless.
  for (unsigned b = 0; b < t_; b += 8) {
    Elem acc[8] = {};
    for (std::size_t k = 0; k < parity_words_; ++k) {
      std::uint64_t w = rem[k];
      while (w != 0) {
        const std::size_t pos =
            k * 64 + static_cast<std::size_t>(std::countr_zero(w));
        w &= w - 1;
        const Elem* row = syn_pos_.data() + pos * syn_stride_ + b;
        for (unsigned j = 0; j < 8; ++j) acc[j] ^= row[j];
      }
    }
    for (unsigned j = 0; j < 8 && b + j < t_; ++j) {
      s[2 * (b + j) + 1] = acc[j];
    }
  }
  // Even syndromes from the Frobenius identity S_2k = S_k^2 (binary BCH);
  // increasing k keeps every dependency already filled. A nonzero
  // remainder has degree below deg g, so g cannot divide it and some
  // syndrome is nonzero.
  for (unsigned k = 2; k <= 2 * t_; k += 2) s[k] = field_.sqr(s[k / 2]);
  return false;
}

bool BchCode::syndromes(const BitVec& word, Elem* s) const {
  RD_CHECK(word.size() == codeword_bits());
  switch (mode_) {
    case KernelMode::kReference: return syndromes_reference(word, s);
    default: return syndromes_optimized(word, s);
  }
}

std::vector<Elem> BchCode::compute_syndromes(const BitVec& word) const {
  std::vector<Elem> s(2 * t_ + 1);
  syndromes(word, s.data());
  return s;
}

bool BchCode::is_codeword(const BitVec& codeword) const {
  Elem s[kMaxSyndromes] = {};
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

unsigned BchCode::chien_reference(const Elem* C, unsigned L,
                                  std::uint32_t* pos) const {
  // Error at polynomial position p iff C(alpha^-p) == 0; full-period scan
  // with per-term alpha_pow evaluation, stopping past L roots.
  unsigned found = 0;
  const std::uint32_t n_full = field_.order();
  for (std::uint32_t p = 0; p < n_full; ++p) {
    Elem acc = 0;
    for (unsigned i = 0; i <= L; ++i) {
      acc ^= field_.mul(
          C[i], field_.alpha_pow(-static_cast<std::int64_t>(p) *
                                 static_cast<std::int64_t>(i)));
    }
    if (acc == 0) {
      pos[found++] = p;
      if (found > L) break;
    }
  }
  return found;
}

unsigned BchCode::chien_optimized(const Elem* C, unsigned L,
                                  std::uint32_t* pos) const {
  // Incremental Chien: term i of C(alpha^-p) is alpha^(log C_i - p*i).
  // Keep each term's exponent reduced in [0, n) and step it by (n - i) per
  // position — one table lookup and one add per (term, position), no
  // multiplies. Roots at p >= codeword_bits() land in the shortened
  // (implicitly zero) region, where decode() fails regardless of which
  // roots it saw, so the scan stops at the codeword length; finding fewer
  // than L roots there signals the same failure. A degree-L locator has at
  // most L roots, so the scan also stops once all are found.
  const std::uint32_t n = field_.order();
  // Parallel arrays of the nonzero terms' (step, exponent).
  std::uint32_t step[kMaxT + 1] = {};
  std::uint32_t expo[kMaxT + 1] = {};
  unsigned live = 0;
  for (unsigned i = 0; i <= L; ++i) {
    if (C[i] == 0) continue;
    step[live] = n - i % n;
    expo[live] = field_.log(C[i]);
    ++live;
  }
  unsigned found = 0;
  const std::uint32_t scan = codeword_bits();
  for (std::uint32_t p = 0; p < scan; ++p) {
    Elem acc = 0;
    for (unsigned i = 0; i < live; ++i) {
      acc ^= field_.alpha_pow_reduced(expo[i]);
      std::uint32_t e = expo[i] + step[i];
      if (e >= n) e -= n;
      expo[i] = e;
    }
    if (acc == 0) {
      pos[found++] = p;
      if (found == L) break;
    }
  }
  return found;
}

unsigned BchCode::roots(const Elem* C, unsigned L, std::uint32_t* pos) const {
  if (mode_ == KernelMode::kReference) return chien_reference(C, L, pos);
  // The error locations X = alpha^p are the roots of the reversed
  // locator X^L + C_1 X^(L-1) + ... + C_L. Degree 1: X = C_1. Degree 2:
  // X = C_1 z turns X^2 + C_1 X + C_2 into z^2 + z = C_2 / C_1^2, whose
  // solutions z and z + 1 come from quad_root_. C_1 = 0 is a repeated
  // root, and a trace-1 right-hand side has none: both are found-count
  // failures, as the Chien scan would report them.
  if (L == 1) {
    pos[0] = field_.log(C[1]);
    return 1;
  }
  if (L == 2) {
    if (C[1] == 0) return 0;
    const Elem z = quad_root_[field_.div(C[2], field_.sqr(C[1]))];
    if (z == 0) return 0;
    pos[0] = field_.log(field_.mul(C[1], z));
    pos[1] = field_.log(field_.mul(C[1], z ^ 1));
    return 2;
  }
  return chien_optimized(C, L, pos);
}

BchDecodeResult BchCode::decode(BitVec& codeword) const {
  BchDecodeResult result;
  Elem s[kMaxSyndromes] = {};
  if (syndromes(codeword, s)) {
    result.corrected = true;
    result.num_corrected = 0;
    return result;
  }

  // Berlekamp–Massey over GF(2^m): find the minimal LFSR C(x) generating
  // the syndrome sequence. C, B and the saved copy of C live in fixed
  // arrays; c_len and b_len count their coefficients (C is zero past
  // c_len, B is only read below b_len).
  Elem buf[3][kMaxPoly] = {};
  Elem* C = buf[0];
  Elem* B = buf[1];
  Elem* T = buf[2];
  C[0] = 1;
  B[0] = 1;
  unsigned c_len = 1, b_len = 1;
  unsigned L = 0;
  unsigned shift = 1;
  Elem b = 1;
  for (unsigned n = 0; n < 2 * t_; ++n) {
    Elem d = s[n + 1];
    for (unsigned i = 1; i <= L; ++i) d ^= field_.mul(C[i], s[n + 1 - i]);
    if (d == 0) {
      ++shift;
      continue;
    }
    const bool grow = 2 * L <= n;
    const unsigned t_len = c_len;
    if (grow) std::copy_n(C, c_len, T);
    const Elem factor = field_.div(d, b);
    for (unsigned i = 0; i < b_len; ++i) {
      C[i + shift] ^= field_.mul(factor, B[i]);
    }
    c_len = std::max(c_len, b_len + shift);
    if (grow) {
      L = n + 1 - L;
      std::swap(B, T);
      b_len = t_len;
      b = d;
      shift = 1;
    } else {
      ++shift;
    }
  }
  unsigned locator_degree = c_len - 1;
  while (locator_degree > 0 && C[locator_degree] == 0) --locator_degree;

  if (L > t_ || locator_degree != L) {
    result.detected_uncorrectable = true;
    return result;
  }

  // Root finding, then the map from polynomial positions back to codeword
  // bit indices. A missing root or one in the shortened (implicitly zero)
  // region means decode failure; every position is checked before any bit
  // flips, so a failed decode leaves the word as received.
  std::uint32_t pos[kMaxT + 1] = {};
  if (roots(C, L, pos) != L) {
    result.detected_uncorrectable = true;
    return result;
  }
  for (unsigned i = 0; i < L; ++i) {
    if (pos[i] >= codeword_bits()) {
      result.detected_uncorrectable = true;
      return result;
    }
  }
  for (unsigned i = 0; i < L; ++i) {
    const std::size_t p = pos[i];
    codeword.flip(p < parity_bits_ ? data_bits_ + p : p - parity_bits_);
  }
  result.corrected = true;
  result.num_corrected = L;
  return result;
}

}  // namespace rd::ecc
