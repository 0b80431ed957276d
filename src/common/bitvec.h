// Fixed-size dynamic bit vector used for memory-line payloads and codewords.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace rd {

/// A vector of bits with word-level XOR, popcount, copy and byte packing.
/// Size is fixed at construction (memory lines / codewords never resize;
/// resized() makes a new vector).
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  std::size_t size() const { return nbits_; }

  bool get(std::size_t i) const {
    RD_CHECK(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i, bool v) {
    RD_CHECK(i < nbits_);
    const std::uint64_t mask = 1ull << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void flip(std::size_t i) {
    RD_CHECK(i < nbits_);
    words_[i >> 6] ^= 1ull << (i & 63);
  }

  /// XOR with another vector of identical size.
  BitVec& operator^=(const BitVec& o) {
    RD_CHECK(nbits_ == o.nbits_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= o.words_[w];
    return *this;
  }

  friend BitVec operator^(BitVec a, const BitVec& b) {
    a ^= b;
    return a;
  }

  /// Number of set bits.
  std::size_t popcount() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  bool any() const {
    for (std::uint64_t w : words_) if (w != 0) return true;
    return false;
  }

  friend bool operator==(const BitVec& a, const BitVec& b) {
    return a.nbits_ == b.nbits_ && a.words_ == b.words_;
  }

  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Overwrite 64-bit word `w` (bits [64w, 64w + 64)) wholesale — the
  /// fast-packing counterpart of 64 set() calls for batched producers
  /// (pcm::pack_cells, the BCH encoder). Bits past size() in
  /// the last word are masked off, preserving the all-zero-tail invariant
  /// popcount() and operator== rely on.
  void set_word(std::size_t w, std::uint64_t v) {
    RD_CHECK(w < words_.size());
    words_[w] = v;
    if (w == words_.size() - 1) mask_tail();
  }

  /// A copy holding the first min(size(), nbits) bits of this one, zero
  /// extended to `nbits`: padding a codeword to a cell boundary, or
  /// dropping the pad again. Copies whole words.
  BitVec resized(std::size_t nbits) const {
    BitVec out(nbits);
    const std::size_t n = std::min(words_.size(), out.words_.size());
    std::copy_n(words_.begin(), n, out.words_.begin());
    out.mask_tail();
    return out;
  }

  /// Pack `bytes` little-endian: bit i is bit i % 8 of bytes[i / 8].
  static BitVec from_bytes(const std::vector<std::uint8_t>& bytes) {
    BitVec out(bytes.size() * 8);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      out.words_[i >> 3] |= static_cast<std::uint64_t>(bytes[i])
                            << (8 * (i & 7));
    }
    return out;
  }

  /// The first `nbytes` bytes in from_bytes() order. Requires
  /// 8 * nbytes <= size().
  std::vector<std::uint8_t> to_bytes(std::size_t nbytes) const {
    RD_CHECK(nbytes * 8 <= nbits_);
    std::vector<std::uint8_t> out(nbytes);
    for (std::size_t i = 0; i < nbytes; ++i) {
      out[i] = static_cast<std::uint8_t>(words_[i >> 3] >> (8 * (i & 7)));
    }
    return out;
  }

 private:
  /// Clear the bits past size() in the last word.
  void mask_tail() {
    if ((nbits_ & 63) != 0) words_.back() &= (1ull << (nbits_ & 63)) - 1;
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rd
