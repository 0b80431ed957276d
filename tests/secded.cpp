#include "secded.h"

namespace rd::ecc {

namespace {

// Codeword layout: Hamming positions 1..71 with the 7 check bits at the
// power-of-two positions and data bits filling the rest; one overall
// (even) parity bit covers the entire codeword.

// Map data bit i (0..63) to its 1-based Hamming position (skipping powers
// of two). Computed once.
struct Layout {
  unsigned data_pos[64];
  Layout() {
    unsigned next = 3;  // first non-power-of-two position
    for (unsigned i = 0; i < 64; ++i) {
      while ((next & (next - 1)) == 0) ++next;  // skip powers of two
      data_pos[i] = next++;
    }
  }
};
const Layout kLayout;

unsigned parity_of(unsigned x) {
  return static_cast<unsigned>(__builtin_popcount(x)) & 1u;
}

unsigned parity64(std::uint64_t x) {
  return static_cast<unsigned>(__builtin_popcountll(x)) & 1u;
}

/// XOR of the Hamming positions of all set data bits.
unsigned hamming_syndrome_base(std::uint64_t data) {
  unsigned h = 0;
  for (unsigned i = 0; i < 64; ++i) {
    if ((data >> i) & 1u) h ^= kLayout.data_pos[i];
  }
  return h & 0x7Fu;
}

}  // namespace

std::uint8_t Secded7264::encode_checks(std::uint64_t data) {
  const unsigned h = hamming_syndrome_base(data);
  // Even parity over the whole codeword: data bits + stored check bits.
  const unsigned parity = parity64(data) ^ parity_of(h);
  return static_cast<std::uint8_t>(h | (parity << 7));
}

SecdedResult Secded7264::decode(std::uint64_t& data, std::uint8_t& checks) {
  SecdedResult r;
  const unsigned stored_h = checks & 0x7Fu;
  const unsigned stored_p = (checks >> 7) & 1u;
  const unsigned syndrome = hamming_syndrome_base(data) ^ stored_h;
  // Even parity: XOR of every received bit (data, check, parity) is 0 for
  // a clean or double-error word, 1 for any odd number of flips.
  const unsigned whole_parity =
      parity64(data) ^ parity_of(stored_h) ^ stored_p;

  if (syndrome == 0 && whole_parity == 0) {
    r.ok = true;
    return r;
  }
  if (whole_parity == 1) {
    // Odd number of flips: assume a single error; the syndrome locates it.
    if (syndrome == 0) {
      // The overall parity bit itself flipped.
      checks ^= 0x80u;
      r.ok = true;
      r.num_corrected = 1;
      return r;
    }
    if ((syndrome & (syndrome - 1)) == 0) {
      // Power-of-two position: a stored Hamming check bit flipped.
      checks = static_cast<std::uint8_t>(checks ^ syndrome);
      r.ok = true;
      r.num_corrected = 1;
      return r;
    }
    for (unsigned i = 0; i < 64; ++i) {
      if (kLayout.data_pos[i] == syndrome) {
        data ^= 1ull << i;
        r.ok = true;
        r.num_corrected = 1;
        return r;
      }
    }
    // Syndrome points outside the codeword: at least three flips.
    r.double_error = true;
    return r;
  }
  // Even number of flips with a nonzero syndrome: double error.
  r.double_error = true;
  return r;
}

}  // namespace rd::ecc
