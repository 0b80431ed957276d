// (72, 64) Hamming SECDED, the ECC the TLC baseline attaches per 64-bit
// word (Section V-C of the paper): a test-side reference codec.
//
// The simulator models the TLC baseline only as a density (the constant
// 384 cells per line, DESIGN.md), so no program links this; test_secded
// and test_properties check the code itself.
#pragma once

#include <cstdint>

namespace rd::ecc {

/// Outcome of a SECDED decode.
struct SecdedResult {
  /// True unless a double error was detected.
  bool ok = false;
  /// 0 or 1 corrections applied when ok.
  unsigned num_corrected = 0;
  /// True when a (detectable, uncorrectable) double error was seen.
  bool double_error = false;
};

/// (72, 64) extended Hamming code: 64 data bits, 7 Hamming check bits and
/// one overall parity bit. Corrects single errors, detects double errors.
class Secded7264 {
 public:
  static constexpr unsigned kDataBits = 64;
  static constexpr unsigned kCodeBits = 72;

  /// Compute the 8 check bits for a 64-bit payload (low 8 bits of return).
  static std::uint8_t encode_checks(std::uint64_t data);

  /// Decode a received (data, checks) pair in place.
  static SecdedResult decode(std::uint64_t& data, std::uint8_t& checks);
};

}  // namespace rd::ecc
