// Strict `--name=value` parsing shared by readduo_sim, readduo_load and
// readduo_serve. A malformed value is reported on stderr as
// "<flag>: expected ..., got '<value>'" and the tool exits 2; no tool
// runs with a silently defaulted, truncated or wrapped value.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace rd::cli {

/// Upper bounds of the service tools' --shards (one simulated chip each)
/// and --clients (one thread and socket each).
inline constexpr std::uint64_t kMaxShards = 1024;
inline constexpr std::uint64_t kMaxClients = 256;

/// True when `arg` is `<name>=<value>`; copies the value into `out`.
inline bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    out = arg + n + 1;
    return true;
  }
  return false;
}

/// Parse `value` of numeric flag `flag` into `out`: base-10 digits only
/// (no sign, space or trailing text) and within [lo, hi]. Prints why and
/// returns false otherwise.
inline bool parse_count(const char* flag, const std::string& value,
                        std::uint64_t lo, std::uint64_t hi,
                        std::uint64_t& out) {
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr,
                 "%s: expected a base-10 integer in [%llu, %llu], got '%s'\n",
                 flag, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi), value.c_str());
    return false;
  }
  out = v;
  return true;
}

/// Parse `value` of real-valued flag `flag` into `out`: an unsigned
/// decimal (leading digit, optional fraction and exponent; no sign,
/// space, hex or trailing text), finite, within [lo, hi] — or (lo, hi]
/// when `lo_open`. Prints why and returns false otherwise.
inline bool parse_real(const char* flag, const std::string& value, double lo,
                       double hi, bool lo_open, double& out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  const bool well_formed =
      !value.empty() && value[0] >= '0' && value[0] <= '9' &&
      value.find_first_not_of("0123456789.eE+-") == std::string::npos &&
      end == value.c_str() + value.size() && std::isfinite(v);
  if (!well_formed || (lo_open ? v <= lo : v < lo) || v > hi) {
    std::fprintf(stderr, "%s: expected a decimal in %c%g, %g], got '%s'\n",
                 flag, lo_open ? '(' : '[', lo, hi, value.c_str());
    return false;
  }
  out = v;
  return true;
}

/// One integer flag of a tool's table: `--name=<n>` into *out, in [lo, hi].
struct CountFlag {
  const char* name;
  std::uint64_t lo, hi;
  std::uint64_t* out;
};

/// Outcome of matching one argument against a flag table.
enum class Match { kNone, kParsed, kBad };

/// Match `arg` against `flags`: kNone if it names none of them, kBad
/// (already reported) if its value is malformed, kParsed otherwise.
template <std::size_t N>
Match parse_counts(const char* arg, const CountFlag (&flags)[N]) {
  std::string value;
  for (const CountFlag& f : flags) {
    if (!parse_flag(arg, f.name, value)) continue;
    return parse_count(f.name, value, f.lo, f.hi, *f.out) ? Match::kParsed
                                                          : Match::kBad;
  }
  return Match::kNone;
}

}  // namespace rd::cli
