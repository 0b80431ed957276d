#include "faults/injector.h"

#include <fstream>
#include <mutex>
#include <sstream>

#include "common/check.h"
#include "common/env.h"

namespace rd::faults {

namespace {

// Per-class decision salts: distinct constants so the classes' streams
// are decorrelated even at identical keys.
constexpr std::uint64_t kSaltStuck = 0x5a5a0001d00dfeedull;
constexpr std::uint64_t kSaltSense = 0x5a5a0002d00dfeedull;
constexpr std::uint64_t kSaltExtraErr = 0x5a5a0003d00dfeedull;
constexpr std::uint64_t kSaltLwtVec = 0x5a5a0004d00dfeedull;
constexpr std::uint64_t kSaltLwtInd = 0x5a5a0005d00dfeedull;
constexpr std::uint64_t kSaltBch = 0x5a5a0006d00dfeedull;
constexpr std::uint64_t kSaltTrace = 0x5a5a0008d00dfeedull;
constexpr std::uint64_t kSaltWire = 0x5a5a0009d00dfeedull;

/// splitmix64 finalizer: the avalanche step used throughout the repo for
/// stable hashing of addresses.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t k1, std::uint64_t k2, std::uint64_t k3) {
  std::uint64_t h = mix64(k1);
  h = mix64(h ^ k2);
  return mix64(h ^ k3);
}

/// FNV-1a for raw bytes (frame payloads) and strings (trace paths).
std::uint64_t fnv1a(const char* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s) { return fnv1a(s.data(), s.size()); }

}  // namespace

FaultEngine::FaultEngine(FaultPlan plan) : plan_(std::move(plan)) {}

Rng FaultEngine::stream(std::uint64_t salt, std::uint64_t k1,
                        std::uint64_t k2, std::uint64_t k3) const {
  return Rng(plan_.seed ^ salt, mix(k1, k2, k3));
}

void FaultEngine::bump(FaultClass c, std::uint64_t n) const {
  counts_[static_cast<unsigned>(c)].fetch_add(n,
                                              std::memory_order_relaxed);
}

std::uint64_t FaultEngine::count(FaultClass c) const {
  return counts_[static_cast<unsigned>(c)].load(std::memory_order_relaxed);
}

std::uint64_t FaultEngine::total() const {
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.load(std::memory_order_relaxed);
  return sum;
}

std::optional<unsigned> FaultEngine::stuck_level(std::uint64_t line,
                                                 std::uint64_t cell) const {
  for (const StuckAddress& a : plan_.stuck_cells) {
    if (a.line == line && a.cell == cell) {
      bump(FaultClass::kStuckCell);
      return a.level;
    }
  }
  if (plan_.stuck_p > 0.0) {
    Rng s = stream(kSaltStuck, line, cell);
    if (s.bernoulli(plan_.stuck_p)) {
      bump(FaultClass::kStuckCell);
      return plan_.stuck_level;
    }
  }
  return std::nullopt;
}

double FaultEngine::sense_offset(std::uint64_t line, std::uint64_t cell,
                                 std::uint64_t serial) const {
  if (plan_.sense_p <= 0.0) return 0.0;
  Rng s = stream(kSaltSense, line, cell, serial);
  if (!s.bernoulli(plan_.sense_p)) return 0.0;
  bump(FaultClass::kSenseOffset);
  // Drift only pushes the metric up, and so does the injected transient:
  // a positive offset is the hostile direction for level readout.
  return plan_.sense_mag;
}

unsigned FaultEngine::extra_r_errors(std::uint64_t line, Ns now,
                                     unsigned ncells) const {
  if (plan_.sense_p <= 0.0) return 0;
  Rng s = stream(kSaltExtraErr, line, static_cast<std::uint64_t>(now.v));
  const unsigned n = s.binomial(ncells, plan_.sense_p);
  if (n > 0) bump(FaultClass::kSenseOffset, n);
  return n;
}

std::optional<unsigned> FaultEngine::lwt_vector_flip(std::uint64_t line,
                                                     Ns now,
                                                     unsigned k) const {
  RD_CHECK(k > 0);
  if (plan_.lwt_vec_p <= 0.0) return std::nullopt;
  Rng s = stream(kSaltLwtVec, line, static_cast<std::uint64_t>(now.v));
  if (!s.bernoulli(plan_.lwt_vec_p)) return std::nullopt;
  bump(FaultClass::kLwtVector);
  return static_cast<unsigned>(s.uniform_below(k));
}

std::optional<unsigned> FaultEngine::lwt_index_overwrite(std::uint64_t line,
                                                         Ns now,
                                                         unsigned k) const {
  RD_CHECK(k > 0);
  if (plan_.lwt_ind_p <= 0.0) return std::nullopt;
  Rng s = stream(kSaltLwtInd, line, static_cast<std::uint64_t>(now.v));
  if (!s.bernoulli(plan_.lwt_ind_p)) return std::nullopt;
  bump(FaultClass::kLwtIndex);
  return static_cast<unsigned>(s.uniform_below(k));
}

std::vector<unsigned> FaultEngine::bch_error_positions(
    std::uint64_t line, std::uint64_t serial,
    unsigned codeword_bits) const {
  if (plan_.bch_p <= 0.0) return {};
  Rng s = stream(kSaltBch, line, serial);
  if (!s.bernoulli(plan_.bch_p)) return {};
  RD_CHECK(codeword_bits >= plan_.bch_e);
  std::vector<unsigned> positions;
  positions.reserve(plan_.bch_e);
  while (positions.size() < plan_.bch_e) {
    const unsigned p =
        static_cast<unsigned>(s.uniform_below(codeword_bits));
    bool dup = false;
    for (unsigned q : positions) dup = dup || q == p;
    if (!dup) positions.push_back(p);
  }
  bump(FaultClass::kBchError);
  return positions;
}

bool FaultEngine::trace_short_read(const std::string& path, unsigned attempt,
                                   std::string& bytes) const {
  bool fire = attempt < plan_.trace_fail_reads;
  if (!fire && plan_.trace_p > 0.0) {
    Rng s = stream(kSaltTrace, fnv1a(path), attempt);
    fire = s.bernoulli(plan_.trace_p);
  }
  if (!fire || bytes.empty()) return false;
  bump(FaultClass::kTraceShortRead);
  // Model a short read: keep a prefix, cutting just after the last op
  // kind before the 2/3 mark so the final line is mid-token (a trace
  // parser must reject it rather than silently return fewer ops).
  std::size_t cut = bytes.size() * 2 / 3;
  for (std::size_t i = cut; i > 1; --i) {
    const char c = bytes[i - 1];
    if ((c == 'R' || c == 'W') && bytes[i - 2] == ' ') {
      cut = i;
      break;
    }
  }
  bytes.resize(cut);
  return true;
}

bool FaultEngine::wire_corrupt(char* bytes, std::size_t n,
                               std::uint64_t serial) const {
  if (plan_.wire_p <= 0.0 || n == 0) return false;
  Rng s = stream(kSaltWire, fnv1a(bytes, n), serial);
  if (!s.bernoulli(plan_.wire_p)) return false;
  bump(FaultClass::kWireCorrupt);
  // XOR with a nonzero mask: the payload always changes, so the CRC
  // always catches it — the fault never silently passes through.
  const std::size_t at = static_cast<std::size_t>(s.uniform_below(n));
  bytes[at] = static_cast<char>(
      bytes[at] ^ static_cast<char>(1 + s.uniform_below(255)));
  return true;
}

// ---------------------------------------------------- process engine ---

namespace {

std::unique_ptr<FaultEngine>& engine_slot() {
  static std::unique_ptr<FaultEngine> slot;
  return slot;
}

std::once_flag& engine_once() {
  static std::once_flag once;
  return once;
}

void init_engine_from_env() {
  const char* e = env_cstr("READDUO_FAULTS");
  if (e == nullptr || *e == '\0') return;
  std::string spec(e);
  // File form: when the value names a readable file, the spec lives there.
  if (std::ifstream f(spec); f) {
    std::ostringstream buf;
    buf << f.rdbuf();
    spec = buf.str();
  }
  FaultPlan plan = FaultPlan::parse(spec);
  if (plan.any()) {
    engine_slot() = std::make_unique<FaultEngine>(std::move(plan));
  }
}

}  // namespace

const FaultEngine* engine() {
  std::call_once(engine_once(), init_engine_from_env);
  return engine_slot().get();
}

void set_engine_for_test(std::unique_ptr<FaultEngine> e) {
  // Consume the one-time env parse first so it can never overwrite the
  // test's engine afterwards.
  std::call_once(engine_once(), init_engine_from_env);
  engine_slot() = std::move(e);
}

}  // namespace rd::faults
