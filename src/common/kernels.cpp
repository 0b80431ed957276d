#include "common/kernels.h"

#include <atomic>
#include <cstring>
#include <mutex>

#include "common/check.h"
#include "common/env.h"
#include "common/simd_kernels.h"

namespace rd {

KernelMode kernels_mode() {
  static std::once_flag once;
  static KernelMode mode = KernelMode::kOptimized;
  std::call_once(once, [] {
    const char* e = env_cstr("READDUO_KERNELS");
    if (e == nullptr) return;
    if (std::strcmp(e, "reference") == 0) {
      mode = KernelMode::kReference;
    } else if (std::strcmp(e, "optimized") == 0) {
      mode = KernelMode::kOptimized;
    } else if (std::strcmp(e, "vector") == 0) {
      mode = KernelMode::kVectorized;
    } else {
      // Strict parse: a typo must not silently benchmark the wrong path.
      RD_CHECK_MSG(false, "READDUO_KERNELS must be 'reference', "
                          "'optimized' or 'vector', got '" << e << "'");
    }
  });
  return mode;
}

namespace {

/// What the host CPU supports, capped by what this binary compiled in.
SimdLevel detect_simd_level() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (simd::have_avx2_kernels() && __builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

/// The resolved level, stored relaxed-atomically so the test override can
/// swap it after detection without a data race.
std::atomic<SimdLevel>& simd_level_storage() {
  static std::atomic<SimdLevel> level{detect_simd_level()};
  return level;
}

}  // namespace

SimdLevel simd_level() {
  return simd_level_storage().load(std::memory_order_relaxed);
}

void set_simd_level_for_testing(SimdLevel level) {
  const SimdLevel detected = detect_simd_level();
  RD_CHECK_MSG(level <= detected,
               "cannot force a SIMD level above what this build/host "
               "supports ('" << simd_level_name(detected) << "')");
  simd_level_storage().store(level, std::memory_order_relaxed);
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "scalar";
}

}  // namespace rd
