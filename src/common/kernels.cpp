#include "common/kernels.h"

#include <cstring>
#include <mutex>

#include "common/check.h"
#include "common/env.h"

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
    } else {
      // Strict parse: a typo must not silently benchmark the wrong path.
      RD_CHECK_MSG(false, "READDUO_KERNELS must be 'reference' or "
                          "'optimized', got '" << e << "'");
    }
  });
  return mode;
}

KernelMode resolve_kernel_mode(KernelMode mode) {
  RD_CHECK_MSG(mode != KernelMode::kVectorized,
               "KernelMode::kVectorized is retired: use kReference or "
               "kOptimized");
  return mode == KernelMode::kAuto ? kernels_mode() : mode;
}

}  // namespace rd
