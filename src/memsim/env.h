// Glue: derive the SchemeEnv a scheme needs from a workload + system
// configuration, so every bench/example builds it the same way.
#pragma once

#include "config/loader.h"
#include "pcm/params.h"
#include "readduo/scheme_base.h"
#include "trace/workload.h"

namespace rd::memsim {

/// Build the scheme environment for running `w` on a system with the given
/// CPU parameters. The per-core write rate assumes IPC 1 when unstalled —
/// a deliberate slight over-estimate that errs toward younger lines.
inline readduo::SchemeEnv make_scheme_env(const trace::Workload& w,
                                          const pcm::CpuParams& cpu,
                                          std::uint64_t seed) {
  readduo::SchemeEnv env;
  // Device-owned parameters come from the process-wide device selection
  // (READDUO_DEVICE / --device); the builtin device reproduces the old
  // default-constructed values bit-for-bit.
  const config::DeviceConfig& dev = config::active_device();
  env.timing = dev.timing;
  env.energy = dev.energy;
  env.geometry = dev.geometry;
  env.scrub = dev.scrub;
  env.footprint_lines = w.footprint_lines;
  env.zipf_s = w.zipf_s;
  // lint: allow(unit-conv) GHz -> cycles/second, not a ns<->s conversion
  env.per_core_write_rate = cpu.clock_ghz * 1e9 * w.wpki / 1000.0;
  env.archive_age_scale_s = w.archive_age_scale;
  env.seed = seed;
  return env;
}

}  // namespace rd::memsim
