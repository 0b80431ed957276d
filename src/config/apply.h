// Header-only adapter from a DeviceConfig to the simulator's SimConfig.
// Lives apart from the rd_config library so rd_config never links the
// layer it feeds (memsim) — the including target links both.
#pragma once

#include "config/device_config.h"
#include "memsim/simulator.h"

namespace rd::config {

/// Overlay the device-owned parts of a SimConfig (organization and
/// timing). The CPU, the open-page switch, write preemption and the
/// queue depths are system configuration, not device physics, and are
/// left untouched.
inline void apply_device(const DeviceConfig& d, memsim::SimConfig& cfg) {
  cfg.org = d.org;
  cfg.timing = d.timing;
}

}  // namespace rd::config
