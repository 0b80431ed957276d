// Header-only adapters from a DeviceConfig to the consumer-side structs.
// Lives apart from the rd_config library so rd_config never links the
// higher layers it feeds (pcm, memsim) — the including target links both.
#pragma once

#include "config/device_config.h"
#include "memsim/simulator.h"
#include "pcm/chip.h"

namespace rd::config {

/// ChipConfig defaults for device `d` (line payload, BCH strength, ECP
/// pointers, scrub policy). num_lines/seed/readout stay the caller's
/// choice; the chip's metric configs come from active_device() at
/// construction (pcm/chip.cpp).
inline pcm::ChipConfig make_chip_config(const DeviceConfig& d) {
  pcm::ChipConfig c;
  c.data_bytes = d.org.line_bytes;
  c.bch_t = d.ecc.bch_t;
  c.ecp_pointers = d.ecc.ecp_pointers;
  c.scrub = d.scrub;
  return c;
}

/// Overlay the device-owned parts of a SimConfig (organization and
/// timing). CPU, row-buffer, and queue policy knobs are system
/// configuration, not device physics, and are left untouched.
inline void apply_device(const DeviceConfig& d, memsim::SimConfig& cfg) {
  cfg.org = d.org;
  cfg.timing = d.timing;
}

}  // namespace rd::config
