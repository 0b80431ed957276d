// The device zoo: every physical parameter the simulator stack consumes,
// gathered into one value type that external .cfg files can populate.
//
// Historically the ReadDuo Tables I/II drift parameters, the Table VIII
// timing/energy sets, and the BCH/scrub geometry were compile-time
// constants scattered across drift/metric.cpp, pcm/params.h, and
// pcm/chip.h. A DeviceConfig carries all of them, so a PCM variant, an
// RRAM parameter set, or a TLC-NAND retention model is data (a file under
// configs/), not code — the role NVMain's Config/*.config files play.
//
// The built-in device (builtin_device()) is constructed from exactly the
// same compiled-in constants as before, and configs/pcm_readduo_t1.cfg is
// test-enforced to reproduce it bit-for-bit (the default-equivalence
// guarantee, DESIGN.md §13): running with no device selected and running
// under READDUO_DEVICE=configs/pcm_readduo_t1.cfg are indistinguishable,
// down to golden metrics and bench-cache keys.
#pragma once

#include <string>

#include "drift/error_model.h"
#include "drift/metric.h"
#include "pcm/params.h"

namespace rd::config {

/// BCH / ECP geometry of a line (ChipConfig's code parameters).
struct EccParams {
  unsigned bch_t = 8;        ///< BCH correction strength (errors per line)
  unsigned ecp_pointers = 6;  ///< error-correcting-pointer entries per line
};

/// One complete device description: everything the chip model, the drift
/// analysis, the scheme layer, and the timing simulator need to know
/// about the underlying memory technology.
struct DeviceConfig {
  /// Stable identifier ("pcm-readduo-t1"). Carried into the metrics JSON
  /// `device` field, the bench-cache key, and the wire hello, so results
  /// are always attributable to the device that produced them.
  std::string name;
  /// Technology family: "pcm", "rram", or "nand".
  std::string kind;
  /// Free-form provenance note (which paper/table the numbers came from).
  std::string description;

  /// Fast (current-sensing) readout metric — Table I for the paper PCM.
  drift::MetricConfig r_metric;
  /// Robust (voltage-sensing) readout metric — Table II.
  drift::MetricConfig m_metric;

  /// Data/parity cell split of a line.
  drift::LineGeometry geometry;
  /// Rank/bank/line organization (Table VIII).
  pcm::MemoryOrg org;
  /// Per-operation latencies (Table VIII / Section IV).
  pcm::TimingParams timing;
  /// Per-operation dynamic energies (Table IX substitute).
  pcm::EnergyParams energy;
  /// Line code geometry.
  EccParams ecc;
  /// Scrub operating point (chip scrub engine, M-scrubbing schemes).
  pcm::ScrubPolicy scrub;
};

/// The compiled-in ReadDuo MLC PCM device: Tables I/II drift metrics
/// (drift::r_metric()/m_metric()), Table VIII timing/organization, the
/// Table IX energy substitutes, BCH-8 + 6-pointer ECP lines, and the
/// (E=17, S=640 s, W=1) scrub point. configs/pcm_readduo_t1.cfg is the
/// externalized twin, golden-test-enforced bit-for-bit equal.
const DeviceConfig& builtin_device();

}  // namespace rd::config
