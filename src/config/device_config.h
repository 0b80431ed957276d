// The device zoo: every physical parameter the simulator stack consumes,
// gathered into one value type that external .cfg files can populate.
//
// Historically the ReadDuo Tables I/II drift parameters, the Table VIII
// timing/energy sets, and the scrub operating point were compile-time
// constants scattered across drift/metric.cpp and pcm/params.h. A
// DeviceConfig carries all of them, so a PCM variant, an RRAM parameter
// set, or a TLC-NAND retention model is data (a file under configs/), not
// code — the role NVMain's Config/*.config files play.
//
// The built-in device (builtin_device()) is constructed from exactly the
// same compiled-in constants as before, and configs/pcm_readduo_t1.cfg is
// test-enforced to reproduce it bit-for-bit (the default-equivalence
// guarantee, DESIGN.md §13): running with no device selected and running
// under READDUO_DEVICE=configs/pcm_readduo_t1.cfg are indistinguishable,
// down to golden metrics.
#pragma once

#include <string>

#include "drift/metric.h"
#include "pcm/params.h"

namespace rd::config {

/// One complete device description: everything the chip model, the drift
/// analysis, the scheme layer, and the timing simulator need to know
/// about the underlying memory technology. The line itself (256 data + 40
/// parity cells, BCH-8) is fixed by drift/error_model.h, not a device
/// parameter.
struct DeviceConfig {
  /// Stable identifier ("pcm-readduo-t1"). Carried into the metrics JSON
  /// `device` field and the wire hello, so results are always
  /// attributable to the device that produced them.
  std::string name;
  /// Free-form provenance note: technology family and which paper/table
  /// the numbers came from.
  std::string description;

  /// Fast (current-sensing) readout metric — Table I for the paper PCM.
  drift::MetricConfig r_metric;
  /// Robust (voltage-sensing) readout metric — Table II.
  drift::MetricConfig m_metric;

  /// Rank/bank/line organization (Table VIII).
  pcm::MemoryOrg org;
  /// Per-operation latencies (Table VIII / Section IV).
  pcm::TimingParams timing;
  /// Per-operation dynamic energies (Table IX substitute).
  pcm::EnergyParams energy;
  /// Scrub operating point (the M-scrubbing schemes' S and W).
  pcm::ScrubPolicy scrub;
};

/// The compiled-in ReadDuo MLC PCM device: Tables I/II drift metrics
/// (drift::r_metric()/m_metric()), Table VIII timing/organization, the
/// Table IX energy substitutes and the (S=640 s, W=1) scrub point.
/// configs/pcm_readduo_t1.cfg is the externalized twin,
/// golden-test-enforced bit-for-bit equal.
const DeviceConfig& builtin_device();

}  // namespace rd::config
