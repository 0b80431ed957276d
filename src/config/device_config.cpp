#include "config/device_config.h"

namespace rd::config {

const DeviceConfig& builtin_device() {
  // Built from exactly the compiled-in constants the stack used before
  // the config subsystem existed: drift::r_metric()/m_metric() (Tables
  // I/II) and the default-constructed params.h structs (Table VIII, the
  // Table IX substitutes, the 640 s / W=1 scrub).
  // configs/pcm_readduo_t1.cfg is golden-test-enforced to load
  // bit-for-bit equal to this value (tests/test_config.cpp).
  static const DeviceConfig kBuiltin = [] {
    DeviceConfig d;
    d.name = "pcm-readduo-t1";
    d.description =
        "ReadDuo (DSN 2016) MLC PCM: Tables I/II drift metrics, Table "
        "VIII system, Table IX energy substitutes";
    d.r_metric = drift::r_metric();
    d.m_metric = drift::m_metric();
    d.org = pcm::MemoryOrg{};
    d.timing = pcm::TimingParams{};
    d.energy = pcm::EnergyParams{};
    d.scrub = pcm::ScrubPolicy{};
    return d;
  }();
  return kBuiltin;
}

}  // namespace rd::config
