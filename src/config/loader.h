// Device-config loader: schema validation + DeviceConfig construction,
// plus the process-wide active-device selection (READDUO_DEVICE).
//
// Validation contract (DESIGN.md §13): a malformed device file NEVER
// half-loads. Structural errors, unknown sections/keys, unit mistakes,
// range violations, and cross-field inconsistencies all throw ConfigError
// with "<file>:<line>:" context; required keys have no silent defaults —
// a missing one is an error naming every absent key at once.
#pragma once

#include <iosfwd>
#include <string>

#include "config/device_config.h"
#include "config/parser.h"

namespace rd::config {

/// Validate `raw` against the device schema and build the DeviceConfig.
/// Throws ConfigError on any violation (see file header).
DeviceConfig device_from_raw(const RawConfig& raw);

/// Parse + validate from a stream; `source` names it in diagnostics.
DeviceConfig parse_device(std::istream& in, const std::string& source);

/// Parse + validate a device config file.
DeviceConfig load_device(const std::string& path);

/// Overlay a run file (readduo_sim --config) on `cpu`. Run files share the
/// device-file grammar and the typed-value checks, but may set only the
/// system keys the device schema deliberately does not own (apply.h):
/// cpu.cores, cpu.clock_ghz and cpu.read_stall_fraction; absent keys leave
/// `cpu` unchanged. Any other key throws ConfigError naming it, and a
/// device setting also names the device-config key that owns it.
void apply_cpu_overrides(const RawConfig& raw, pcm::CpuParams& cpu);

/// The process-wide device every default-constructed simulation object
/// uses (chip metric configs, scheme drift models, make_scheme_env's
/// timing/energy). Resolved once: READDUO_DEVICE=<path> loads that file;
/// unset (the common case) yields builtin_device(), whose parameters are
/// the compiled-in paper constants — so existing runs are bit-identical.
/// A malformed READDUO_DEVICE file throws on first use, never half-loads.
const DeviceConfig& active_device();

/// Where the active device came from: "builtin" or the loaded file path.
const std::string& active_device_source();

/// Select the active device programmatically (the --device CLI flags).
/// Must run before the first active_device() call — the drift-model
/// singletons latch the device they were built from, so a later switch
/// would desynchronize them; attempting one throws ConfigError.
void set_active_device(DeviceConfig dev, const std::string& source);

}  // namespace rd::config
