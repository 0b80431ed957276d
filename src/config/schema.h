// Schema registry for device config files.
//
// Every key a device .cfg may contain is described here: its type, unit
// family, whether it is required, its valid range, and a one-line doc
// string naming the paper table or equation it reproduces. The loader
// validates files against this registry (unknown keys and unit/range
// violations are file:line diagnostics), and docs/DEVICE_CONFIGS.md is
// test-enforced to document every registered key (tests/test_config.cpp,
// SchemaDocumentation) — the schema cannot silently outgrow its manual.
#pragma once

#include <string>
#include <vector>

namespace rd::config {

/// Value type of a schema key.
enum class ValueType {
  kString,
  kInt,     ///< integer (unit-scaled values must stay integral)
  kDouble,
};

/// Unit family of a numeric key. The base unit is what the loader stores;
/// the listed suffixes are accepted in config files and converted.
enum class Unit {
  kNone,         ///< dimensionless — a unit suffix is an error
  kSeconds,      ///< base s; accepts s, ms, min, h
  kNanoseconds,  ///< base ns; accepts ns, us, ms, s
  kPicojoules,   ///< base pJ; accepts pJ, nJ, uJ
  kBytes,        ///< base B; accepts B, KB, MB, GB (binary powers)
  kWatts,        ///< base W; accepts W, mW
};

/// Human-readable unit-family name plus its accepted suffixes, for
/// diagnostics ("expected a time in ns/us/ms/s").
std::string unit_family_name(Unit u);

/// One registered config key.
struct KeySpec {
  std::string key;   ///< full "section.key" name
  ValueType type = ValueType::kDouble;
  Unit unit = Unit::kNone;
  bool required = true;
  /// Inclusive numeric range (kInt/kDouble only, in base units).
  double min = 0.0;
  double max = 0.0;
  /// What the key means, its base unit, and its paper provenance.
  std::string doc;
};

/// The full device schema, ordered by section then key. Stable: the
/// docs/DEVICE_CONFIGS.md reference tables mirror this list.
const std::vector<KeySpec>& device_schema();

/// Lookup by full "section.key" name; nullptr when unregistered.
const KeySpec* find_key(const std::string& key);

/// True when `section` is one of the schema's sections (used to split
/// "unknown section" from "unknown key in a known section" diagnostics).
bool known_section(const std::string& section);

}  // namespace rd::config
