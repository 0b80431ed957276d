#include "config/loader.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <vector>

#include "common/env.h"
#include "config/schema.h"

namespace rd::config {

namespace {

[[noreturn]] void fail_at(const RawConfig& raw, const RawEntry& e,
                          const std::string& msg) {
  std::ostringstream os;
  os << raw.source() << ":" << e.line << ": " << msg;
  throw ConfigError(os.str());
}

[[noreturn]] void fail_file(const RawConfig& raw, const std::string& msg) {
  throw ConfigError(raw.source() + ": " + msg);
}

/// Conversion factor of `suffix` within unit family `u`, or nullopt.
/// Factors are exact powers (1, 1e3, 2^10...) so base-unit values — the
/// only form the golden configs use — survive bit-for-bit.
std::optional<double> unit_factor(Unit u, const std::string& suffix) {
  struct Entry {
    const char* suffix;
    double factor;
  };
  auto look = [&suffix](std::initializer_list<Entry> table)
      -> std::optional<double> {
    for (const Entry& e : table) {
      if (suffix == e.suffix) return e.factor;
    }
    return std::nullopt;
  };
  switch (u) {
    case Unit::kNone:
      return std::nullopt;
    case Unit::kSeconds:
      return look({{"s", 1.0}, {"ms", 1e-3}, {"min", 60.0}, {"h", 3600.0}});
    case Unit::kNanoseconds:
      // lint: allow(unit-conv) the unit-suffix table itself
      return look({{"ns", 1.0}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}});
    case Unit::kPicojoules:
      return look({{"pJ", 1.0}, {"nJ", 1e3}, {"uJ", 1e6}});
    case Unit::kBytes:
      return look({{"B", 1.0},
                   {"KB", 1024.0},
                   {"MB", 1024.0 * 1024.0},
                   {"GB", 1024.0 * 1024.0 * 1024.0}});
    case Unit::kWatts:
      return look({{"W", 1.0}, {"mW", 1e-3}});
  }
  return std::nullopt;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parse a numeric value with an optional unit suffix, converted to the
/// spec's base unit. Base-unit values are returned exactly (factor 1).
double numeric_value(const RawConfig& raw, const KeySpec& spec,
                     const RawEntry& e) {
  const char* begin = e.value.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) {
    fail_at(raw, e,
            "key '" + spec.key + "': expected a number, got '" + e.value +
                "'");
  }
  const std::string suffix = trim(std::string(end));
  double factor = 1.0;
  if (!suffix.empty()) {
    const std::optional<double> f = unit_factor(spec.unit, suffix);
    if (!f.has_value()) {
      fail_at(raw, e,
              "key '" + spec.key + "': unknown unit suffix '" + suffix +
                  "' — expected " + unit_family_name(spec.unit));
    }
    factor = *f;
  }
  const double scaled = factor == 1.0 ? v : v * factor;
  if (!std::isfinite(scaled)) {
    fail_at(raw, e, "key '" + spec.key + "': non-finite value");
  }
  if (scaled < spec.min || scaled > spec.max) {
    std::ostringstream os;
    os << "key '" << spec.key << "': value " << scaled
       << " out of range [" << spec.min << ", " << spec.max << "]";
    fail_at(raw, e, os.str());
  }
  if (spec.type == ValueType::kInt && scaled != std::floor(scaled)) {
    fail_at(raw, e,
            "key '" + spec.key + "': expected an integral value (in base "
            "units), got '" + e.value + "'");
  }
  return scaled;
}

double get_double(const RawConfig& raw, const std::string& key) {
  return numeric_value(raw, *find_key(key), raw.at(key));
}

std::int64_t get_int(const RawConfig& raw, const std::string& key) {
  return std::llround(get_double(raw, key));
}

std::string get_string(const RawConfig& raw, const std::string& key) {
  return raw.at(key).value;
}

bool get_bool(const RawConfig& raw, const std::string& key) {
  const RawEntry& e = raw.at(key);
  std::string v = e.value;
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  fail_at(raw, e, "key '" + key + "': not a boolean: '" + e.value + "'");
}

drift::MetricConfig metric_from_raw(const RawConfig& raw,
                                    const std::string& section,
                                    const std::string& default_name) {
  drift::MetricConfig c;
  const std::string p = section + ".";
  c.name = raw.has(p + "name") ? get_string(raw, p + "name") : default_name;
  c.t0_seconds = get_double(raw, p + "t0");
  c.program_halfwidth = get_double(raw, p + "program_halfwidth");
  c.boundary_halfwidth = get_double(raw, p + "boundary_halfwidth");
  for (std::size_t i = 0; i < drift::kNumStates; ++i) {
    const std::string s = p + "state" + std::to_string(i) + ".";
    c.states[i].mu = get_double(raw, s + "mu");
    c.states[i].sigma = get_double(raw, s + "sigma");
    c.states[i].mu_alpha = get_double(raw, s + "mu_alpha");
    c.states[i].sigma_alpha = get_double(raw, s + "sigma_alpha");
  }
  // Drift can only increase the metric, so states must be ordered: an
  // inverted pair would make the read-boundary walk meaningless.
  for (std::size_t i = 1; i < drift::kNumStates; ++i) {
    if (c.states[i].mu <= c.states[i - 1].mu) {
      fail_at(raw, raw.at(p + "state" + std::to_string(i) + ".mu"),
              "key '" + p + "state" + std::to_string(i) +
                  ".mu': state means must be strictly increasing");
    }
  }
  return c;
}

}  // namespace

DeviceConfig device_from_raw(const RawConfig& raw) {
  // Pass 1: no stray content. Unknown sections and unknown keys in known
  // sections are distinct diagnostics, both with file:line.
  for (const auto& [key, entry] : raw.entries()) {
    if (find_key(key) != nullptr) continue;
    const std::string section = key.substr(0, key.find('.'));
    if (!known_section(section)) {
      fail_at(raw, entry,
              "unknown section [" + section +
                  "] (see docs/DEVICE_CONFIGS.md for the schema)");
    }
    fail_at(raw, entry,
            "unknown key '" + key +
                "' (see docs/DEVICE_CONFIGS.md for the [" + section +
                "] section)");
  }
  // Pass 2: every required key present — all absences reported at once,
  // and never silently defaulted.
  std::vector<std::string> missing;
  for (const KeySpec& spec : device_schema()) {
    if (spec.required && !raw.has(spec.key)) missing.push_back(spec.key);
  }
  if (!missing.empty()) {
    std::string msg = "missing required key(s):";
    for (const std::string& k : missing) msg += " " + k;
    fail_file(raw, msg);
  }

  // Pass 3: typed, unit-checked, range-checked construction.
  DeviceConfig d;
  d.name = get_string(raw, "device.name");
  d.kind = get_string(raw, "device.kind");
  if (d.kind != "pcm" && d.kind != "rram" && d.kind != "nand") {
    fail_at(raw, raw.at("device.kind"),
            "key 'device.kind': expected pcm, rram, or nand, got '" +
                d.kind + "'");
  }
  if (raw.has("device.description")) {
    d.description = get_string(raw, "device.description");
  }
  const std::int64_t levels = get_int(raw, "device.levels");
  if (levels != static_cast<std::int64_t>(drift::kNumStates)) {
    fail_at(raw, raw.at("device.levels"),
            "key 'device.levels': this build models " +
                std::to_string(drift::kNumStates) +
                "-level cells; map other technologies onto " +
                std::to_string(drift::kNumStates) +
                " states (see docs/DEVICE_CONFIGS.md)");
  }

  d.geometry.data_cells =
      static_cast<unsigned>(get_int(raw, "geometry.data_cells"));
  d.geometry.ecc_cells =
      static_cast<unsigned>(get_int(raw, "geometry.ecc_cells"));

  d.org.capacity_bytes =
      static_cast<std::uint64_t>(get_int(raw, "memory.capacity"));
  d.org.num_banks = static_cast<unsigned>(get_int(raw, "memory.banks"));
  d.org.line_bytes =
      static_cast<unsigned>(get_int(raw, "memory.line_bytes"));
  d.org.lines_per_scrub =
      static_cast<unsigned>(get_int(raw, "memory.lines_per_scrub"));
  // Derived, not configurable: cells per line follow from the geometry
  // (2 bits/cell), so the two sections cannot drift apart.
  d.org.cells_per_line = d.geometry.total_cells();
  if (d.geometry.data_cells != d.org.line_bytes * 4) {
    fail_at(raw, raw.at("geometry.data_cells"),
            "key 'geometry.data_cells': must equal 4 * memory.line_bytes "
            "(2-bit cells), got " + std::to_string(d.geometry.data_cells) +
                " for " + std::to_string(d.org.line_bytes) + "-byte lines");
  }
  if (d.org.capacity_bytes % d.org.line_bytes != 0 ||
      d.org.total_lines() % d.org.num_banks != 0) {
    fail_at(raw, raw.at("memory.capacity"),
            "key 'memory.capacity': must divide evenly into "
            "memory.banks banks of memory.line_bytes lines");
  }

  d.timing.r_read = Ns{get_int(raw, "timing.r_read")};
  d.timing.m_read = Ns{get_int(raw, "timing.m_read")};
  d.timing.rm_read = Ns{get_int(raw, "timing.rm_read")};
  d.timing.write = Ns{get_int(raw, "timing.write")};
  d.timing.bus_transfer = Ns{get_int(raw, "timing.bus_transfer")};

  d.energy.r_read = Pj{get_double(raw, "energy.r_read")};
  d.energy.m_read = Pj{get_double(raw, "energy.m_read")};
  d.energy.cell_write = Pj{get_double(raw, "energy.cell_write")};
  d.energy.internal_sense_scale =
      get_double(raw, "energy.internal_sense_scale");
  d.energy.tlc_write_scale = get_double(raw, "energy.tlc_write_scale");
  d.energy.static_watts = get_double(raw, "energy.static_power");

  d.ecc.bch_t = static_cast<unsigned>(get_int(raw, "ecc.bch_t"));
  d.ecc.ecp_pointers =
      static_cast<unsigned>(get_int(raw, "ecc.ecp_pointers"));

  d.scrub.interval_s = get_double(raw, "scrub.interval");
  d.scrub.w = static_cast<unsigned>(get_int(raw, "scrub.w"));
  d.scrub.use_m_sense = get_bool(raw, "scrub.use_m_sense");

  d.r_metric = metric_from_raw(raw, "r_metric", "R-metric");
  d.m_metric = metric_from_raw(raw, "m_metric", "M-metric");
  return d;
}

namespace {

/// The device-config key that owns run-file key `key`, or "" when none
/// does. Schema keys own themselves; the [memory]/[energy] spellings run
/// files once accepted map onto the keys that replaced them.
std::string device_owner(const std::string& key) {
  static const std::map<std::string, std::string> kRenamed = {
      {"memory.capacity_gb", "memory.capacity"},
      {"energy.r_read_pj", "energy.r_read"},
      {"energy.m_read_pj", "energy.m_read"},
      {"energy.cell_write_pj", "energy.cell_write"},
  };
  if (find_key(key) != nullptr) return key;
  const auto it = kRenamed.find(key);
  return it == kRenamed.end() ? "" : it->second;
}

}  // namespace

void apply_cpu_overrides(const RawConfig& raw, pcm::CpuParams& cpu) {
  // Documented in docs/DEVICE_CONFIGS.md "Run files".
  static const KeySpec kCores{"cpu.cores", ValueType::kInt, Unit::kNone,
                              false, 1, 1024, "Cores issuing requests."};
  static const KeySpec kClock{"cpu.clock_ghz", ValueType::kDouble,
                              Unit::kNone, false, 0.01, 100.0,
                              "Core clock, GHz."};
  static const KeySpec kStall{"cpu.read_stall_fraction", ValueType::kDouble,
                              Unit::kNone, false, 0.0, 1.0,
                              "Share of reads the core blocks on."};
  for (const auto& [key, entry] : raw.entries()) {
    if (key == kCores.key) {
      cpu.num_cores = static_cast<unsigned>(
          std::llround(numeric_value(raw, kCores, entry)));
    } else if (key == kClock.key) {
      cpu.clock_ghz = numeric_value(raw, kClock, entry);
    } else if (key == kStall.key) {
      cpu.read_stall_fraction = numeric_value(raw, kStall, entry);
    } else if (const std::string owner = device_owner(key); !owner.empty()) {
      fail_at(raw, entry,
              "key '" + key + "' is a device setting: set '" + owner +
                  "' in a device config (--device; see "
                  "docs/DEVICE_CONFIGS.md)");
    } else {
      fail_at(raw, entry,
              "unknown key '" + key + "' (run files accept " + kCores.key +
                  ", " + kClock.key + ", " + kStall.key + ")");
    }
  }
}

DeviceConfig parse_device(std::istream& in, const std::string& source) {
  return device_from_raw(RawConfig::parse(in, source));
}

DeviceConfig load_device(const std::string& path) {
  return device_from_raw(RawConfig::load(path));
}

// ------------------------------------------------ active device slot ---

namespace {

struct ActiveSlot {
  std::once_flag once;
  DeviceConfig dev;
  std::string source = "builtin";
  bool resolved = false;
  bool pinned = false;  ///< set_active_device ran
};

ActiveSlot& slot() {
  static ActiveSlot s;
  return s;
}

void resolve_from_env() {
  ActiveSlot& s = slot();
  if (s.pinned) {
    s.resolved = true;
    return;
  }
  if (const char* path = env_cstr("READDUO_DEVICE")) {
    if (*path != '\0') {
      s.dev = load_device(path);
      s.source = path;
      s.resolved = true;
      return;
    }
  }
  s.dev = builtin_device();
  s.resolved = true;
}

}  // namespace

const DeviceConfig& active_device() {
  ActiveSlot& s = slot();
  std::call_once(s.once, resolve_from_env);
  return s.dev;
}

const std::string& active_device_source() {
  active_device();  // force resolution
  return slot().source;
}

void set_active_device(DeviceConfig dev, const std::string& source) {
  ActiveSlot& s = slot();
  if (s.resolved) {
    throw ConfigError(
        "set_active_device(" + source +
        "): the active device was already resolved (from " + s.source +
        ") — select the device before any simulation object is built");
  }
  s.dev = std::move(dev);
  s.source = source;
  s.pinned = true;
}

}  // namespace rd::config
