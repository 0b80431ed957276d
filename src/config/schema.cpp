#include "config/schema.h"

#include <map>
#include <set>

namespace rd::config {

namespace {

/// The drift-metric sections share one key set; `metric` is "r_metric" or
/// "m_metric" and `table` names the paper table the section reproduces.
void add_metric_keys(std::vector<KeySpec>& out, const std::string& metric,
                     const std::string& table) {
  const std::string p = metric + ".";
  out.push_back({p + "name", ValueType::kString, Unit::kNone, false, 0, 0,
                 "Display name of the readout metric (default derived from "
                 "the section: R-metric / M-metric)."});
  out.push_back({p + "t0", ValueType::kDouble, Unit::kSeconds, true, 1e-12,
                 1e6,
                 "Reference time t0 of the drift law X(t) = X0 (t/t0)^alpha, "
                 "seconds (" + table + "; 1 s for the paper PCM)."});
  out.push_back({p + "program_halfwidth", ValueType::kDouble, Unit::kNone,
                 true, 0.1, 10.0,
                 "Programmed-range half-width in sigmas: cells are written "
                 "inside mu +/- this*sigma (Section II-A; 2.746 reproduces "
                 "the paper's 99.4% P&V yield)."});
  out.push_back({p + "boundary_halfwidth", ValueType::kDouble, Unit::kNone,
                 true, 0.1, 10.0,
                 "Read-boundary half-width in sigmas: a cell misreads once "
                 "its metric exceeds mu + this*sigma (Section II-A; 3.08 "
                 "calibrated, see DESIGN.md substitutions)."});
  for (int i = 0; i < 4; ++i) {
    const std::string s = p + "state" + std::to_string(i) + ".";
    const std::string st = "state " + std::to_string(i);
    out.push_back({s + "mu", ValueType::kDouble, Unit::kNone, true, -20.0,
                   20.0,
                   "Mean log10(metric) of " + st + " as programmed (" +
                       table + ")."});
    out.push_back({s + "sigma", ValueType::kDouble, Unit::kNone, true, 1e-6,
                   5.0,
                   "Std-dev of log10(metric) of " + st + " (" + table +
                       "; 1/6 decade for the paper PCM)."});
    out.push_back({s + "mu_alpha", ValueType::kDouble, Unit::kNone, true,
                   0.0, 1.0,
                   "Mean drift coefficient alpha of " + st + " (" + table +
                       ")."});
    out.push_back({s + "sigma_alpha", ValueType::kDouble, Unit::kNone, true,
                   0.0, 1.0,
                   "Std-dev of alpha of " + st + " (" + table +
                       "; 0.4*mu_alpha for the paper PCM)."});
  }
}

std::vector<KeySpec> build_schema() {
  // Range bounds, not time conversions: a latency key accepts up to one
  // second expressed in its base nanoseconds, a period key up to ~31
  // years in seconds.
  // lint: allow(unit-conv) range bound in base units
  constexpr double kMaxLatencyNs = 1e9;
  // lint: allow(unit-conv) range bound in base units
  constexpr double kMaxPeriodS = 1e9;
  std::vector<KeySpec> s;

  // --- [device] ---------------------------------------------------------
  s.push_back({"device.name", ValueType::kString, Unit::kNone, true, 0, 0,
               "Stable device identifier, carried into the metrics JSON "
               "'device' field and the wire hello."});
  s.push_back({"device.kind", ValueType::kString, Unit::kNone, true, 0, 0,
               "Technology family: pcm, rram, or nand."});
  s.push_back({"device.levels", ValueType::kInt, Unit::kNone, true, 2, 16,
               "Storage levels per cell; must equal 4 (the 2-bit MLC cell "
               "model, drift::kNumStates)."});
  s.push_back({"device.description", ValueType::kString, Unit::kNone, false,
               0, 0,
               "Free-form provenance note (paper, table, measurement "
               "conditions)."});

  // --- [geometry] -------------------------------------------------------
  s.push_back({"geometry.data_cells", ValueType::kInt, Unit::kNone, true, 1,
               65536,
               "Data cells per line (256 for 64 B at 2 bits/cell; "
               "Section III-A). Must equal 4 * memory.line_bytes."});
  s.push_back({"geometry.ecc_cells", ValueType::kInt, Unit::kNone, true, 0,
               65536,
               "Parity cells per line (40 holds the 80-bit BCH-8 code; "
               "Section III-A)."});

  // --- [memory] ---------------------------------------------------------
  s.push_back({"memory.capacity", ValueType::kInt, Unit::kBytes, true, 1,
               1e15,
               "Total capacity in bytes (Table VIII: 16 GB = 8 banks x "
               "2 GB). Must divide evenly into banks and lines."});
  s.push_back({"memory.banks", ValueType::kInt, Unit::kNone, true, 1, 1024,
               "Independent banks (Table VIII: 8)."});
  s.push_back({"memory.line_bytes", ValueType::kInt, Unit::kBytes, true, 8,
               4096, "Data payload per line in bytes (64)."});
  s.push_back({"memory.lines_per_scrub", ValueType::kInt, Unit::kNone, true,
               1, 4096,
               "Lines sensed per scrub operation (row granularity, 16; "
               "[2])."});

  // --- [timing] ---------------------------------------------------------
  s.push_back({"timing.r_read", ValueType::kInt, Unit::kNanoseconds, true, 1,
               kMaxLatencyNs,
               "Current-mode (R-metric) line read latency, ns (Section IV: "
               "150 ns)."});
  s.push_back({"timing.m_read", ValueType::kInt, Unit::kNanoseconds, true, 1,
               kMaxLatencyNs,
               "Voltage-mode (M-metric) line read latency, ns (Section IV: "
               "450 ns)."});
  s.push_back({"timing.rm_read", ValueType::kInt, Unit::kNanoseconds, true,
               1, kMaxLatencyNs,
               "Failed R-read followed by M-read, ns (Section IV: 600 ns)."});
  s.push_back({"timing.write", ValueType::kInt, Unit::kNanoseconds, true, 1,
               kMaxLatencyNs,
               "Iterative P&V MLC line write latency, ns (Section IV: "
               "1000 ns)."});
  s.push_back({"timing.bus_transfer", ValueType::kInt, Unit::kNanoseconds,
               true, 0, kMaxLatencyNs,
               "64 B line transfer on the channel, ns (5 ns)."});

  // --- [energy] ---------------------------------------------------------
  s.push_back({"energy.r_read", ValueType::kDouble, Unit::kPicojoules, true,
               0, 1e12,
               "Per-line R-sensing read energy, pJ (Table IX substitute: "
               "1000 pJ ~ 2 pJ/bit; see DESIGN.md substitutions)."});
  s.push_back({"energy.m_read", ValueType::kDouble, Unit::kPicojoules, true,
               0, 1e12,
               "Per-line M-sensing read energy, pJ (1500 pJ: longer "
               "integration)."});
  s.push_back({"energy.cell_write", ValueType::kDouble, Unit::kPicojoules,
               true, 0, 1e12,
               "Average P&V energy per MLC cell written, pJ (135 pJ)."});
  s.push_back({"energy.internal_sense_scale", ValueType::kDouble, Unit::kNone,
               true, 0.0, 1.0,
               "Scrub senses cost this fraction of a demand read's energy "
               "(internal row read, no decode/IO/bus: 0.5)."});
  s.push_back({"energy.tlc_write_scale", ValueType::kDouble, Unit::kNone,
               true, 0.0, 10.0,
               "Per-cell write-energy scale of the TLC baseline relative "
               "to 4-level MLC (0.8; [26])."});
  s.push_back({"energy.static_power", ValueType::kDouble, Unit::kWatts, true,
               0.0, 1e4,
               "Static/background power of the memory subsystem, W (0.35; "
               "used only by the Product-S EDAP variant)."});

  // --- [ecc] ------------------------------------------------------------
  s.push_back({"ecc.bch_t", ValueType::kInt, Unit::kNone, true, 1, 32,
               "BCH correction strength t, errors per line (8; "
               "Section III-A)."});
  s.push_back({"ecc.ecp_pointers", ValueType::kInt, Unit::kNone, true, 0, 64,
               "Error-correcting-pointer entries per line for stuck cells "
               "(6; [30])."});

  // --- [scrub] ----------------------------------------------------------
  s.push_back({"scrub.interval", ValueType::kDouble, Unit::kSeconds, true,
               0.0, kMaxPeriodS,
               "Scrub period S in seconds (640 s; Table V operating "
               "point). 0 disables scrubbing."});
  s.push_back({"scrub.w", ValueType::kInt, Unit::kNone, true, 0, 64,
               "Rewrite threshold W: rewrite a scrubbed line showing >= W "
               "errors (1; 0 = always rewrite)."});
  s.push_back({"scrub.use_m_sense", ValueType::kBool, Unit::kNone, true, 0,
               0,
               "Scrub senses with the M-metric (true, ReadDuo) or the "
               "R-metric (false)."});

  // --- [r_metric] / [m_metric] -----------------------------------------
  add_metric_keys(s, "r_metric", "Table I");
  add_metric_keys(s, "m_metric", "Table II");
  return s;
}

}  // namespace

const std::vector<KeySpec>& device_schema() {
  static const std::vector<KeySpec> kSchema = build_schema();
  return kSchema;
}

const KeySpec* find_key(const std::string& key) {
  static const std::map<std::string, const KeySpec*> kIndex = [] {
    std::map<std::string, const KeySpec*> m;
    for (const KeySpec& k : device_schema()) m[k.key] = &k;
    return m;
  }();
  const auto it = kIndex.find(key);
  return it == kIndex.end() ? nullptr : it->second;
}

bool known_section(const std::string& section) {
  static const std::set<std::string> kSections = [] {
    std::set<std::string> out;
    for (const KeySpec& k : device_schema()) {
      out.insert(k.key.substr(0, k.key.find('.')));
    }
    return out;
  }();
  return kSections.count(section) != 0;
}

std::string unit_family_name(Unit u) {
  switch (u) {
    case Unit::kNone:
      return "a dimensionless number (no unit suffix)";
    case Unit::kSeconds:
      return "a time in s/ms/min/h (base: seconds)";
    case Unit::kNanoseconds:
      return "a time in ns/us/ms/s (base: nanoseconds)";
    case Unit::kPicojoules:
      return "an energy in pJ/nJ/uJ (base: picojoules)";
    case Unit::kBytes:
      return "a size in B/KB/MB/GB (base: bytes)";
    case Unit::kWatts:
      return "a power in W/mW (base: watts)";
  }
  return "?";
}

}  // namespace rd::config
