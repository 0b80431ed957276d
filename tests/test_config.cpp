// Tests for the strict config subsystem (src/config/): parser grammar,
// schema validation diagnostics, unit suffixes, readduo_sim --config run
// files, and the golden paper configs — including the default-equivalence
// guarantee that configs/pcm_readduo_t1.cfg reproduces builtin_device()
// bit-for-bit.
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/check.h"
#include "config/apply.h"
#include "config/device_config.h"
#include "config/loader.h"
#include "config/parser.h"
#include "config/schema.h"
#include "memsim/env.h"
#include "readduo/schemes.h"
#include "trace/workload.h"

namespace rd {
namespace {

// =====================================================================
// readduo_sim --config run files (config::apply_cpu_overrides).

/// Default CPU parameters with run file `text` (named "run.ini") applied.
pcm::CpuParams with_run_file(const std::string& text) {
  std::istringstream in(text);
  pcm::CpuParams cpu;
  config::apply_cpu_overrides(config::RawConfig::parse(in, "run.ini"), cpu);
  return cpu;
}

/// The ConfigError message run file `text` raises.
std::string run_file_error(const std::string& text) {
  try {
    with_run_file(text);
  } catch (const config::ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ConfigError for:\n" << text;
  return "";
}

/// IPC of a short Ideal-scheme mcf run on `cpu`, set up as readduo_sim
/// sets up a run.
double short_run_ipc(const pcm::CpuParams& cpu) {
  const trace::Workload& w = trace::workload_by_name("mcf");
  memsim::SimConfig cfg;
  config::apply_device(config::active_device(), cfg);
  cfg.cpu = cpu;
  cfg.instructions_per_core = 20000;
  const readduo::SchemeEnv env = memsim::make_scheme_env(w, cfg.cpu, cfg.seed);
  const auto scheme = readduo::make_scheme(readduo::SchemeKind::kIdeal, env);
  memsim::Simulator sim(cfg, *scheme, w);
  return sim.run().ipc(cfg.cpu);
}

TEST(Config, ParsesSectionsAndKeys) {
  const pcm::CpuParams cpu = with_run_file(
      "[cpu]\n"
      "cores = 2\n"
      "clock_ghz = 3.5\n"
      "read_stall_fraction = 0.5\n");
  EXPECT_EQ(cpu.num_cores, 2u);
  EXPECT_EQ(cpu.clock_ghz, 3.5);
  EXPECT_EQ(cpu.read_stall_fraction, 0.5);
  EXPECT_NE(short_run_ipc(pcm::CpuParams{}), short_run_ipc(cpu));
}

TEST(Config, CommentsAndWhitespace) {
  const pcm::CpuParams cpu = with_run_file(
      "  # full-line comment\n"
      "\n"
      "[ cpu ]\n"
      "  cores   =   8   ; trailing comment\n");
  EXPECT_EQ(cpu.num_cores, 8u);
}

TEST(Config, DefaultsWhenAbsent) {
  const pcm::CpuParams def;
  const pcm::CpuParams cpu = with_run_file("# nothing set\n");
  EXPECT_EQ(cpu.num_cores, def.num_cores);
  EXPECT_EQ(cpu.clock_ghz, def.clock_ghz);
  EXPECT_EQ(cpu.read_stall_fraction, def.read_stall_fraction);
}

TEST(Config, MalformedInputThrows) {
  EXPECT_EQ(run_file_error("[cpu\n"),
            "run.ini:1: unterminated section header (missing ']')");
  EXPECT_EQ(run_file_error("cores = 4\n"),
            "run.ini:1: key 'cores' appears before any [section] header");
  EXPECT_EQ(run_file_error("[cpu]\nno equals sign\n"),
            "run.ini:2: expected 'key = value', got 'no equals sign'");
}

TEST(Config, TypeErrorsThrow) {
  EXPECT_EQ(run_file_error("[cpu]\ncores = many\n"),
            "run.ini:2: key 'cpu.cores': expected a number, got 'many'");
  EXPECT_EQ(run_file_error("[cpu]\ncores = 2.5\n"),
            "run.ini:2: key 'cpu.cores': expected an integral value (in base "
            "units), got '2.5'");
  EXPECT_EQ(run_file_error("[cpu]\ncores = 0\n"),
            "run.ini:2: key 'cpu.cores': value 0 out of range [1, 1024]");
  EXPECT_EQ(run_file_error("[cpu]\nclock_ghz = 2 GHz\n"),
            "run.ini:2: key 'cpu.clock_ghz': unknown unit suffix 'GHz' — "
            "expected " + config::unit_family_name(config::Unit::kNone));
  EXPECT_EQ(run_file_error("[cpu]\nread_stall_fraction = 1.5\n"),
            "run.ini:2: key 'cpu.read_stall_fraction': value 1.5 out of "
            "range [0, 1]");
}

TEST(Config, UnknownKeyFailsNamingIt) {
  EXPECT_EQ(run_file_error("[cpu]\ncores = 4\nturbo = on\n"),
            "run.ini:3: unknown key 'cpu.turbo' (run files accept "
            "cpu.cores, cpu.clock_ghz, cpu.read_stall_fraction)");
  EXPECT_EQ(run_file_error("[row_buffer]\nenabled = 1\n"),
            "run.ini:2: unknown key 'row_buffer.enabled' (run files accept "
            "cpu.cores, cpu.clock_ghz, cpu.read_stall_fraction)");
}

TEST(Config, DeviceKeyFailsNamingItsOwner) {
  // The [memory]/[energy] spellings run files once took, and device keys
  // written directly, each point at the device-config key that owns them.
  const std::pair<std::string, std::string> cases[] = {
      {"[memory]\nbanks = 7\n", "memory.banks"},
      {"[memory]\ncapacity_gb = 8\n", "memory.capacity"},
      {"[energy]\nr_read_pj = 99999\n", "energy.r_read"},
      {"[energy]\nm_read_pj = 1\n", "energy.m_read"},
      {"[energy]\ncell_write_pj = 1\n", "energy.cell_write"},
      {"[timing]\nwrite = 900\n", "timing.write"},
  };
  for (const auto& [text, owner] : cases) {
    const std::string err = run_file_error(text);
    EXPECT_EQ(err.rfind("run.ini:2: key '", 0), 0u) << err;
    EXPECT_NE(err.find("is a device setting: set '" + owner +
                       "' in a device config"),
              std::string::npos)
        << err;
  }
}

TEST(Config, DuplicateKeyFailsWithFirstLine) {
  EXPECT_EQ(run_file_error("[cpu]\ncores = 2\n\ncores = 4\n"),
            "run.ini:4: duplicate key 'cpu.cores' (first set on line 2)");
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW(config::RawConfig::load("/nonexistent/readduo.ini"),
               config::ConfigError);
}

// =====================================================================
// Strict device-config subsystem (src/config/).

using config::DeviceConfig;

/// Parse `text` as a device config named "test.cfg" and return the
/// ConfigError message (failing the test if nothing throws).
std::string device_error(const std::string& text) {
  std::istringstream in(text);
  try {
    config::parse_device(in, "test.cfg");
  } catch (const config::ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ConfigError for:\n" << text;
  return "";
}

/// Grammar-level error message from RawConfig::parse.
std::string grammar_error(const std::string& text) {
  std::istringstream in(text);
  try {
    config::RawConfig::parse(in, "test.cfg");
  } catch (const config::ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected ConfigError for:\n" << text;
  return "";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string t1_path() {
  return std::string(RD_CONFIGS_DIR) + "/pcm_readduo_t1.cfg";
}

/// t1 text with the line holding `key` (e.g. "levels = 4") replaced.
std::string t1_with(const std::string& key_line,
                    const std::string& replacement) {
  std::string text = read_file(t1_path());
  const std::size_t pos = text.find("\n" + key_line + "\n");
  EXPECT_NE(pos, std::string::npos) << key_line;
  text.replace(pos + 1, key_line.size(), replacement);
  return text;
}

DeviceConfig parse_text(const std::string& text) {
  std::istringstream in(text);
  return config::parse_device(in, "test.cfg");
}

// ------------------------------------------------------------- grammar --

TEST(RawConfigGrammar, StructuralErrorsCarryFileAndLine) {
  EXPECT_EQ(grammar_error("[device\n"),
            "test.cfg:1: unterminated section header (missing ']')");
  EXPECT_EQ(grammar_error("\n[device] junk\n"),
            "test.cfg:2: unexpected text after ']' in section header: "
            "' junk'");
  EXPECT_EQ(grammar_error("[]\n"), "test.cfg:1: empty section name");
  EXPECT_EQ(grammar_error("[dev ice]\n"),
            "test.cfg:1: invalid section name 'dev ice'");
  EXPECT_EQ(grammar_error("[device]\nno equals sign\n"),
            "test.cfg:2: expected 'key = value', got 'no equals sign'");
  EXPECT_EQ(grammar_error("[device]\n= pcm\n"), "test.cfg:2: empty key");
  EXPECT_EQ(grammar_error("[device]\nbad key = pcm\n"),
            "test.cfg:2: invalid key name 'bad key'");
  EXPECT_EQ(grammar_error("[device]\nkind =\n"),
            "test.cfg:2: empty value for key 'kind'");
  EXPECT_EQ(grammar_error("kind = pcm\n"),
            "test.cfg:1: key 'kind' appears before any [section] header");
  EXPECT_EQ(grammar_error("[device]\nkind = pcm\n\nkind = rram\n"),
            "test.cfg:4: duplicate key 'device.kind' (first set on "
            "line 2)");
}

TEST(RawConfigGrammar, CommentsSectionsAndLinesRetained) {
  std::istringstream in(
      "# leading comment\n"
      "[device]\n"
      "kind = pcm  ; trailing comment\n"
      "; full-line\n"
      "[memory]\n"
      "banks = 8\n");
  const config::RawConfig raw = config::RawConfig::parse(in, "x.cfg");
  ASSERT_TRUE(raw.has("device.kind"));
  EXPECT_EQ(raw.at("device.kind").value, "pcm");
  EXPECT_EQ(raw.at("device.kind").line, 3u);
  EXPECT_EQ(raw.at("memory.banks").line, 6u);
  EXPECT_EQ(raw.source(), "x.cfg");
}

TEST(RawConfigGrammar, MissingFileNamesThePath) {
  try {
    config::RawConfig::load("/nonexistent/dev.cfg");
    ADD_FAILURE() << "expected ConfigError";
  } catch (const config::ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "/nonexistent/dev.cfg: cannot open config file");
  }
}

// -------------------------------------------------- schema validation --

TEST(DeviceSchema, EveryKeyHasDocAndUniqueName) {
  std::set<std::string> seen;
  for (const config::KeySpec& k : config::device_schema()) {
    EXPECT_TRUE(seen.insert(k.key).second) << "duplicate key " << k.key;
    EXPECT_FALSE(k.doc.empty()) << k.key << " has no doc string";
    EXPECT_NE(k.key.find('.'), std::string::npos) << k.key;
    EXPECT_EQ(config::find_key(k.key), &k);
  }
  EXPECT_GE(seen.size(), 60u);
  EXPECT_EQ(config::find_key("device.bogus"), nullptr);
  EXPECT_TRUE(config::known_section("r_metric"));
  EXPECT_FALSE(config::known_section("cpu"));
}

TEST(DeviceSchema, GoldenConfigExercisesEveryKey) {
  // Schema round-trip: t1 sets every schema key (required and optional),
  // and the loader accepted each one — so schema and golden config can
  // never drift apart silently.
  std::istringstream in(read_file(t1_path()));
  const config::RawConfig raw = config::RawConfig::parse(in, "t1");
  for (const config::KeySpec& k : config::device_schema()) {
    EXPECT_TRUE(raw.has(k.key)) << "t1 missing schema key " << k.key;
  }
  for (const auto& [key, entry] : raw.entries()) {
    EXPECT_NE(config::find_key(key), nullptr) << "unknown key " << key;
  }
}

TEST(DeviceLoader, UnknownSectionAndKeyDiagnostics) {
  EXPECT_EQ(device_error("[cpu]\ncores = 4\n"),
            "test.cfg:2: unknown section [cpu] (see docs/DEVICE_CONFIGS.md "
            "for the schema)");
  const std::string msg =
      device_error(t1_with("banks = 8", "banks_count = 8"));
  EXPECT_NE(msg.find("unknown key 'memory.banks_count'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("[memory] section"), std::string::npos) << msg;
}

TEST(DeviceLoader, MissingRequiredKeysReportedTogether) {
  const std::string msg = device_error(
      "[device]\nname = x\nkind = pcm\nlevels = 4\n");
  EXPECT_NE(msg.find("test.cfg: missing required key(s):"),
            std::string::npos)
      << msg;
  // All absences in one message, not just the first.
  EXPECT_NE(msg.find(" memory.capacity"), std::string::npos) << msg;
  EXPECT_NE(msg.find(" m_metric.state3.sigma_alpha"), std::string::npos)
      << msg;
}

TEST(DeviceLoader, TypedValueDiagnostics) {
  // Non-numeric where a number is required.
  EXPECT_NE(device_error(t1_with("banks = 8", "banks = eight"))
                .find("key 'memory.banks': expected a number, got 'eight'"),
            std::string::npos);
  // Unknown unit suffix, naming the expected family.
  EXPECT_NE(device_error(t1_with("r_read = 150 ns", "r_read = 150 furlongs"))
                .find("unknown unit suffix 'furlongs' — expected a time in "
                      "ns/us/ms/s (base: nanoseconds)"),
            std::string::npos);
  // A suffix on a dimensionless key is an error, not ignored.
  EXPECT_NE(device_error(t1_with("bch_t = 8", "bch_t = 8 ns"))
                .find("key 'ecc.bch_t': unknown unit suffix 'ns' — expected "
                      "a dimensionless number (no unit suffix)"),
            std::string::npos);
  // Range violation.
  EXPECT_NE(device_error(t1_with("bch_t = 8", "bch_t = 99"))
                .find("key 'ecc.bch_t': value 99 out of range [1, 32]"),
            std::string::npos);
  // Fractional value for an integral key (in base units).
  EXPECT_NE(device_error(t1_with("write = 1000 ns", "write = 1.5 ns"))
                .find("key 'timing.write': expected an integral value"),
            std::string::npos);
  // Malformed boolean.
  EXPECT_NE(device_error(t1_with("use_m_sense = true",
                                 "use_m_sense = maybe"))
                .find("key 'scrub.use_m_sense': not a boolean: 'maybe'"),
            std::string::npos);
}

TEST(DeviceLoader, CrossFieldDiagnostics) {
  EXPECT_NE(device_error(t1_with("kind = pcm", "kind = dram"))
                .find("key 'device.kind': expected pcm, rram, or nand"),
            std::string::npos);
  // A non-4-level device points at the mapping documentation.
  EXPECT_NE(device_error(t1_with("levels = 4", "levels = 8"))
                .find("this build models 4-level cells"),
            std::string::npos);
  EXPECT_NE(device_error(t1_with("data_cells = 256", "data_cells = 128"))
                .find("key 'geometry.data_cells': must equal 4 * "
                      "memory.line_bytes"),
            std::string::npos);
  EXPECT_NE(device_error(t1_with("capacity = 16 GB", "capacity = 1000000001"))
                .find("key 'memory.capacity': must divide evenly"),
            std::string::npos);
  EXPECT_NE(device_error(t1_with("state1.mu = 4", "state1.mu = 2"))
                .find("state means must be strictly increasing"),
            std::string::npos);
}

TEST(DeviceLoader, UnitSuffixesConvertToBaseUnits) {
  DeviceConfig d = parse_text(
      t1_with("interval = 640 s", "interval = 2 min"));
  EXPECT_DOUBLE_EQ(d.scrub.interval_s, 120.0);
  d = parse_text(t1_with("r_read = 150 ns", "r_read = 1 us"));
  EXPECT_EQ(d.timing.r_read.v, 1000);
  d = parse_text(t1_with("capacity = 16 GB", "capacity = 2048 MB"));
  EXPECT_EQ(d.org.capacity_bytes, 2048ull << 20);
  d = parse_text(t1_with("r_read = 1000 pJ", "r_read = 1 nJ"));
  EXPECT_DOUBLE_EQ(d.energy.r_read.v, 1000.0);
  d = parse_text(t1_with("static_power = 0.35 W", "static_power = 350 mW"));
  EXPECT_DOUBLE_EQ(d.energy.static_watts, 0.35);
}

// ------------------------------------------------------ golden configs --

void expect_metric_eq(const drift::MetricConfig& a,
                      const drift::MetricConfig& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.t0_seconds, b.t0_seconds);
  EXPECT_EQ(a.program_halfwidth, b.program_halfwidth);
  EXPECT_EQ(a.boundary_halfwidth, b.boundary_halfwidth);
  for (std::size_t i = 0; i < drift::kNumStates; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.states[i].mu, b.states[i].mu);
    EXPECT_EQ(a.states[i].sigma, b.states[i].sigma);
    EXPECT_EQ(a.states[i].mu_alpha, b.states[i].mu_alpha);
    EXPECT_EQ(a.states[i].sigma_alpha, b.states[i].sigma_alpha);
  }
}

TEST(GoldenConfigs, T1ReproducesBuiltinBitForBit) {
  // The default-equivalence guarantee (DESIGN.md §13): every double
  // compared with EXPECT_EQ, not a tolerance — the externalized device
  // must be indistinguishable from the compiled-in one.
  const DeviceConfig t1 = config::load_device(t1_path());
  const DeviceConfig& b = config::builtin_device();
  EXPECT_EQ(t1.name, b.name);
  EXPECT_EQ(t1.kind, b.kind);
  EXPECT_EQ(t1.description, b.description);
  expect_metric_eq(t1.r_metric, b.r_metric);
  expect_metric_eq(t1.m_metric, b.m_metric);
  EXPECT_EQ(t1.geometry.data_cells, b.geometry.data_cells);
  EXPECT_EQ(t1.geometry.ecc_cells, b.geometry.ecc_cells);
  EXPECT_EQ(t1.org.capacity_bytes, b.org.capacity_bytes);
  EXPECT_EQ(t1.org.num_banks, b.org.num_banks);
  EXPECT_EQ(t1.org.line_bytes, b.org.line_bytes);
  EXPECT_EQ(t1.org.cells_per_line, b.org.cells_per_line);
  EXPECT_EQ(t1.org.lines_per_scrub, b.org.lines_per_scrub);
  EXPECT_EQ(t1.timing.r_read.v, b.timing.r_read.v);
  EXPECT_EQ(t1.timing.m_read.v, b.timing.m_read.v);
  EXPECT_EQ(t1.timing.rm_read.v, b.timing.rm_read.v);
  EXPECT_EQ(t1.timing.write.v, b.timing.write.v);
  EXPECT_EQ(t1.timing.bus_transfer.v, b.timing.bus_transfer.v);
  EXPECT_EQ(t1.energy.r_read.v, b.energy.r_read.v);
  EXPECT_EQ(t1.energy.m_read.v, b.energy.m_read.v);
  EXPECT_EQ(t1.energy.cell_write.v, b.energy.cell_write.v);
  EXPECT_EQ(t1.energy.internal_sense_scale, b.energy.internal_sense_scale);
  EXPECT_EQ(t1.energy.tlc_write_scale, b.energy.tlc_write_scale);
  EXPECT_EQ(t1.energy.static_watts, b.energy.static_watts);
  EXPECT_EQ(t1.ecc.bch_t, b.ecc.bch_t);
  EXPECT_EQ(t1.ecc.ecp_pointers, b.ecc.ecp_pointers);
  EXPECT_EQ(t1.scrub.interval_s, b.scrub.interval_s);
  EXPECT_EQ(t1.scrub.w, b.scrub.w);
  EXPECT_EQ(t1.scrub.use_m_sense, b.scrub.use_m_sense);
}

TEST(GoldenConfigs, BuiltinMatchesLegacyCompiledConstants) {
  // builtin_device() is the old hard-coded stack, verbatim.
  const DeviceConfig& b = config::builtin_device();
  expect_metric_eq(b.r_metric, drift::r_metric());
  expect_metric_eq(b.m_metric, drift::m_metric());
  EXPECT_EQ(b.org.capacity_bytes, pcm::MemoryOrg{}.capacity_bytes);
  EXPECT_EQ(b.timing.write.v, pcm::TimingParams{}.write.v);
  EXPECT_EQ(b.energy.cell_write.v, pcm::EnergyParams{}.cell_write.v);
}

TEST(GoldenConfigs, T2DiffersFromT1OnlyInBoundaries) {
  const DeviceConfig t1 = config::load_device(t1_path());
  const DeviceConfig t2 = config::load_device(
      std::string(RD_CONFIGS_DIR) + "/pcm_readduo_t2.cfg");
  EXPECT_EQ(t2.name, "pcm-readduo-t2");
  EXPECT_EQ(t2.r_metric.boundary_halfwidth, 3.0);
  EXPECT_EQ(t2.m_metric.boundary_halfwidth, 3.0);
  // Everything else is t1, bit-for-bit.
  DeviceConfig patched = t2;
  patched.name = t1.name;
  patched.description = t1.description;
  patched.r_metric.boundary_halfwidth = t1.r_metric.boundary_halfwidth;
  patched.m_metric.boundary_halfwidth = t1.m_metric.boundary_halfwidth;
  expect_metric_eq(patched.r_metric, t1.r_metric);
  expect_metric_eq(patched.m_metric, t1.m_metric);
  EXPECT_EQ(patched.org.capacity_bytes, t1.org.capacity_bytes);
  EXPECT_EQ(patched.scrub.interval_s, t1.scrub.interval_s);
}

TEST(GoldenConfigs, CrossTechnologyConfigsValidate) {
  const DeviceConfig rram = config::load_device(
      std::string(RD_CONFIGS_DIR) + "/rram_iss2012.cfg");
  EXPECT_EQ(rram.kind, "rram");
  EXPECT_LT(rram.r_metric.states[3].mu_alpha,
            drift::r_metric().states[3].mu_alpha);
  const DeviceConfig nand = config::load_device(
      std::string(RD_CONFIGS_DIR) + "/nand_tlc_retention.cfg");
  EXPECT_EQ(nand.kind, "nand");
  EXPECT_EQ(nand.r_metric.t0_seconds, 3600.0);
  // Higher-charged NAND states leak faster: alphas increase with index.
  for (std::size_t i = 1; i < drift::kNumStates; ++i) {
    EXPECT_GT(nand.r_metric.states[i].mu_alpha,
              nand.r_metric.states[i - 1].mu_alpha);
  }
}

TEST(GoldenConfigs, AdaptersDeriveChipAndSimParameters) {
  const DeviceConfig& b = config::builtin_device();
  const pcm::ChipConfig chip = config::make_chip_config(b);
  EXPECT_EQ(chip.data_bytes, 64u);
  EXPECT_EQ(chip.bch_t, 8u);
  EXPECT_EQ(chip.ecp_pointers, 6u);
  EXPECT_DOUBLE_EQ(chip.scrub.interval_s, 640.0);
  EXPECT_TRUE(chip.scrub.use_m_sense);
  memsim::SimConfig sim;
  config::apply_device(b, sim);
  EXPECT_EQ(sim.org.capacity_bytes, b.org.capacity_bytes);
  EXPECT_EQ(sim.timing.write.v, b.timing.write.v);
}

// -------------------------------------------------- doc consistency ----

TEST(DeviceDocs, EveryRegisteredKeyIsDocumented) {
  // docs/DEVICE_CONFIGS.md is the config reference; a schema key that is
  // not documented there fails this test. Per-state keys are documented
  // once as stateN.<field>.
  const std::string doc =
      read_file(std::string(RD_DOCS_DIR) + "/DEVICE_CONFIGS.md");
  for (const config::KeySpec& k : config::device_schema()) {
    std::string pattern = k.key;
    const std::size_t st = pattern.find("state");
    if (st != std::string::npos &&
        std::isdigit(static_cast<unsigned char>(pattern[st + 5]))) {
      pattern.replace(st, 6, "stateN");
    }
    // The section prefix is implied by the doc's section headings; look
    // for the bare key (e.g. "`boundary_halfwidth`" or "stateN.mu").
    const std::string bare = pattern.substr(pattern.find('.') + 1);
    EXPECT_NE(doc.find("`" + bare + "`"), std::string::npos)
        << "schema key " << k.key << " (as `" << bare
        << "`) is not documented in docs/DEVICE_CONFIGS.md";
  }
}

TEST(ActiveDevice, PinningAfterResolutionIsAnError) {
  // Whatever this test process resolved first (builtin unless the suite
  // ran under READDUO_DEVICE), a later set_active_device must refuse:
  // singletons have already latched the metrics.
  (void)config::active_device();
  EXPECT_FALSE(config::active_device_source().empty());
  EXPECT_THROW(
      config::set_active_device(config::builtin_device(), "late.cfg"),
      config::ConfigError);
}

}  // namespace
}  // namespace rd
