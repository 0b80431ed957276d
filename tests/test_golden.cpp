// Golden-file tests: the READDUO_METRICS document and one fig9-class run
// record are rendered in-process and compared field-by-field against
// committed JSON files (float fields with tolerance, counters exactly).
// They pin two contracts at once: the export schema (a renamed or dropped
// field fails loudly) and zero-overhead-when-off (the goldens were
// produced with faults off, so any fault-machinery leakage into clean
// runs shows up as a value drift).
//
// Regenerate with READDUO_REGEN_GOLDEN=1 (the test then writes the file
// and skips); goldens live in tests/golden/ (RD_GOLDEN_DIR).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/env.h"
#include "harness.h"
#include "readduo/schemes.h"
#include "scoped_env.h"
#include "trace/workload.h"

namespace rd {
namespace {

// --- a minimal JSON flattener ----------------------------------------------
// Good enough for the repo's own JsonWriter output: objects, arrays,
// strings, and bare number tokens. Produces path -> raw-token pairs like
// "runs[0].latency.r_read.p99_ns" -> "1234".

using FlatJson = std::map<std::string, std::string>;

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

std::string parse_string(const std::string& s, std::size_t& i) {
  std::string out;
  if (i >= s.size() || s[i] != '"') {
    ADD_FAILURE() << "expected string at offset " << i;
    return out;
  }
  ++i;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[i];
      ++i;
    }
    out += s[i];
    ++i;
  }
  if (i >= s.size()) {
    ADD_FAILURE() << "unterminated string";
    return out;
  }
  ++i;  // closing quote
  return out;
}

void parse_value(const std::string& s, std::size_t& i, const std::string& path,
                 FlatJson& out);

void parse_object(const std::string& s, std::size_t& i,
                  const std::string& path, FlatJson& out) {
  ++i;  // '{'
  skip_ws(s, i);
  if (i < s.size() && s[i] == '}') {
    ++i;
    return;
  }
  while (i < s.size()) {
    skip_ws(s, i);
    std::string key = parse_string(s, i);
    skip_ws(s, i);
    ASSERT_TRUE(i < s.size() && s[i] == ':') << "expected ':' at " << i;
    ++i;
    parse_value(s, i, path.empty() ? key : path + "." + key, out);
    skip_ws(s, i);
    ASSERT_TRUE(i < s.size()) << "unterminated object";
    if (s[i] == ',') {
      ++i;
      continue;
    }
    ASSERT_EQ(s[i], '}') << "expected '}' at " << i;
    ++i;
    return;
  }
}

void parse_array(const std::string& s, std::size_t& i, const std::string& path,
                 FlatJson& out) {
  ++i;  // '['
  skip_ws(s, i);
  if (i < s.size() && s[i] == ']') {
    ++i;
    return;
  }
  std::size_t index = 0;
  while (i < s.size()) {
    parse_value(s, i, path + "[" + std::to_string(index++) + "]", out);
    skip_ws(s, i);
    ASSERT_TRUE(i < s.size()) << "unterminated array";
    if (s[i] == ',') {
      ++i;
      skip_ws(s, i);
      continue;
    }
    ASSERT_EQ(s[i], ']') << "expected ']' at " << i;
    ++i;
    return;
  }
}

void parse_value(const std::string& s, std::size_t& i, const std::string& path,
                 FlatJson& out) {
  skip_ws(s, i);
  ASSERT_TRUE(i < s.size()) << "missing value for " << path;
  if (s[i] == '{') {
    parse_object(s, i, path, out);
  } else if (s[i] == '[') {
    parse_array(s, i, path, out);
  } else if (s[i] == '"') {
    out[path] = "\"" + parse_string(s, i) + "\"";
  } else {
    std::size_t start = i;
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
           !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    out[path] = s.substr(start, i - start);
  }
}

FlatJson flatten(const std::string& text) {
  FlatJson out;
  std::size_t i = 0;
  parse_value(text, i, "", out);
  return out;
}

/// Leaf key of a path ("runs[0].wall_ms" -> "wall_ms").
std::string leaf_of(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  std::string leaf = dot == std::string::npos ? path : path.substr(dot + 1);
  const std::size_t bracket = leaf.find('[');
  if (bracket != std::string::npos) leaf.resize(bracket);
  return leaf;
}

bool parse_number(const std::string& t, double& v) {
  char* end = nullptr;
  v = std::strtod(t.c_str(), &end);
  return end != nullptr && *end == '\0' && end != t.c_str();
}

bool looks_float(const std::string& t) {
  return t.find('.') != std::string::npos ||
         t.find('e') != std::string::npos || t.find('E') != std::string::npos;
}

/// Field-by-field comparison: identical key sets (minus ignored leaves),
/// exact match for strings and integer counters, small relative tolerance
/// for float fields (they round-trip through text).
void expect_json_matches(const std::string& golden_text,
                         const std::string& actual_text,
                         const std::set<std::string>& ignored_leaves) {
  const FlatJson golden = flatten(golden_text);
  const FlatJson actual = flatten(actual_text);
  for (const auto& [path, gval] : golden) {
    if (ignored_leaves.count(leaf_of(path)) != 0) continue;
    const auto it = actual.find(path);
    if (it == actual.end()) {
      ADD_FAILURE() << "field missing from actual output: " << path;
      continue;
    }
    const std::string& aval = it->second;
    double g = 0.0, a = 0.0;
    if (parse_number(gval, g) && parse_number(aval, a) &&
        (looks_float(gval) || looks_float(aval))) {
      const double tol = 1e-9 * std::max({1.0, std::abs(g), std::abs(a)});
      EXPECT_NEAR(a, g, tol) << path;
    } else {
      EXPECT_EQ(aval, gval) << path;
    }
  }
  for (const auto& [path, aval] : actual) {
    if (ignored_leaves.count(leaf_of(path)) != 0) continue;
    EXPECT_NE(golden.find(path), golden.end())
        << "unexpected new field in actual output: " << path
        << " (regenerate goldens with READDUO_REGEN_GOLDEN=1 if the schema "
           "grew on purpose)";
  }
}

std::string golden_path(const char* name) {
  return std::string(RD_GOLDEN_DIR) + "/" + name;
}

/// Regen mode: overwrite the golden and skip. Returns true when handled.
bool maybe_regen(const char* name, const std::string& body) {
  const char* e = env_cstr("READDUO_REGEN_GOLDEN");
  if (e == nullptr || std::string(e) != "1") return false;
  std::ofstream out(golden_path(name));
  out << body;
  return true;
}

std::string read_golden(const char* name) {
  std::ifstream in(golden_path(name));
  EXPECT_TRUE(static_cast<bool>(in))
      << "missing golden " << golden_path(name)
      << " — regenerate with READDUO_REGEN_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Wall-clock fields are the only nondeterministic part of the export once
// the cache is off and THREADS is pinned.
const std::set<std::string>& time_fields() {
  static const std::set<std::string> kIgnore = {"wall_ms", "sim_wall_ms",
                                                "max_run_ms"};
  return kIgnore;
}

// --- the goldens ------------------------------------------------------------

TEST(Golden, Fig9ClassRunRecord) {
  ScopedEnv cache("READDUO_CACHE", "0");
  ScopedEnv instr("READDUO_INSTR", "60000");
  ScopedEnv threads("READDUO_THREADS", "1");
  const trace::Workload& w = trace::workload_by_name("mcf");
  const bench::RunResult r =
      bench::run_scheme(readduo::SchemeKind::kHybrid, w, {}, /*seed=*/42);
  const std::string body =
      bench::detail::render_run_json(w.name, 42, /*cached=*/false,
                                     /*wall_ms=*/0.0, r) +
      "\n";
  if (maybe_regen("fig9_hybrid_mcf.json", body)) {
    GTEST_SKIP() << "regenerated fig9_hybrid_mcf.json";
  }
  expect_json_matches(read_golden("fig9_hybrid_mcf.json"), body,
                      time_fields());
}

TEST(Golden, MetricsDocumentV2) {
  ScopedEnv cache("READDUO_CACHE", "0");
  ScopedEnv instr("READDUO_INSTR", "20000");
  ScopedEnv threads("READDUO_THREADS", "1");
  ScopedEnv metrics("READDUO_METRICS", "1");  // record runs for the export
  bench::set_bench_name("golden");
  bench::run_scheme(readduo::SchemeKind::kScrubbing,
                    trace::workload_by_name("mcf"), {}, /*seed=*/42);
  bench::run_scheme(readduo::SchemeKind::kLwt,
                    trace::workload_by_name("lbm"), {}, /*seed=*/7);
  const std::string body = bench::detail::render_metrics_json();
  if (maybe_regen("metrics_golden.json", body)) {
    GTEST_SKIP() << "regenerated metrics_golden.json";
  }
  // cache_hits/cache_misses are process-global harness counters: their
  // values depend on which other tests ran in this process (ctest runs
  // one test per process, a bare ./test_golden runs both), so only the
  // per-run simulation counters are pinned exactly.
  std::set<std::string> ignored = time_fields();
  ignored.insert("cache_hits");
  ignored.insert("cache_misses");
  expect_json_matches(read_golden("metrics_golden.json"), body, ignored);
}

}  // namespace
}  // namespace rd
