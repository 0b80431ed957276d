// bench_compare: regression gate over two BENCH_*.json summaries.
//
// Usage: bench_compare <baseline.json> <candidate.json> [max_regress_pct]
//
// Reads the "kernels_ns" section that run_all_benches.sh emits under
// READDUO_BENCH_JSON (one object per rewritten kernel, with nanosecond
// entries "ref" and "opt" plus a derived "speedup" ratio) and
// compares every nanosecond entry present in both files. A metric that
// got slower by more than max_regress_pct percent (default 10) is a
// regression; any regression — or a kernel metric that disappeared from
// the candidate — makes the tool exit nonzero, so run_all_benches.sh can
// use it as an opt-in perf gate (READDUO_BENCH_COMPARE=<baseline.json>).
//
// Dependency-free on purpose: the JSON it reads is the repo's own
// machine-written summary, so a small purpose-built scanner is enough and
// the tool stays buildable anywhere the rest of the repo builds. Derived
// "speedup*" entries are ratios, not times, and are skipped.
//
// Exit codes: 0 = within budget, 1 = regression (or missing metric),
// 2 = usage / file / parse error.

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// Kernel name -> metric name -> nanoseconds. std::map keeps the report
// ordering deterministic across runs and platforms.
using KernelTable = std::map<std::string, std::map<std::string, double>>;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

void skip_ws(const std::string& text, std::size_t& pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
}

// Parse a double-quoted string at `pos` (which must point at the opening
// quote). The summary writer never emits escapes inside names, so a plain
// scan to the closing quote is faithful.
bool parse_string(const std::string& text, std::size_t& pos,
                  std::string* out) {
  if (pos >= text.size() || text[pos] != '"') return false;
  const std::size_t end = text.find('"', pos + 1);
  if (end == std::string::npos) return false;
  *out = text.substr(pos + 1, end - pos - 1);
  pos = end + 1;
  return true;
}

bool parse_number(const std::string& text, std::size_t& pos, double* out) {
  const char* start = text.c_str() + pos;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  pos += static_cast<std::size_t>(end - start);
  *out = v;
  return true;
}

// Extract the "kernels_ns" object: { "name": { "metric": number, ... }, ... }
bool parse_kernels_ns(const std::string& text, KernelTable* table,
                      std::string* err) {
  const std::size_t anchor = text.find("\"kernels_ns\"");
  if (anchor == std::string::npos) {
    *err = "no \"kernels_ns\" section";
    return false;
  }
  std::size_t pos = text.find('{', anchor);
  if (pos == std::string::npos) {
    *err = "\"kernels_ns\" has no object";
    return false;
  }
  ++pos;  // past the outer '{'
  for (;;) {
    skip_ws(text, pos);
    if (pos < text.size() && text[pos] == ',') {
      ++pos;
      skip_ws(text, pos);
    }
    if (pos >= text.size()) {
      *err = "unterminated kernels_ns object";
      return false;
    }
    if (text[pos] == '}') return true;  // end of kernels_ns
    std::string kernel;
    if (!parse_string(text, pos, &kernel)) {
      *err = "expected a kernel name string";
      return false;
    }
    skip_ws(text, pos);
    if (pos >= text.size() || text[pos] != ':') {
      *err = "expected ':' after kernel name '" + kernel + "'";
      return false;
    }
    ++pos;
    skip_ws(text, pos);
    if (pos >= text.size() || text[pos] != '{') {
      *err = "expected '{' for kernel '" + kernel + "'";
      return false;
    }
    ++pos;
    for (;;) {
      skip_ws(text, pos);
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        skip_ws(text, pos);
      }
      if (pos >= text.size()) {
        *err = "unterminated entry for kernel '" + kernel + "'";
        return false;
      }
      if (text[pos] == '}') {
        ++pos;
        break;
      }
      std::string metric;
      double value = 0.0;
      if (!parse_string(text, pos, &metric)) {
        *err = "expected a metric name in kernel '" + kernel + "'";
        return false;
      }
      skip_ws(text, pos);
      if (pos >= text.size() || text[pos] != ':') {
        *err = "expected ':' after metric '" + metric + "'";
        return false;
      }
      ++pos;
      skip_ws(text, pos);
      if (!parse_number(text, pos, &value)) {
        *err = "expected a number for metric '" + metric + "'";
        return false;
      }
      (*table)[kernel][metric] = value;
    }
  }
}

bool load(const std::string& path, KernelTable* table) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_compare: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  if (!parse_kernels_ns(buf.str(), table, &err)) {
    std::cerr << "bench_compare: " << path << ": " << err << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::cerr << "usage: bench_compare <baseline.json> <candidate.json>"
                 " [max_regress_pct]\n";
    return 2;
  }
  double max_pct = 10.0;
  if (argc == 4) {
    char* end = nullptr;
    max_pct = std::strtod(argv[3], &end);
    if (end == argv[3] || *end != '\0' || !(max_pct >= 0.0)) {
      std::cerr << "bench_compare: max_regress_pct must be a nonnegative"
                   " number, got '"
                << argv[3] << "'\n";
      return 2;
    }
  }

  KernelTable base, cand;
  if (!load(argv[1], &base) || !load(argv[2], &cand)) return 2;

  int regressions = 0;
  int compared = 0;
  for (const auto& [kernel, metrics] : base) {
    for (const auto& [metric, old_ns] : metrics) {
      if (starts_with(metric, "speedup")) continue;  // derived ratio
      const auto kit = cand.find(kernel);
      if (kit == cand.end() || kit->second.count(metric) == 0) {
        std::cout << "MISSING  " << kernel << "." << metric
                  << " (in baseline, absent from candidate)\n";
        ++regressions;
        continue;
      }
      const double new_ns = kit->second.at(metric);
      ++compared;
      const double delta_pct =
          old_ns > 0.0 ? (new_ns - old_ns) / old_ns * 100.0 : 0.0;
      const bool regressed = delta_pct > max_pct;
      std::cout << (regressed ? "REGRESS  " : "ok       ") << kernel << "."
                << metric << "  " << old_ns << " -> " << new_ns << " ns  ("
                << (delta_pct >= 0.0 ? "+" : "") << delta_pct << "%)\n";
      if (regressed) ++regressions;
    }
  }
  // New kernels/metrics in the candidate are fine (a new tier landing is
  // the expected way this file grows) — list them for the record.
  for (const auto& [kernel, metrics] : cand) {
    for (const auto& [metric, ns] : metrics) {
      if (starts_with(metric, "speedup")) continue;
      const auto kit = base.find(kernel);
      if (kit == base.end() || kit->second.count(metric) == 0) {
        std::cout << "new      " << kernel << "." << metric << "  " << ns
                  << " ns (no baseline)\n";
      }
    }
  }
  if (compared == 0 && regressions == 0) {
    std::cerr << "bench_compare: nothing to compare (empty kernels_ns?)\n";
    return 2;
  }
  std::cout << "bench_compare: " << compared << " metric(s) compared, "
            << regressions << " regression(s), budget " << max_pct << "%\n";
  return regressions > 0 ? 1 : 0;
}
