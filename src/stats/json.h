// Tiny JSON writer for machine-readable simulation reports (the gem5
// stats-dump role). Writes one flat object; values are numbers or strings.
#pragma once

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <tuple>
#include <string>
#include <vector>

#include "stats/histogram.h"

namespace rd::stats {

/// Accumulates key/value pairs and renders a JSON object. Insertion order
/// is preserved; keys are not deduplicated (callers own uniqueness).
class JsonWriter {
 public:
  JsonWriter& add(const std::string& key, double v) {
    std::ostringstream os;
    os << v;
    items_.emplace_back(key, os.str(), /*quoted=*/false);
    return *this;
  }
  JsonWriter& add(const std::string& key, std::uint64_t v) {
    items_.emplace_back(key, std::to_string(v), false);
    return *this;
  }
  JsonWriter& add(const std::string& key, std::int64_t v) {
    items_.emplace_back(key, std::to_string(v), false);
    return *this;
  }
  JsonWriter& add(const std::string& key, const std::string& v) {
    items_.emplace_back(key, escape(v), true);
    return *this;
  }
  /// Insert a pre-rendered JSON value (object, array, …) verbatim. The
  /// caller owns its validity; this is how nested structures are built
  /// from flat writers.
  JsonWriter& add_raw(const std::string& key, const std::string& json) {
    items_.emplace_back(key, json, /*quoted=*/false);
    return *this;
  }

  /// Render as a JSON object, one key per line.
  std::string str() const {
    std::ostringstream os;
    os << "{\n";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const auto& [k, v, quoted] = items_[i];
      os << "  \"" << escape(k) << "\": ";
      if (quoted) os << '"' << v << '"'; else os << v;
      if (i + 1 < items_.size()) os << ',';
      os << '\n';
    }
    os << "}\n";
    return os.str();
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::vector<std::tuple<std::string, std::string, bool>> items_;
};

/// One latency histogram as a JSON object (count, mean, p50, p95, p99 and
/// max in ns), without str()'s trailing newline so that it nests through
/// add_raw: the READDUO_METRICS export and readduo_load's summary share it.
inline std::string latency_json(const LatencyHistogram& h) {
  JsonWriter jw;
  jw.add("count", h.count())
      .add("mean_ns", h.mean())
      .add("p50_ns", h.p50())
      .add("p95_ns", h.p95())
      .add("p99_ns", h.p99())
      .add("max_ns", h.max());
  std::string json = jw.str();
  json.pop_back();
  return json;
}

}  // namespace rd::stats
