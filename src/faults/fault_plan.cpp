#include "faults/fault_plan.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace rd::faults {

namespace {

/// Trim ASCII spaces and tabs from both ends.
std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::uint64_t parse_uint(const std::string& clause, const std::string& v) {
  RD_CHECK_MSG(!v.empty(), "READDUO_FAULTS clause '" << clause
                                                     << "': empty integer");
  for (char c : v) {
    RD_CHECK_MSG(c >= '0' && c <= '9',
                 "READDUO_FAULTS clause '" << clause << "': '" << v
                                           << "' is not a plain integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  RD_CHECK_MSG(errno == 0 && end == v.c_str() + v.size(),
               "READDUO_FAULTS clause '" << clause << "': '" << v
                                         << "' is out of range");
  return x;
}

double parse_real(const std::string& clause, const std::string& v) {
  RD_CHECK_MSG(!v.empty(), "READDUO_FAULTS clause '" << clause
                                                     << "': empty number");
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  RD_CHECK_MSG(errno == 0 && end == v.c_str() + v.size(),
               "READDUO_FAULTS clause '" << clause << "': '" << v
                                         << "' is not a number");
  RD_CHECK_MSG(x == x && x <= std::numeric_limits<double>::max() &&
                   x >= -std::numeric_limits<double>::max(),
               "READDUO_FAULTS clause '" << clause << "': '" << v
                                         << "' is not finite");
  return x;
}

double parse_prob(const std::string& clause, const std::string& v) {
  const double p = parse_real(clause, v);
  RD_CHECK_MSG(p >= 0.0 && p <= 1.0, "READDUO_FAULTS clause '"
                                         << clause << "': probability " << v
                                         << " outside [0, 1]");
  return p;
}

/// One clause's key=value pairs, order preserved, duplicates rejected.
struct KvList {
  std::vector<std::string> keys;
  std::vector<std::string> vals;

  bool has(const std::string& k) const {
    for (const std::string& key : keys) {
      if (key == k) return true;
    }
    return false;
  }
  const std::string& get(const std::string& k) const {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == k) return vals[i];
    }
    RD_CHECK_MSG(false, "missing key '" << k << "'");
    static const std::string kEmpty;
    return kEmpty;  // unreachable
  }
};

KvList parse_kvs(const std::string& clause, const std::string& body,
                 const std::vector<std::string>& allowed) {
  KvList kvs;
  if (trim(body).empty()) return kvs;
  for (const std::string& raw : split(body, ',')) {
    const std::string kv = trim(raw);
    const std::size_t eq = kv.find('=');
    RD_CHECK_MSG(eq != std::string::npos && eq > 0 && eq + 1 <= kv.size(),
                 "READDUO_FAULTS clause '" << clause << "': '" << kv
                                           << "' is not key=value");
    const std::string k = trim(kv.substr(0, eq));
    const std::string v = trim(kv.substr(eq + 1));
    bool known = false;
    for (const std::string& a : allowed) known = known || a == k;
    RD_CHECK_MSG(known, "READDUO_FAULTS clause '" << clause
                                                  << "': unknown key '" << k
                                                  << "'");
    RD_CHECK_MSG(!kvs.has(k), "READDUO_FAULTS clause '"
                                  << clause << "': duplicate key '" << k
                                  << "'");
    kvs.keys.push_back(k);
    kvs.vals.push_back(v);
  }
  return kvs;
}

std::string render_real(double x) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << x;
  return os.str();
}

}  // namespace

const char* fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kStuckCell: return "stuck";
    case FaultClass::kSenseOffset: return "sense";
    case FaultClass::kLwtVector: return "lwt-vec";
    case FaultClass::kLwtIndex: return "lwt-ind";
    case FaultClass::kBchError: return "bch";
    case FaultClass::kTraceShortRead: return "trace";
    case FaultClass::kWireCorrupt: return "wire";
  }
  return "?";
}

bool FaultPlan::affects_simulation() const {
  return stuck_p > 0.0 || !stuck_cells.empty() || sense_p > 0.0 ||
         lwt_vec_p > 0.0 || lwt_ind_p > 0.0 || bch_p > 0.0;
}

bool FaultPlan::any() const {
  return affects_simulation() || trace_p > 0.0 || trace_fail_reads > 0 ||
         wire_p > 0.0;
}

bool operator==(const FaultPlan& a, const FaultPlan& b) {
  return a.seed == b.seed && a.stuck_p == b.stuck_p &&
         a.stuck_level == b.stuck_level && a.stuck_cells == b.stuck_cells &&
         a.sense_p == b.sense_p && a.sense_mag == b.sense_mag &&
         a.lwt_vec_p == b.lwt_vec_p && a.lwt_ind_p == b.lwt_ind_p &&
         a.bch_p == b.bch_p && a.bch_e == b.bch_e &&
         a.trace_p == b.trace_p &&
         a.trace_fail_reads == b.trace_fail_reads && a.wire_p == b.wire_p;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  // Newlines act as clause separators (the file form); '#' starts a
  // comment running to end of line.
  std::string flat;
  bool in_comment = false;
  for (char c : spec) {
    if (c == '#') in_comment = true;
    if (c == '\n' || c == '\r') {
      flat += ';';
      in_comment = false;
      continue;
    }
    if (!in_comment) flat += c;
  }

  bool saw_probabilistic_stuck = false;
  std::vector<bool> saw(kNumFaultClasses, false);
  bool saw_seed = false;

  for (const std::string& raw : split(flat, ';')) {
    const std::string clause = trim(raw);
    if (clause.empty()) continue;

    if (clause.rfind("seed=", 0) == 0) {
      RD_CHECK_MSG(!saw_seed, "READDUO_FAULTS: duplicate seed clause");
      saw_seed = true;
      plan.seed = parse_uint(clause, trim(clause.substr(5)));
      continue;
    }

    const std::size_t colon = clause.find(':');
    const std::string name = trim(clause.substr(0, colon));
    const std::string body =
        colon == std::string::npos ? "" : clause.substr(colon + 1);

    if (name == "stuck") {
      const KvList kvs =
          parse_kvs(clause, body, {"p", "level", "line", "cell"});
      unsigned level = 3;
      if (kvs.has("level")) {
        const std::uint64_t l = parse_uint(clause, kvs.get("level"));
        RD_CHECK_MSG(l <= 3, "READDUO_FAULTS clause '"
                                 << clause << "': level must be 0..3");
        level = static_cast<unsigned>(l);
      }
      if (kvs.has("line") || kvs.has("cell")) {
        RD_CHECK_MSG(kvs.has("line") && kvs.has("cell") && !kvs.has("p"),
                     "READDUO_FAULTS clause '"
                         << clause
                         << "': an explicit stuck cell needs line= and "
                            "cell= (and no p=)");
        plan.stuck_cells.push_back(
            StuckAddress{parse_uint(clause, kvs.get("line")),
                         parse_uint(clause, kvs.get("cell")), level});
      } else {
        RD_CHECK_MSG(kvs.has("p"), "READDUO_FAULTS clause '"
                                       << clause
                                       << "': stuck needs p= or line=/cell=");
        RD_CHECK_MSG(!saw_probabilistic_stuck,
                     "READDUO_FAULTS: duplicate probabilistic stuck clause");
        saw_probabilistic_stuck = true;
        plan.stuck_p = parse_prob(clause, kvs.get("p"));
        plan.stuck_level = level;
      }
      continue;
    }

    FaultClass cls{};
    if (name == "sense") {
      cls = FaultClass::kSenseOffset;
    } else if (name == "lwt-vec") {
      cls = FaultClass::kLwtVector;
    } else if (name == "lwt-ind") {
      cls = FaultClass::kLwtIndex;
    } else if (name == "bch") {
      cls = FaultClass::kBchError;
    } else if (name == "trace") {
      cls = FaultClass::kTraceShortRead;
    } else if (name == "wire") {
      cls = FaultClass::kWireCorrupt;
    } else {
      RD_CHECK_MSG(false, "READDUO_FAULTS: unknown clause '" << clause
                                                             << "'");
    }
    RD_CHECK_MSG(!saw[static_cast<unsigned>(cls)],
                 "READDUO_FAULTS: duplicate '" << name << "' clause");
    saw[static_cast<unsigned>(cls)] = true;

    switch (cls) {
      case FaultClass::kSenseOffset: {
        const KvList kvs = parse_kvs(clause, body, {"p", "mag"});
        RD_CHECK_MSG(kvs.has("p"),
                     "READDUO_FAULTS clause '" << clause << "': needs p=");
        plan.sense_p = parse_prob(clause, kvs.get("p"));
        if (kvs.has("mag")) {
          plan.sense_mag = parse_real(clause, kvs.get("mag"));
          RD_CHECK_MSG(plan.sense_mag > 0.0,
                       "READDUO_FAULTS clause '" << clause
                                                 << "': mag must be > 0");
        }
        break;
      }
      case FaultClass::kLwtVector: {
        const KvList kvs = parse_kvs(clause, body, {"p"});
        RD_CHECK_MSG(kvs.has("p"),
                     "READDUO_FAULTS clause '" << clause << "': needs p=");
        plan.lwt_vec_p = parse_prob(clause, kvs.get("p"));
        break;
      }
      case FaultClass::kLwtIndex: {
        const KvList kvs = parse_kvs(clause, body, {"p"});
        RD_CHECK_MSG(kvs.has("p"),
                     "READDUO_FAULTS clause '" << clause << "': needs p=");
        plan.lwt_ind_p = parse_prob(clause, kvs.get("p"));
        break;
      }
      case FaultClass::kBchError: {
        const KvList kvs = parse_kvs(clause, body, {"p", "e"});
        RD_CHECK_MSG(kvs.has("p"),
                     "READDUO_FAULTS clause '" << clause << "': needs p=");
        plan.bch_p = parse_prob(clause, kvs.get("p"));
        if (kvs.has("e")) {
          const std::uint64_t e = parse_uint(clause, kvs.get("e"));
          // The interesting band: beyond correction (t = 8), within the
          // design-distance detection guarantee.
          RD_CHECK_MSG(e >= 9 && e <= 17,
                       "READDUO_FAULTS clause '" << clause
                                                 << "': e must be 9..17");
          plan.bch_e = static_cast<unsigned>(e);
        }
        break;
      }
      case FaultClass::kTraceShortRead: {
        const KvList kvs = parse_kvs(clause, body, {"p", "n"});
        RD_CHECK_MSG(kvs.has("p") || kvs.has("n"),
                     "READDUO_FAULTS clause '" << clause
                                               << "': needs p= or n=");
        if (kvs.has("p")) plan.trace_p = parse_prob(clause, kvs.get("p"));
        if (kvs.has("n")) {
          plan.trace_fail_reads =
              static_cast<unsigned>(parse_uint(clause, kvs.get("n")));
        }
        break;
      }
      case FaultClass::kWireCorrupt: {
        const KvList kvs = parse_kvs(clause, body, {"p"});
        RD_CHECK_MSG(kvs.has("p"),
                     "READDUO_FAULTS clause '" << clause << "': needs p=");
        plan.wire_p = parse_prob(clause, kvs.get("p"));
        break;
      }
      case FaultClass::kStuckCell:
        break;  // handled above
    }
  }
  return plan;
}

std::string FaultPlan::canonical() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (stuck_p > 0.0) {
    os << ";stuck:p=" << render_real(stuck_p) << ",level=" << stuck_level;
  }
  for (const StuckAddress& a : stuck_cells) {
    os << ";stuck:line=" << a.line << ",cell=" << a.cell
       << ",level=" << a.level;
  }
  if (sense_p > 0.0) {
    os << ";sense:p=" << render_real(sense_p)
       << ",mag=" << render_real(sense_mag);
  }
  if (lwt_vec_p > 0.0) os << ";lwt-vec:p=" << render_real(lwt_vec_p);
  if (lwt_ind_p > 0.0) os << ";lwt-ind:p=" << render_real(lwt_ind_p);
  if (bch_p > 0.0) {
    os << ";bch:p=" << render_real(bch_p) << ",e=" << bch_e;
  }
  if (trace_p > 0.0 || trace_fail_reads > 0) {
    os << ";trace:";
    if (trace_p > 0.0) os << "p=" << render_real(trace_p);
    if (trace_fail_reads > 0) {
      if (trace_p > 0.0) os << ",";
      os << "n=" << trace_fail_reads;
    }
  }
  if (wire_p > 0.0) os << ";wire:p=" << render_real(wire_p);
  return os.str();
}

}  // namespace rd::faults
