// readduo_lint — determinism & unit-safety checker for this repo.
//
// The reproduction's headline guarantees (bit-identical results across
// READDUO_THREADS, an integral-nanosecond clock, every knob documented)
// are invariants of the *source*, not just of the current test outputs.
// This tool enforces them by construction with a dependency-free
// tokenizing line scanner — no libclang, nothing to install:
//
//   no-rand       libc / std random sources outside common/rng.*
//   no-wallclock  wall-clock reads outside the bench harness
//   no-getenv     raw getenv outside common/env.h (the audited gateway)
//   no-unordered  unordered containers in result-producing code
//   unit-conv     raw 1e9 / 1e-9 ns<->s conversions outside units.h
//                 and the analytic drift layer
//   sig-ns        function parameters `int64_t ..ns` instead of rd::Ns
//   sig-seconds   function parameters `double ..s/..seconds` outside the
//                 seconds-domain layers (drift, pcm cell physics, schemes)
//   env-registry  READDUO_* string literals missing from the registry
//                 below or from README.md
//   lint-allow    malformed suppression (missing reason / unknown rule)
//
// Concurrency-discipline rules (PR 8; see common/thread_annotations.h and
// DESIGN.md §8 — these keep the Clang -Wthread-safety gate honest by
// construction, so locking that the analysis cannot see never ships):
//
//   no-bare-mutex raw std::mutex / lock_guard / unique_lock /
//                 condition_variable outside the annotated rd::Mutex
//                 wrapper header (invisible to the capability analysis)
//   guarded-field a `_mu`-suffixed rd::Mutex member that no
//                 RD_GUARDED_BY / RD_REQUIRES / RD_ACQUIRE annotation in
//                 the file references — a capability guarding nothing
//   atomic-order  std::atomic load/store/RMW without an explicit
//                 std::memory_order (seq-cst-by-default hides intent)
//   no-detach     std::thread::detach or a naked `new std::thread` —
//                 every thread must be joined by an owner
//
// Violations print `file:line: rule-id: message` and exit nonzero; the
// last line is always a `N violation(s)` summary. `--max-findings=N`
// truncates the per-finding output (CI log hygiene) without changing the
// summary count or the exit code.
// Suppression: a trailing comment of the form
//   lint: allow(no-rand) reproducing libc behaviour under test
// on the offending line, or on a standalone comment line directly above
// it. The rule-id must be real and the reason is required.
//
// Self-test: `readduo_lint --selftest <fixture-dir>` scans the fixtures
// (classified as if under src/) and compares the findings against
// `// expect: rule-id [rule-id...]` markers, proving each rule fires and
// suppressions are honored.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ registry ---
// Every READDUO_* environment knob the repo is allowed to mention. A new
// knob must be added here *and* documented in README.md before it ships.
const std::set<std::string>& env_registry() {
  static const std::set<std::string> kRegistry = {
      "READDUO_BENCH_COMPARE", "READDUO_BENCH_JSON", "READDUO_COVERAGE",
      "READDUO_DEVICE",        "READDUO_FAULTS",     "READDUO_INSTR",
      "READDUO_KERNELS",       "READDUO_METRICS",    "READDUO_REGEN_GOLDEN",
      "READDUO_SANITIZE",      "READDUO_THREADS",    "READDUO_TRACE",
      "READDUO_TSAN_SOAK",
  };
  return kRegistry;
}

const std::set<std::string>& known_rules() {
  static const std::set<std::string> kRules = {
      "no-rand",       "no-wallclock",  "no-getenv",    "no-unordered",
      "unit-conv",     "sig-ns",        "sig-seconds",  "env-registry",
      "lint-allow",    "no-bare-mutex", "guarded-field", "atomic-order",
      "no-detach",
  };
  return kRules;
}

// Per-file allowlist: these files *are* the audited implementation the
// rule funnels everything through.
bool file_allowed(const std::string& rel, const std::string& rule) {
  static const std::multimap<std::string, std::string> kAllow = {
      {"no-rand", "src/common/rng.cpp"},
      {"no-rand", "src/common/rng.h"},
      {"no-wallclock", "bench/harness.cpp"},  // harness wall-clock metrics
      // Load-gen throughput (req per wall second) is a wall-clock
      // quantity by definition; all sim latencies stay virtual.
      {"no-wallclock", "tools/readduo_load.cpp"},
      {"no-getenv", "src/common/env.h"},      // the audited gateway
      // The wrapper header *is* the audited std::mutex implementation.
      {"no-bare-mutex", "src/common/thread_annotations.h"},
  };
  auto [lo, hi] = kAllow.equal_range(rule);
  for (auto it = lo; it != hi; ++it) {
    if (rel == it->second) return true;
  }
  return false;
}

bool starts_with(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}

// ------------------------------------------------------------- scanner ---

/// One physical line split into scan domains.
struct LinePieces {
  std::string code;                  ///< comments and literal bodies blanked
  std::string comment;               ///< concatenated comment text
  std::vector<std::string> strings;  ///< string literal bodies
};

/// Split `line` into code / comment / string-literal domains. `in_block`
/// carries /* ... */ state across lines. Escapes inside literals are
/// honored; raw strings are treated as plain strings (good enough for this
/// codebase, which has none).
LinePieces split_line(const std::string& line, bool& in_block) {
  LinePieces out;
  std::string cur_string;
  enum class St { kCode, kString, kChar, kLine, kBlock };
  St st = in_block ? St::kBlock : St::kCode;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    const char nxt = i + 1 < line.size() ? line[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '"') {
          st = St::kString;
          out.code += '"';
        } else if (c == '\'') {
          st = St::kChar;
          out.code += ' ';
        } else if (c == '/' && nxt == '/') {
          out.comment += line.substr(i + 2);
          i = line.size();
          st = St::kLine;
        } else if (c == '/' && nxt == '*') {
          st = St::kBlock;
          ++i;
        } else {
          out.code += c;
        }
        break;
      case St::kString:
        if (c == '\\' && nxt != '\0') {
          cur_string += c;
          cur_string += nxt;
          ++i;
        } else if (c == '"') {
          out.strings.push_back(cur_string);
          cur_string.clear();
          out.code += '"';
          st = St::kCode;
        } else {
          cur_string += c;
        }
        break;
      case St::kChar:
        if (c == '\\' && nxt != '\0') {
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
      case St::kLine:
        break;
      case St::kBlock:
        if (c == '*' && nxt == '/') {
          st = St::kCode;
          ++i;
        } else {
          out.comment += c;
        }
        break;
    }
  }
  if (st == St::kString || st == St::kChar) {
    // Unterminated literal on this line (multi-line string): keep what we
    // have; the compiler polices actual syntax.
    if (!cur_string.empty()) out.strings.push_back(cur_string);
  }
  in_block = st == St::kBlock;
  return out;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `word` occurs in `code` with identifier boundaries on both
/// sides. When `call_only`, the next non-space character must be '('.
bool has_token(const std::string& code, const std::string& word,
               bool call_only = false) {
  std::size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const bool lb = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t end = pos + word.size();
    const bool rb = end >= code.size() || !ident_char(code[end]);
    if (lb && rb) {
      if (!call_only) return true;
      while (end < code.size() && code[end] == ' ') ++end;
      if (end < code.size() && code[end] == '(') return true;
    }
    pos += word.size();
  }
  return false;
}

/// Find a `1e9` / `1e-9`-style literal (optionally `1.0e9`) in `code`.
bool has_ns_conversion_literal(const std::string& code) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '1') continue;
    if (i > 0 && (ident_char(code[i - 1]) || code[i - 1] == '.')) continue;
    std::size_t j = i + 1;
    if (j < code.size() && code[j] == '.') {
      ++j;
      std::size_t zeros = 0;
      while (j < code.size() && code[j] == '0') ++j, ++zeros;
      if (zeros == 0) continue;  // 1.5e9 is not a pure ns<->s factor
    }
    if (j >= code.size() || (code[j] != 'e' && code[j] != 'E')) continue;
    ++j;
    if (j < code.size() && (code[j] == '+' || code[j] == '-')) ++j;
    std::string digits;
    while (j < code.size() && std::isdigit(static_cast<unsigned char>(code[j]))) {
      digits += code[j++];
    }
    if (j < code.size() && (ident_char(code[j]) || code[j] == '.')) continue;
    if (digits == "9" || digits == "09") return true;
  }
  return false;
}

/// Find a function parameter of the form `<type> <name><end>` where `name`
/// satisfies `name_matches` and `<end>` is ',' or ')'. Members with
/// initializers (`= 0;`) deliberately do not match.
template <typename NameFn>
bool has_param(const std::string& code, const std::vector<std::string>& types,
               NameFn name_matches) {
  for (const std::string& ty : types) {
    std::size_t pos = 0;
    while ((pos = code.find(ty, pos)) != std::string::npos) {
      const bool lb = pos == 0 || !ident_char(code[pos - 1]);
      std::size_t j = pos + ty.size();
      pos += ty.size();
      if (!lb || (j < code.size() && ident_char(code[j]))) continue;
      while (j < code.size() && code[j] == ' ') ++j;
      std::string name;
      while (j < code.size() && ident_char(code[j])) name += code[j++];
      if (name.empty() || !name_matches(name)) continue;
      while (j < code.size() && code[j] == ' ') ++j;
      if (j < code.size() && (code[j] == ',' || code[j] == ')')) return true;
    }
  }
  return false;
}

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// True when `word` occurs in `code` as a *method* call: identifier
/// boundaries, preceded (ignoring spaces) by '.' or '->', followed
/// (ignoring spaces) by '('. On success `*open_out` is the index of the
/// opening parenthesis. Distinguishes `flags.load(...)` from free
/// functions like `load_cached(...)`.
bool find_method_call(const std::string& code, const std::string& word,
                      std::size_t* open_out) {
  std::size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const bool lb = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t end = pos + word.size();
    const bool rb = end >= code.size() || !ident_char(code[end]);
    if (lb && rb) {
      std::size_t before = pos;
      while (before > 0 && code[before - 1] == ' ') --before;
      const bool method =
          (before > 0 && code[before - 1] == '.') ||
          (before > 1 && code[before - 2] == '-' && code[before - 1] == '>');
      std::size_t open = end;
      while (open < code.size() && code[open] == ' ') ++open;
      if (method && open < code.size() && code[open] == '(') {
        *open_out = open;
        return true;
      }
    }
    pos += word.size();
  }
  return false;
}

/// True when `needle` occurs in `code` with identifier boundaries and the
/// token after it (ignoring spaces) begins an identifier satisfying
/// `take_decl`: used for `Mutex <name>` declaration spotting.
template <typename DeclFn>
void for_each_type_decl(const std::string& code, const std::string& type,
                        DeclFn take_decl) {
  std::size_t pos = 0;
  while ((pos = code.find(type, pos)) != std::string::npos) {
    const bool lb = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t j = pos + type.size();
    pos += type.size();
    if (!lb || (j < code.size() && ident_char(code[j]))) continue;
    while (j < code.size() && code[j] == ' ') ++j;
    std::string name;
    while (j < code.size() && ident_char(code[j])) name += code[j++];
    if (name.empty()) continue;
    while (j < code.size() && code[j] == ' ') ++j;
    // A declaration ends in ';' (member), '{' (braced init) or '=' —
    // `Mutex` as a parameter or return type does not match.
    if (j < code.size() && (code[j] == ';' || code[j] == '{' ||
                            code[j] == '=')) {
      take_decl(name);
    }
  }
}

// ------------------------------------------------------------ findings ---

struct Finding {
  std::string file;  ///< path as reported
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct ScanContext {
  bool treat_as_src = false;  ///< selftest: classify everything as src/
  std::vector<Finding>* out = nullptr;
};

/// Suppressions and expectations parsed from one line's comment text.
struct CommentMarks {
  std::set<std::string> allowed;
  std::set<std::string> expected;
  std::set<std::string> expected_next;  ///< `expect-next:` — next line
  std::vector<std::string> malformed;   ///< lint-allow diagnostics
};

CommentMarks parse_comment(const std::string& comment) {
  CommentMarks m;
  static const std::string kAllow = "lint: allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(kAllow, pos)) != std::string::npos) {
    pos += kAllow.size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string::npos) {
      m.malformed.push_back("unterminated lint: allow(...)");
      break;
    }
    const std::string rule = comment.substr(pos, close - pos);
    if (known_rules().count(rule) == 0) {
      m.malformed.push_back("unknown rule-id '" + rule + "' in suppression");
    } else {
      std::size_t why = 0;
      for (std::size_t r = close + 1; r < comment.size(); ++r) {
        if (comment[r] != ' ' && comment[r] != '\t') ++why;
      }
      if (why < 3) {
        m.malformed.push_back("suppression of '" + rule +
                              "' has no reason — say why it is safe");
      } else {
        m.allowed.insert(rule);
      }
    }
    pos = close;
  }
  // `expect-next:` expectations bind to the following line — for findings
  // that land on a line whose comment is itself under test (bad allows).
  for (const auto& [marker, into] :
       {std::pair<const char*, std::set<std::string>*>{"expect-next:",
                                                       &m.expected_next},
        std::pair<const char*, std::set<std::string>*>{"expect:",
                                                       &m.expected}}) {
    const std::size_t epos = comment.find(marker);
    if (epos == std::string::npos) continue;
    std::istringstream is(comment.substr(epos + std::strlen(marker)));
    std::string id;
    while (is >> id) {
      if (known_rules().count(id) != 0) into->insert(id);
    }
  }
  return m;
}

/// Scope of a file, derived from its repo-relative path.
struct FileScope {
  bool in_src = false;
  bool in_tests = false;
  std::string rel;  ///< forward-slash relative path
};

void scan_file(const fs::path& path, const FileScope& scope,
               const ScanContext& ctx, std::set<std::string>* env_seen,
               std::map<std::string, std::set<std::string>>* expects) {
  std::ifstream in(path);
  if (!in) {
    ctx.out->push_back({path.string(), 0, "lint-allow", "cannot open file"});
    return;
  }
  const bool in_src = scope.in_src || ctx.treat_as_src;
  const std::string& rel = scope.rel;

  const bool drift_layer = starts_with(rel, "src/drift/");
  const bool seconds_domain = drift_layer || starts_with(rel, "src/pcm/") ||
                              starts_with(rel, "src/readduo/");
  const bool units_header = rel == "src/common/units.h";

  std::string line;
  std::size_t lineno = 0;
  bool in_block = false;
  std::set<std::string> pending_allow;   // from a standalone comment line
  std::set<std::string> pending_expect;  // from `expect-next:`

  // guarded-field bookkeeping: every `_mu`-suffixed Mutex member must be
  // named by some RD_* capability annotation somewhere in the same file,
  // else the capability guards nothing (fields were left unannotated).
  struct MutexDecl {
    std::string name;
    std::size_t line;
    bool suppressed;
  };
  std::vector<MutexDecl> mutex_decls;
  std::set<std::string> annotation_refs;

  // atomic-order continuation: an atomic op whose argument list spans
  // physical lines is judged once its parenthesis closes.
  struct PendingAtomic {
    bool active = false;
    std::size_t line = 0;
    int depth = 0;
    bool seen_order = false;
    bool suppressed = false;
  };
  PendingAtomic pend_atomic;

  while (std::getline(in, line)) {
    ++lineno;
    LinePieces p = split_line(line, in_block);
    CommentMarks marks = parse_comment(p.comment);
    marks.expected.insert(pending_expect.begin(), pending_expect.end());
    pending_expect = marks.expected_next;
    for (const std::string& bad : marks.malformed) {
      ctx.out->push_back({path.string(), lineno, "lint-allow", bad});
    }
    // A standalone suppression comment line suppresses the next line.
    std::set<std::string> allowed = marks.allowed;
    allowed.insert(pending_allow.begin(), pending_allow.end());
    {
      std::string stripped = p.code;
      stripped.erase(std::remove_if(stripped.begin(), stripped.end(),
                                    [](char c) { return c == ' ' || c == '\t'; }),
                     stripped.end());
      pending_allow =
          stripped.empty() && !marks.allowed.empty() ? marks.allowed
                                                     : std::set<std::string>{};
    }
    if (!marks.expected.empty() && expects != nullptr) {
      (*expects)[path.string() + ":" + std::to_string(lineno)] =
          marks.expected;
    }

    auto report = [&](const std::string& rule, const std::string& msg) {
      if (allowed.count(rule) != 0) return;
      if (file_allowed(rel, rule)) return;
      ctx.out->push_back({path.string(), lineno, rule, msg});
    };

    // --- determinism -----------------------------------------------------
    if (has_token(p.code, "rand", true) || has_token(p.code, "srand", true) ||
        has_token(p.code, "drand48", true) ||
        has_token(p.code, "lrand48", true) ||
        has_token(p.code, "random_device")) {
      report("no-rand",
             "nondeterministic random source; use rd::Rng with an explicit "
             "seed (common/rng.h)");
    }
    if (has_token(p.code, "system_clock") ||
        has_token(p.code, "steady_clock") ||
        has_token(p.code, "high_resolution_clock") ||
        has_token(p.code, "clock_gettime", true) ||
        has_token(p.code, "gettimeofday", true)) {
      report("no-wallclock",
             "wall-clock read; simulated time must come from the event "
             "clock (rd::Ns), wall time only in the bench harness");
    }
    if (has_token(p.code, "getenv", true)) {
      report("no-getenv",
             "raw getenv; go through rd::env_cstr / parse_env_u64 in "
             "common/env.h so every knob is strictly parsed");
    }

    // --- container determinism -------------------------------------------
    if (in_src && !scope.in_tests &&
        (has_token(p.code, "unordered_map") ||
         has_token(p.code, "unordered_set"))) {
      report("no-unordered",
             "unordered container in result-producing code; iteration "
             "order is unspecified — use std::map / std::set or a vector");
    }

    // --- unit safety ------------------------------------------------------
    if (in_src && !units_header && !drift_layer &&
        has_ns_conversion_literal(p.code)) {
      report("unit-conv",
             "raw 1e9/1e-9 literal looks like a ns<->s conversion; use "
             "rd::Ns::seconds() / rd::from_seconds(), or suppress with a "
             "reason if it is not a time conversion");
    }
    if (in_src && !units_header &&
        has_param(p.code, {"int64_t", "uint64_t"}, [](const std::string& n) {
          return n == "ns" || ends_with(n, "_ns");
        })) {
      report("sig-ns",
             "function parameter carries raw integer nanoseconds; take "
             "rd::Ns so callers cannot pass the wrong unit");
    }
    if (in_src && !units_header && !seconds_domain &&
        has_param(p.code, {"double"}, [](const std::string& n) {
          return n == "seconds" || ends_with(n, "_seconds") ||
                 ends_with(n, "_s");
        })) {
      report("sig-seconds",
             "function parameter carries raw double seconds outside the "
             "drift/pcm/readduo seconds domain; take rd::Ns and convert "
             "at the boundary");
    }

    // --- concurrency discipline ------------------------------------------
    const bool conc_scope = in_src && !scope.in_tests;
    bool is_preproc = false;
    for (char c : p.code) {
      if (c == ' ' || c == '\t') continue;
      is_preproc = c == '#';
      break;
    }

    if (conc_scope && !is_preproc) {
      for (const char* w :
           {"mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
            "lock_guard", "unique_lock", "scoped_lock", "condition_variable",
            "condition_variable_any"}) {
        if (has_token(p.code, w)) {
          report("no-bare-mutex",
                 std::string("raw std::") + w +
                     " outside common/thread_annotations.h; use rd::Mutex "
                     "/ rd::MutexLock / rd::CondVar so the thread-safety "
                     "analysis can see the lock");
          break;
        }
      }
    }

    if (conc_scope) {
      // `Mutex <name>_mu` declarations (qualified or not) ...
      const auto collect = [&](const std::string& name) {
        if (ends_with(name, "_mu") || ends_with(name, "_mu_")) {
          mutex_decls.push_back(
              {name, lineno, allowed.count("guarded-field") != 0});
        }
      };
      for_each_type_decl(p.code, "Mutex", collect);
      for_each_type_decl(p.code, "mutex", collect);
      // ... and the names every RD_* capability annotation references.
      for (const char* a :
           {"RD_GUARDED_BY", "RD_PT_GUARDED_BY", "RD_REQUIRES", "RD_ACQUIRE",
            "RD_RELEASE", "RD_TRY_ACQUIRE", "RD_EXCLUDES"}) {
        const std::string macro(a);
        std::size_t mpos = 0;
        while ((mpos = p.code.find(macro, mpos)) != std::string::npos) {
          const bool lb = mpos == 0 || !ident_char(p.code[mpos - 1]);
          std::size_t j = mpos + macro.size();
          mpos += macro.size();
          if (!lb || j >= p.code.size() || p.code[j] != '(') continue;
          const std::size_t close = p.code.find(')', j);
          const std::string args =
              p.code.substr(j + 1, close == std::string::npos
                                       ? std::string::npos
                                       : close - j - 1);
          std::string id;
          for (std::size_t k = 0; k <= args.size(); ++k) {
            if (k < args.size() && ident_char(args[k])) {
              id += args[k];
            } else if (!id.empty()) {
              annotation_refs.insert(id);
              id.clear();
            }
          }
        }
      }
    }

    if (pend_atomic.active) {
      if (p.code.find("memory_order") != std::string::npos) {
        pend_atomic.seen_order = true;
      }
      for (char c : p.code) {
        if (c == '(') ++pend_atomic.depth;
        if (c == ')' && --pend_atomic.depth == 0) break;
      }
      if (pend_atomic.depth <= 0) {
        if (!pend_atomic.seen_order && !pend_atomic.suppressed) {
          ctx.out->push_back(
              {path.string(), pend_atomic.line, "atomic-order",
               "atomic operation without an explicit std::memory_order; "
               "seq-cst-by-default hides the intended ordering — say "
               "relaxed/acquire/release"});
        }
        pend_atomic.active = false;
      }
    } else if (conc_scope) {
      for (const char* op :
           {"load", "store", "exchange", "fetch_add", "fetch_sub",
            "fetch_and", "fetch_or", "fetch_xor", "compare_exchange_weak",
            "compare_exchange_strong"}) {
        std::size_t open = 0;
        if (!find_method_call(p.code, op, &open)) continue;
        int depth = 0;
        bool closed = false;
        std::size_t i = open;
        for (; i < p.code.size(); ++i) {
          if (p.code[i] == '(') ++depth;
          if (p.code[i] == ')' && --depth == 0) {
            closed = true;
            break;
          }
        }
        const std::string args =
            p.code.substr(open, closed ? i - open + 1 : std::string::npos);
        const bool seen = args.find("memory_order") != std::string::npos;
        if (closed) {
          if (!seen) {
            report("atomic-order",
                   std::string("atomic ") + op +
                       " without an explicit std::memory_order; "
                       "seq-cst-by-default hides the intended ordering — "
                       "say relaxed/acquire/release");
          }
        } else {
          pend_atomic = {true, lineno, depth, seen,
                         allowed.count("atomic-order") != 0 ||
                             file_allowed(rel, "atomic-order")};
        }
        break;  // one finding per line is enough
      }
    }

    {
      std::size_t open = 0;
      if (find_method_call(p.code, "detach", &open)) {
        report("no-detach",
               "std::thread::detach leaks a running thread past its "
               "owner; every thread must be joined (see MemoryService "
               "workers / ThreadPool)");
      }
      for (const char* pat : {"new std::thread", "new thread"}) {
        const std::size_t np = p.code.find(pat);
        if (np == std::string::npos) continue;
        const bool lb = np == 0 || !ident_char(p.code[np - 1]);
        const std::size_t e = np + std::strlen(pat);
        const bool rb = e >= p.code.size() || !ident_char(p.code[e]);
        if (lb && rb) {
          report("no-detach",
                 "naked `new std::thread`; threads live in joining "
                 "containers (std::vector<std::thread> + join), never "
                 "behind raw new");
          break;
        }
      }
    }

    // --- env-var registry -------------------------------------------------
    for (const std::string& s : p.strings) {
      std::size_t pos = 0;
      static const std::string kPrefix = "READDUO_";
      while ((pos = s.find(kPrefix, pos)) != std::string::npos) {
        std::size_t end = pos + kPrefix.size();
        while (end < s.size() &&
               ((s[end] >= 'A' && s[end] <= 'Z') || s[end] == '_')) {
          ++end;
        }
        const std::string name = s.substr(pos, end - pos);
        if (name == kPrefix) {  // the bare prefix is not a knob name
          pos = end;
          continue;
        }
        if (env_seen != nullptr) env_seen->insert(name);
        if (env_registry().count(name) == 0) {
          report("env-registry",
                 "'" + name +
                     "' is not in the knob registry (tools/readduo_lint.cpp)"
                     " — register and document it in README.md");
        }
        pos = end;
      }
    }
  }

  // End of file: every collected `_mu` capability must have been named by
  // at least one RD_* annotation, else it guards nothing.
  for (const MutexDecl& d : mutex_decls) {
    if (d.suppressed || annotation_refs.count(d.name) != 0) continue;
    if (file_allowed(rel, "guarded-field")) continue;
    ctx.out->push_back(
        {path.string(), d.line, "guarded-field",
         "mutex member '" + d.name +
             "' is referenced by no RD_GUARDED_BY/RD_REQUIRES/RD_ACQUIRE "
             "annotation in this file — annotate the fields it guards "
             "(see common/thread_annotations.h)"});
  }
}

// ----------------------------------------------------------------- walk ---

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

std::vector<fs::path> collect(const fs::path& dir) {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) return files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file() || !lintable(e.path())) continue;
    if (e.path().string().find("lint_fixtures") != std::string::npos) {
      continue;  // seeded-violation fixtures are scanned by --selftest only
    }
    files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string rel_to(const fs::path& p, const fs::path& root) {
  std::string rel = fs::relative(p, root).generic_string();
  return rel;
}

int run_repo_scan(const fs::path& root, std::size_t max_findings) {
  std::vector<Finding> findings;
  ScanContext ctx;
  ctx.out = &findings;
  std::set<std::string> env_seen;
  std::size_t nfiles = 0;
  for (const char* top : {"src", "bench", "tools", "tests"}) {
    for (const fs::path& f : collect(root / top)) {
      FileScope scope;
      scope.rel = rel_to(f, root);
      scope.in_src = starts_with(scope.rel, "src/") ||
                     starts_with(scope.rel, "tools/") ||
                     starts_with(scope.rel, "bench/");
      scope.in_tests = starts_with(scope.rel, "tests/");
      scan_file(f, scope, ctx, &env_seen, nullptr);
      ++nfiles;
    }
  }
  // Registry <-> README coverage: a knob in the registry must be
  // documented; `env-registry` above already caught unregistered literals.
  {
    std::ifstream readme(root / "README.md");
    std::stringstream ss;
    ss << readme.rdbuf();
    const std::string text = ss.str();
    for (const std::string& name : env_registry()) {
      if (text.find(name) == std::string::npos) {
        findings.push_back({(root / "README.md").string(), 0, "env-registry",
                            "registered knob '" + name +
                                "' is not documented in README.md"});
      }
    }
  }
  // --max-findings truncates the per-finding listing only: the summary
  // line below always carries the exact total, and the exit code is
  // unaffected, so CI logs stay short without hiding the verdict.
  std::size_t printed = 0;
  for (const Finding& f : findings) {
    if (max_findings != 0 && printed == max_findings) {
      std::printf("... %zu more finding(s) suppressed by --max-findings\n",
                  findings.size() - printed);
      break;
    }
    std::printf("%s:%zu: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
    ++printed;
  }
  std::printf("readduo_lint: %zu files scanned, %zu violation(s)\n", nfiles,
              findings.size());
  return findings.empty() ? 0 : 1;
}

int run_selftest(const fs::path& dir) {
  std::vector<Finding> findings;
  ScanContext ctx;
  ctx.treat_as_src = true;
  ctx.out = &findings;
  std::map<std::string, std::set<std::string>> expects;
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && lintable(e.path())) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    FileScope scope;
    scope.rel = "src/" + f.filename().generic_string();
    scan_file(f, scope, ctx, nullptr, &expects);
  }
  // Exact match: every expected (line, rule) fired, nothing else fired.
  std::map<std::string, std::set<std::string>> got;
  for (const Finding& f : findings) {
    got[f.file + ":" + std::to_string(f.line)].insert(f.rule);
  }
  int rc = 0;
  for (const auto& [loc, rules] : expects) {
    for (const std::string& r : rules) {
      if (got.count(loc) == 0 || got.at(loc).count(r) == 0) {
        std::printf("%s: selftest: expected rule '%s' did not fire\n",
                    loc.c_str(), r.c_str());
        rc = 1;
      }
    }
  }
  for (const auto& [loc, rules] : got) {
    for (const std::string& r : rules) {
      if (expects.count(loc) == 0 || expects.at(loc).count(r) == 0) {
        std::printf("%s: selftest: unexpected finding '%s'\n", loc.c_str(),
                    r.c_str());
        rc = 1;
      }
    }
  }
  std::printf("readduo_lint selftest: %zu fixture file(s), %zu finding(s), "
              "%s\n",
              files.size(), findings.size(), rc == 0 ? "OK" : "MISMATCH");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t max_findings = 0;  // 0 = print everything
  for (auto it = args.begin(); it != args.end();) {
    static const std::string kFlag = "--max-findings=";
    if (it->rfind(kFlag, 0) == 0) {
      const std::string value = it->substr(kFlag.size());
      char* end = nullptr;
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || (end != nullptr && *end != '\0')) {
        std::fprintf(stderr, "readduo_lint: bad %s'%s'\n", kFlag.c_str(),
                     value.c_str());
        return 2;
      }
      max_findings = static_cast<std::size_t>(v);
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (args.size() == 2 && args[0] == "--selftest") {
    return run_selftest(args[1]);
  }
  if (args.size() == 1) {
    return run_repo_scan(args[0], max_findings);
  }
  std::fprintf(stderr,
               "usage: readduo_lint [--max-findings=N] <repo-root> | "
               "readduo_lint --selftest <fixture-dir>\n");
  return 2;
}
