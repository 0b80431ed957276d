#include "config/parser.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace rd::config {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void fail(const std::string& source, std::size_t line,
                       const std::string& msg) {
  std::ostringstream os;
  os << source << ":" << line << ": " << msg;
  throw ConfigError(os.str());
}

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

RawConfig RawConfig::parse(std::istream& in, const std::string& source) {
  RawConfig cfg;
  cfg.source_ = source;
  std::string line;
  std::string section;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.resize(comment);
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t.front() == '[') {
      const std::size_t close = t.find(']');
      if (close == std::string::npos) {
        fail(source, lineno, "unterminated section header (missing ']')");
      }
      if (close + 1 != t.size()) {
        fail(source, lineno,
             "unexpected text after ']' in section header: '" +
                 t.substr(close + 1) + "'");
      }
      section = trim(t.substr(1, close - 1));
      if (!valid_name(section)) {
        fail(source, lineno,
             section.empty() ? "empty section name"
                             : "invalid section name '" + section + "'");
      }
      continue;
    }
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      fail(source, lineno, "expected 'key = value', got '" + t + "'");
    }
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (!valid_name(key)) {
      fail(source, lineno,
           key.empty() ? "empty key" : "invalid key name '" + key + "'");
    }
    if (value.empty()) {
      fail(source, lineno, "empty value for key '" + key + "'");
    }
    if (section.empty()) {
      fail(source, lineno,
           "key '" + key + "' appears before any [section] header");
    }
    const std::string full = section + "." + key;
    const auto [it, inserted] = cfg.entries_.insert({full, {value, lineno}});
    if (!inserted) {
      fail(source, lineno,
           "duplicate key '" + full + "' (first set on line " +
               std::to_string(it->second.line) + ")");
    }
  }
  return cfg;
}

RawConfig RawConfig::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ConfigError(path + ": cannot open config file");
  }
  return parse(in, path);
}

const RawEntry& RawConfig::at(const std::string& key) const {
  const auto it = entries_.find(key);
  RD_CHECK_MSG(it != entries_.end(),
               "internal: config key '" << key << "' queried but absent");
  return it->second;
}

}  // namespace rd::config
