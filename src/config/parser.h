// Strict section/key/value parser for config files: device configs and
// readduo_sim --config run files share it.
//
// Grammar (DESIGN.md §13):
//   file     := line*
//   line     := blank | comment | section | pair
//   comment  := ('#' | ';') .*            (also allowed after a pair)
//   section  := '[' name ']'
//   pair     := key '=' value
//
// The parser is built for validated schemas: every entry retains its
// source line so the schema layer can report unknown keys, unit mistakes,
// and range violations as "<file>:<line>: ..." diagnostics, and
// structural mistakes (duplicate keys, junk after a section header, pairs
// before any section) are hard errors instead of silent acceptance.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>

#include "common/check.h"

namespace rd::config {

/// Thrown for every malformed config condition, parse-time or
/// validation-time. The message always leads with "<source>:<line>:"
/// (or "<source>:" for whole-file conditions such as missing keys).
class ConfigError : public CheckFailure {
 public:
  explicit ConfigError(const std::string& what) : CheckFailure(what) {}
};

/// One raw "key = value" occurrence.
struct RawEntry {
  std::string value;     ///< verbatim value text (trimmed, comment stripped)
  std::size_t line = 0;  ///< 1-based source line of the pair
};

/// A parsed (but not yet schema-validated) config file: an ordered map of
/// "section.key" -> RawEntry plus the source name for diagnostics.
class RawConfig {
 public:
  /// Parse from a stream; `source` names it in diagnostics. Throws
  /// ConfigError on any structural violation: a pair outside a section,
  /// an unterminated or empty section header, text after ']', a missing
  /// '=', an empty key or value, or a duplicate key.
  static RawConfig parse(std::istream& in, const std::string& source);
  /// Parse a file. Throws ConfigError when unreadable.
  static RawConfig load(const std::string& path);

  const std::string& source() const { return source_; }
  const std::map<std::string, RawEntry>& entries() const { return entries_; }

  bool has(const std::string& key) const { return entries_.count(key) != 0; }
  /// The entry for `key`; RD_CHECK-fails when absent (callers gate on
  /// has() or the schema's required-key pass).
  const RawEntry& at(const std::string& key) const;

 private:
  std::string source_;
  std::map<std::string, RawEntry> entries_;
};

}  // namespace rd::config
