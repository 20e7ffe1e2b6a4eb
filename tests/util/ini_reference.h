// Test-only copy of the INI parser as it stood before util::IniFile moved
// to one owned buffer (a std::map of std::string pairs per section). The
// differential test in ini_diff_test.cpp runs both parsers over generated
// texts and requires identical results. Only the namespace and the include
// path differ from that version; do not edit it to match a change of the
// real parser.
//
// Minimal INI-style configuration parser for the scenario runner.
//
// Syntax:
//   # or ; comments (whole-line or trailing)
//   [section]            — sections may repeat; each occurrence is kept
//   key = value
// Section and key names are case-sensitive; values keep internal spaces and
// are trimmed at both ends.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace leime::ini_reference {

/// One [section] instance with its key/value pairs in file order.
struct IniSection {
  std::string name;
  std::map<std::string, std::string> values;

  bool has(const std::string& key) const { return values.count(key) > 0; }

  /// Returns the value or `fallback` when the key is absent.
  std::string get(const std::string& key, const std::string& fallback = "") const;

  /// Typed getters; throw std::invalid_argument on absent keys or
  /// unparsable values. get_double and get_int reject NaN and infinities;
  /// get_int also rejects fractional and out-of-range values; get_int32
  /// narrows to int with a range check.
  double get_double(const std::string& key) const;
  double get_double(const std::string& key, double fallback) const;
  long long get_int(const std::string& key) const;
  long long get_int(const std::string& key, long long fallback) const;
  int get_int32(const std::string& key, int fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Throws std::invalid_argument on the first key (in key order) not in
  /// `known`: "[<name>] unknown key '<key>' (valid keys: <known...>)".
  void check_keys(std::initializer_list<const char*> known) const;
};

class IniFile {
 public:
  /// Parses a whole stream; throws std::invalid_argument on malformed
  /// lines (key/value outside a section, missing '=', empty key).
  static IniFile parse(std::istream& in);
  static IniFile parse_string(const std::string& text);
  static IniFile parse_file(const std::string& path);

  /// All section instances in file order.
  const std::vector<IniSection>& sections() const { return sections_; }

  /// All instances with the given name (e.g. every [device]).
  std::vector<const IniSection*> all(const std::string& name) const;

  /// The single instance of a section; throws if absent or duplicated.
  const IniSection& only(const std::string& name) const;

  /// The single instance of an optional section, nullptr if absent;
  /// throws "ini: duplicated section [<name>]" if it repeats.
  const IniSection* optional(const std::string& name) const;

  /// First instance or nullptr.
  const IniSection* find(const std::string& name) const;

 private:
  std::vector<IniSection> sections_;
};

}  // namespace leime::ini_reference
