// Minimal INI-style configuration parser for the scenario runner.
//
// Syntax:
//   # or ; comments (whole-line or trailing)
//   [section]            — sections may repeat; each occurrence is kept
//   key = value
// Section and key names are case-sensitive; values keep internal spaces and
// are trimmed at both ends.
//
// Layout: an IniFile copies the text once into a buffer it owns and indexes
// it in place. Every section name, key and value is a std::string_view into
// that buffer, and each section's entries are one span of a shared entry
// vector, sorted by key with the last duplicate kept. So an IniSection is a
// view: it is valid only while its IniFile lives, and a moved-from file
// hands its views over with its buffer.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace leime::util {

/// One key = value pair. `first` is the key, `second` the trimmed value;
/// the parser writes a '\0' into the buffer right after every value.
struct IniEntry {
  std::string_view first;
  std::string_view second;
};

/// One [section] instance: its name and its entries, one per key, in key
/// order (bytes compared as unsigned char, as std::map<std::string> does).
struct IniSection {
  std::string_view name;
  std::span<const IniEntry> values;

  bool has(std::string_view key) const { return lookup(key) != nullptr; }

  /// Returns the value or `fallback` when the key is absent.
  std::string get(std::string_view key, std::string_view fallback = {}) const;

  /// Typed getters; throw std::invalid_argument on absent keys or
  /// unparsable values. Numbers follow strtod's grammar and must use the
  /// whole value. get_double and get_int reject NaN and infinities; get_int
  /// also rejects fractional and out-of-range values; get_int32 narrows to
  /// int with a range check.
  double get_double(std::string_view key) const;
  double get_double(std::string_view key, double fallback) const;
  long long get_int(std::string_view key) const;
  long long get_int(std::string_view key, long long fallback) const;
  int get_int32(std::string_view key, int fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;

  /// Throws std::invalid_argument on the first key (in key order) not in
  /// `known`: "[<name>] unknown key '<key>' (valid keys: <known...>)".
  void check_keys(std::initializer_list<const char*> known) const;

 private:
  const IniEntry* lookup(std::string_view key) const;
};

class IniFile {
 public:
  IniFile() = default;
  IniFile(IniFile&&) noexcept = default;
  IniFile& operator=(IniFile&&) noexcept = default;
  // A copy's views would still point into the source's buffer.
  IniFile(const IniFile&) = delete;
  IniFile& operator=(const IniFile&) = delete;

  /// Parses a whole stream; throws std::invalid_argument on malformed
  /// lines (key/value outside a section, missing '=', empty key).
  static IniFile parse(std::istream& in);
  static IniFile parse_string(std::string_view text);
  static IniFile parse_file(const std::string& path);

  /// All section instances in file order.
  const std::vector<IniSection>& sections() const { return sections_; }

  /// All instances with the given name (e.g. every [device]).
  std::vector<const IniSection*> all(std::string_view name) const;

  /// The single instance of a section; throws if absent or duplicated.
  const IniSection& only(std::string_view name) const;

  /// The single instance of an optional section, nullptr if absent;
  /// throws "ini: duplicated section [<name>]" if it repeats.
  const IniSection* optional(std::string_view name) const;

  /// First instance or nullptr.
  const IniSection* find(std::string_view name) const;

 private:
  /// Takes the text, appends a '\n' and indexes it in place.
  explicit IniFile(std::vector<char> text);

  std::vector<char> text_;
  std::vector<IniEntry> entries_;
  std::vector<IniSection> sections_;
};

}  // namespace leime::util
