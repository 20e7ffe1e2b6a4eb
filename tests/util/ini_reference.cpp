#include "util/ini_reference.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace leime::ini_reference {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

std::string strip_comment(const std::string& line) {
  const auto pos = line.find_first_of("#;");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

}  // namespace

std::string IniSection::get(const std::string& key,
                            const std::string& fallback) const {
  const auto it = values.find(key);
  return it == values.end() ? fallback : it->second;
}

double IniSection::get_double(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end())
    throw std::invalid_argument("ini: [" + name + "] missing key '" + key + "'");
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("ini: [" + name + "] key '" + key +
                                "' is not a number: '" + it->second + "'");
  }
  if (!std::isfinite(v))
    throw std::invalid_argument("ini: [" + name + "] key '" + key +
                                "' must be finite: '" + it->second + "'");
  return v;
}

double IniSection::get_double(const std::string& key, double fallback) const {
  return has(key) ? get_double(key) : fallback;
}

long long IniSection::get_int(const std::string& key) const {
  const double v = get_double(key);
  // Checked before the cast: converting NaN, infinities or values outside
  // [-2^63, 2^63) to long long is undefined behaviour.
  if (!std::isfinite(v) || v != std::trunc(v))
    throw std::invalid_argument("ini: [" + name + "] key '" + key +
                                "' is not an integer");
  if (v < -0x1p63 || v >= 0x1p63)
    throw std::invalid_argument("ini: [" + name + "] key '" + key +
                                "' is out of range");
  return static_cast<long long>(v);
}

long long IniSection::get_int(const std::string& key,
                              long long fallback) const {
  return has(key) ? get_int(key) : fallback;
}

int IniSection::get_int32(const std::string& key, int fallback) const {
  const long long v = get_int(key, fallback);
  if (v < INT_MIN || v > INT_MAX)
    throw std::invalid_argument("ini: [" + name + "] key '" + key +
                                "' is out of range");
  return static_cast<int>(v);
}

bool IniSection::get_bool(const std::string& key, bool fallback) const {
  if (!has(key)) return fallback;
  const std::string v = get(key);
  if (v == "true" || v == "yes" || v == "1" || v == "on") return true;
  if (v == "false" || v == "no" || v == "0" || v == "off") return false;
  throw std::invalid_argument("ini: [" + name + "] key '" + key +
                              "' is not a boolean: '" + v + "'");
}

void IniSection::check_keys(std::initializer_list<const char*> known) const {
  for (const auto& [key, value] : values) {
    (void)value;
    if (std::find_if(known.begin(), known.end(),
                     [&](const char* k) { return key == k; }) != known.end())
      continue;
    std::string valid;
    for (const char* k : known) valid += std::string(" ") + k;
    throw std::invalid_argument("[" + name + "] unknown key '" + key +
                                "' (valid keys:" + valid + ")");
  }
}

IniFile IniFile::parse(std::istream& in) {
  IniFile file;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        throw std::invalid_argument("ini: unterminated section at line " +
                                    std::to_string(line_no));
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name.empty())
        throw std::invalid_argument("ini: empty section name at line " +
                                    std::to_string(line_no));
      file.sections_.push_back({name, {}});
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("ini: expected key=value at line " +
                                  std::to_string(line_no));
    if (file.sections_.empty())
      throw std::invalid_argument("ini: key/value outside a section at line " +
                                  std::to_string(line_no));
    const std::string key = trim(line.substr(0, eq));
    if (key.empty())
      throw std::invalid_argument("ini: empty key at line " +
                                  std::to_string(line_no));
    file.sections_.back().values[key] = trim(line.substr(eq + 1));
  }
  return file;
}

IniFile IniFile::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

IniFile IniFile::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ini: cannot open " + path);
  return parse(in);
}

std::vector<const IniSection*> IniFile::all(const std::string& name) const {
  std::vector<const IniSection*> out;
  for (const auto& s : sections_)
    if (s.name == name) out.push_back(&s);
  return out;
}

const IniSection& IniFile::only(const std::string& name) const {
  const IniSection* section = optional(name);
  if (!section)
    throw std::invalid_argument("ini: missing section [" + name + "]");
  return *section;
}

const IniSection* IniFile::optional(const std::string& name) const {
  const auto matches = all(name);
  if (matches.size() > 1)
    throw std::invalid_argument("ini: duplicated section [" + name + "]");
  return matches.empty() ? nullptr : matches.front();
}

const IniSection* IniFile::find(const std::string& name) const {
  const auto matches = all(name);
  return matches.empty() ? nullptr : matches.front();
}

}  // namespace leime::ini_reference
