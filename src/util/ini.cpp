#include "util/ini.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace leime::util {

namespace {

std::string concat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out += part;
  return out;
}

std::string at_line(const char* what, int line_no) {
  return std::string("ini: ") + what + " at line " + std::to_string(line_no);
}

bool blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Narrows [b, e) past the blanks at both ends.
void trim(char*& b, char*& e) {
  while (b != e && blank(*b)) ++b;
  while (e != b && blank(e[-1])) --e;
}

std::string_view view(const char* b, const char* e) {
  return {b, static_cast<std::size_t>(e - b)};
}

/// Parses a value the way std::stod does, in place: no digits, ERANGE
/// (overflow or underflow) and anything after the number all mean "not a
/// number". The parser ends every value with a '\0', so strtod stops there.
double to_double(std::string_view section, const IniEntry& entry) {
  const auto& [key, value] = entry;
  // Fast path: std::from_chars and strtod both round decimal text
  // correctly, so a whole-value parse to a finite double above DBL_MIN has
  // strtod's bits. Everything else (a sign, hex, inf and nan, zeros,
  // subnormals, ERANGE, trailing text, and text that rounds up to DBL_MIN,
  // where glibc reports underflow) takes strtod's path for its outcome.
  double fast = 0.0;
  const char* const last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, fast);
  if (ec == std::errc{} && ptr == last && std::isfinite(fast) &&
      std::abs(fast) > std::numeric_limits<double>::min())
    return fast;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.data(), &end);
  if (end == value.data() || errno == ERANGE ||
      end != value.data() + value.size())
    throw std::invalid_argument(concat({"ini: [", section, "] key '", key,
                                        "' is not a number: '", value, "'"}));
  if (!std::isfinite(v))
    throw std::invalid_argument(concat({"ini: [", section, "] key '", key,
                                        "' must be finite: '", value, "'"}));
  return v;
}

}  // namespace

const IniEntry* IniSection::lookup(std::string_view key) const {
  const auto it = std::lower_bound(
      values.begin(), values.end(), key,
      [](const IniEntry& e, std::string_view k) { return e.first < k; });
  return it != values.end() && it->first == key ? &*it : nullptr;
}

std::string IniSection::get(std::string_view key,
                            std::string_view fallback) const {
  const IniEntry* e = lookup(key);
  return std::string(e ? e->second : fallback);
}

double IniSection::get_double(std::string_view key) const {
  const IniEntry* e = lookup(key);
  if (!e)
    throw std::invalid_argument(
        concat({"ini: [", name, "] missing key '", key, "'"}));
  return to_double(name, *e);
}

double IniSection::get_double(std::string_view key, double fallback) const {
  const IniEntry* e = lookup(key);
  return e ? to_double(name, *e) : fallback;
}

long long IniSection::get_int(std::string_view key) const {
  const double v = get_double(key);
  // Checked before the cast: converting NaN, infinities or values outside
  // [-2^63, 2^63) to long long is undefined behaviour.
  if (!std::isfinite(v) || v != std::trunc(v))
    throw std::invalid_argument(
        concat({"ini: [", name, "] key '", key, "' is not an integer"}));
  if (v < -0x1p63 || v >= 0x1p63)
    throw std::invalid_argument(
        concat({"ini: [", name, "] key '", key, "' is out of range"}));
  return static_cast<long long>(v);
}

long long IniSection::get_int(std::string_view key, long long fallback) const {
  return has(key) ? get_int(key) : fallback;
}

int IniSection::get_int32(std::string_view key, int fallback) const {
  const long long v = get_int(key, fallback);
  if (v < INT_MIN || v > INT_MAX)
    throw std::invalid_argument(
        concat({"ini: [", name, "] key '", key, "' is out of range"}));
  return static_cast<int>(v);
}

bool IniSection::get_bool(std::string_view key, bool fallback) const {
  const IniEntry* e = lookup(key);
  if (!e) return fallback;
  const std::string_view v = e->second;
  if (v == "true" || v == "yes" || v == "1" || v == "on") return true;
  if (v == "false" || v == "no" || v == "0" || v == "off") return false;
  throw std::invalid_argument(concat(
      {"ini: [", name, "] key '", key, "' is not a boolean: '", v, "'"}));
}

void IniSection::check_keys(std::initializer_list<const char*> known) const {
  for (const auto& [key, value] : values) {
    (void)value;
    if (std::find_if(known.begin(), known.end(),
                     [&](const char* k) { return key == k; }) != known.end())
      continue;
    std::string valid;
    for (const char* k : known) valid += std::string(" ") + k;
    throw std::invalid_argument(concat(
        {"[", name, "] unknown key '", key, "' (valid keys:", valid, ")"}));
  }
}

IniFile::IniFile(std::vector<char> text) : text_(std::move(text)) {
  text_.push_back('\n');  // so every line, the last too, ends in '\n'
  // Every entry line holds a '=' and every section line a '['. Reserving
  // that many means entries_ never reallocates, so a closed section's span
  // stays valid while later sections append.
  std::size_t equals = 0, brackets = 0;
  for (const char c : text_) {
    equals += c == '=';
    brackets += c == '[';
  }
  entries_.reserve(equals);
  sections_.reserve(brackets);

  std::size_t open = 0;  // index of the open section's first entry
  const auto close_section = [&] {
    if (sections_.empty()) return;
    // Sort by key, equal keys in file order (a key's bytes lie later in
    // the buffer the later its line), then keep the last of each run.
    const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(open);
    std::sort(first, entries_.end(), [](const IniEntry& a, const IniEntry& b) {
      const int c = a.first.compare(b.first);
      return c != 0 ? c < 0 : a.first.data() < b.first.data();
    });
    auto kept = first;
    for (auto it = first; it != entries_.end(); ++it)
      if (it + 1 == entries_.end() || it[1].first != it->first) *kept++ = *it;
    entries_.erase(kept, entries_.end());
    sections_.back().values = {entries_.data() + open, entries_.size() - open};
  };

  char* const end = text_.data() + text_.size();
  int line_no = 0;
  for (char* line = text_.data(); line != end;) {
    char* const eol = static_cast<char*>(
        std::memchr(line, '\n', static_cast<std::size_t>(end - line)));
    ++line_no;
    char* b = line;
    char* e = line;
    while (e != eol && *e != '#' && *e != ';') ++e;  // a comment ends it
    line = eol + 1;
    trim(b, e);
    if (b == e) continue;
    if (*b == '[') {
      if (e[-1] != ']')
        throw std::invalid_argument(at_line("unterminated section", line_no));
      char* nb = b + 1;
      char* ne = e - 1;
      trim(nb, ne);
      if (nb == ne)
        throw std::invalid_argument(at_line("empty section name", line_no));
      close_section();
      sections_.push_back({view(nb, ne), {}});
      open = entries_.size();
      continue;
    }
    char* const eq = static_cast<char*>(
        std::memchr(b, '=', static_cast<std::size_t>(e - b)));
    if (!eq)
      throw std::invalid_argument(at_line("expected key=value", line_no));
    if (sections_.empty())
      throw std::invalid_argument(
          at_line("key/value outside a section", line_no));
    char* kb = b;
    char* ke = eq;
    trim(kb, ke);
    if (kb == ke) throw std::invalid_argument(at_line("empty key", line_no));
    char* vb = eq + 1;
    char* ve = e;
    trim(vb, ve);
    // *ve is a trimmed blank, a comment mark or the line's '\n', so no
    // field loses a byte.
    *ve = '\0';
    entries_.push_back({view(kb, ke), view(vb, ve)});
  }
  close_section();
}

IniFile IniFile::parse(std::istream& in) {
  std::vector<char> text;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0)
    text.insert(text.end(), chunk, chunk + in.gcount());
  return IniFile(std::move(text));
}

IniFile IniFile::parse_string(std::string_view text) {
  std::vector<char> buffer;
  buffer.reserve(text.size() + 1);
  buffer.assign(text.begin(), text.end());
  return IniFile(std::move(buffer));
}

IniFile IniFile::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ini: cannot open " + path);
  return parse(in);
}

std::vector<const IniSection*> IniFile::all(std::string_view name) const {
  std::vector<const IniSection*> out;
  for (const auto& s : sections_)
    if (s.name == name) out.push_back(&s);
  return out;
}

const IniSection& IniFile::only(std::string_view name) const {
  const IniSection* section = optional(name);
  if (!section)
    throw std::invalid_argument(concat({"ini: missing section [", name, "]"}));
  return *section;
}

const IniSection* IniFile::optional(std::string_view name) const {
  const auto matches = all(name);
  if (matches.size() > 1)
    throw std::invalid_argument(
        concat({"ini: duplicated section [", name, "]"}));
  return matches.empty() ? nullptr : matches.front();
}

const IniSection* IniFile::find(std::string_view name) const {
  const auto matches = all(name);
  return matches.empty() ? nullptr : matches.front();
}

}  // namespace leime::util
