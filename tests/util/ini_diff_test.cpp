// Differential test of the INI parser: util::IniFile (one owned buffer,
// string_view entries) against the std::map parser it replaced, kept as
// ini_reference.h. Both run over seeded generated texts and must agree on
// everything a caller can observe: the exception type and message of a
// failed parse, or the section names in file order, each section's
// key/value sequence, and every getter's and check_keys' outcome.
//
// Two generators feed it: line-structured texts built from pools of
// section names, keys, numeric and boolean edge-case values, comments,
// CRs, NULs and malformed lines; and byte-level mutations of every
// configs/*.ini.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/ini.h"
#include "util/ini_reference.h"
#include "util/rng.h"

namespace leime {
namespace {

namespace ref = ini_reference;

/// What one call does: "ok:" and its result, or the exception's type and
/// message.
template <class F>
std::string outcome(F&& call) {
  try {
    return "ok:" + call();
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument:") + e.what();
  } catch (const std::runtime_error& e) {
    return std::string("runtime_error:") + e.what();
  }
}

std::string bits(double v) {
  return std::to_string(std::bit_cast<std::uint64_t>(v));
}

/// Every getter's outcome for a key the section holds, one string per call.
/// Throwing is the slow part, so calls whose failure is already known are
/// skipped: get_int goes through get_double and get_int32 through get_int,
/// so each runs only where the one before it succeeded, and get_bool, which
/// takes no number but 0 and 1, runs on every value except other numbers.
template <class Section>
std::string getters(const Section& s, const std::string& key) {
  double number = 0.0;
  const std::string as_double = outcome([&] {
    number = s.get_double(key);
    return bits(number);
  });
  const bool is_number = as_double.starts_with("ok:");
  std::string out = outcome([&] { return s.get(key); }) + '|' + as_double;
  if (is_number) {
    const std::string as_int =
        outcome([&] { return std::to_string(s.get_int(key)); });
    out += '|' + as_int;
    if (as_int.starts_with("ok:"))
      out += '|' + outcome([&] { return std::to_string(s.get_int32(key, 5)); });
  }
  if (!is_number || number == 0.0 || number == 1.0)
    out += '|' + outcome([&] {
      return std::string(s.get_bool(key, false) ? "1" : "0");
    });
  return out;
}

/// The getters' outcomes for a key the section lacks. (The error of a
/// getter without a fallback is pinned by Ini.MissingKeyNamesSectionAndKey.)
template <class Section>
std::string absent_getters(const Section& s) {
  const std::string key = "absent";
  return s.get(key, "fallback") + '|' + (s.has(key) ? "1" : "0") + '|' +
         bits(s.get_double(key, 7.0)) + '|' + std::to_string(s.get_int(key, 3)) +
         '|' + std::to_string(s.get_int32(key, 5)) + '|' +
         (s.get_bool(key, false) ? "1" : "0");
}

template <class Section>
std::string check_keys_outcome(const Section& s) {
  return outcome([&] {
    s.check_keys({"k", "key", "a", "B", "b", "rate", "a b", "_", "K", "gflops",
                  "uplink_mbps", "uplink_latency_ms", "difficulty", "class"});
    return std::string();
  });
}

template <class File>
std::string file_outcomes(const File& f, const std::string& name) {
  return outcome([&] {
           const auto* s = f.optional(name);
           return s ? std::string(f.only(name).name) : std::string("null");
         }) +
         '|' + std::to_string(f.all(name).size()) + '|' +
         (f.find(name) ? "found" : "null");
}

/// Appends `s` so that no two sequences of fields encode alike, NULs and
/// separators included.
void add_field(std::string& id, std::string_view s) {
  id += std::to_string(s.size());
  id += ':';
  id += s;
}

/// Runs both parsers over texts. The reference's getter and check_keys
/// outcomes depend only on the section name, the key and the value (or the
/// key set), so each is computed once per distinct input; the parser under
/// test runs on every key of every text, wherever its bytes lie.
class Differ {
 public:
  /// Empty when both parsers agree on `text`, else the first difference.
  std::string difference(const std::string& text) {
    std::optional<util::IniFile> mine;
    std::optional<ref::IniFile> theirs;
    const std::string mine_parse = outcome([&] {
      mine = util::IniFile::parse_string(text);
      return std::string();
    });
    const std::string ref_parse = outcome([&] {
      theirs = ref::IniFile::parse_string(text);
      return std::string();
    });
    if (mine_parse != ref_parse)
      return "parse: " + mine_parse + " vs " + ref_parse;
    if (!mine) return "";
    ++parsed;

    const auto& ms = mine->sections();
    const auto& rs = theirs->sections();
    if (ms.size() != rs.size())
      return "section count " + std::to_string(ms.size()) + " vs " +
             std::to_string(rs.size());
    std::vector<std::string> names{"absent"};
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const auto& m = ms[i];
      const auto& r = rs[i];
      const std::string where = "section " + std::to_string(i) + ": ";
      if (std::string(m.name) != r.name)
        return where + "name '" + std::string(m.name) + "' vs '" + r.name +
               "'";
      names.push_back(r.name);
      std::string mine_pairs, ref_pairs, key_set;
      add_field(key_set, r.name);
      for (const auto& [key, value] : m.values)
        mine_pairs += std::string(key) + '=' + std::string(value) + '\n';
      for (const auto& [key, value] : r.values) {
        ref_pairs += key + '=' + value + '\n';
        add_field(key_set, key);
      }
      if (mine_pairs != ref_pairs)
        return where + "entries\n" + mine_pairs + "vs\n" + ref_pairs;
      for (const auto& entry : r.values) {
        const std::string& key = entry.first;
        std::string id;
        add_field(id, r.name);
        add_field(id, key);
        add_field(id, entry.second);
        const std::string a = getters(m, key);
        const std::string& b = memo(id, [&] { return getters(r, key); });
        if (a != b) return where + "key '" + key + "': " + a + " vs " + b;
      }
      std::string a = absent_getters(m);
      const std::string& b =
          memo("absent " + r.name, [&] { return absent_getters(r); });
      if (a != b) return where + "absent key: " + a + " vs " + b;
      a = check_keys_outcome(m);
      const std::string& c =
          memo("keys " + key_set, [&] { return check_keys_outcome(r); });
      if (a != c) return where + "check_keys: " + a + " vs " + c;
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    for (const auto& name : names) {
      const std::string a = file_outcomes(*mine, name);
      const std::string b = file_outcomes(*theirs, name);
      if (a != b) return "section [" + name + "]: " + a + " vs " + b;
    }
    return "";
  }

  int parsed = 0;  ///< texts both parsers accepted

 private:
  template <class F>
  const std::string& memo(const std::string& id, F&& compute) {
    const auto [it, fresh] = memo_.try_emplace(id);
    if (fresh) it->second = compute();
    return it->second;
  }

  std::map<std::string, std::string> memo_;
};

std::string printable(const std::string& text) {
  std::ostringstream out;
  for (const unsigned char c : text) {
    if (c == '\n')
      out << "\\n";
    else if (c == '\\')
      out << "\\\\";
    else if (c < 0x20 || c >= 0x7f)
      out << "\\x" << std::hex << static_cast<int>(c) << std::dec;
    else
      out << c;
  }
  return out.str();
}

template <std::size_t N>
const char* pick(util::Rng& rng, const char* const (&pool)[N]) {
  return pool[rng.uniform_int(0, static_cast<std::int64_t>(N) - 1)];
}

constexpr const char* kNames[] = {"s", "device", "scenario", "a b", "S",
                                  "\xc3\xa9"};
constexpr const char* kKeys[] = {"k",  "key",  "a", "B", "b",  "k2",
                                 "rate", "a b", "_", "K", "\xc3\xa9t\xc3\xa9"};
constexpr const char* kValues[] = {
    "0", "1", "-1", "+1.5", "-0", "0.5", ".5", "5.", "1e3", "1E-3", "0x1p3",
    "0X1P-2", "0x", "1e", "1e+", "1e-310", "4.9e-324",
    "2.2250738585072014e-308", "1e999", "-1e999", "1.7976931348623157e308",
    "1.8e308", "1.5abc", "abc", "", "nan", "NaN", "nan(1)", "inf", "-inf",
    "infinity", "INFINITY", "9007199254740993", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "4294967298", "2147483647", "2147483648", "-2147483649", "1e30", "12.0",
    "12.5", "true", "false", "yes", "no", "on", "off", "True", "YES", "1 2",
    "\v1", "\f2", "a=b", "x y z", "phone"};
constexpr const char* kPads[] = {"", "", "", " ", "  ", "\t", "\r", " \t"};
constexpr const char* kComments[] = {"# c", "; c", "#", ";", "# k = 1",
                                     "; [s]"};
constexpr const char* kMalformed[] = {"noequals", "= v", " = ", "[s", "[]",
                                      "[ ]", "[a]b", "]", "[", "k"};
constexpr char kSpecial[] = {'\0', '\r', '#', ';', '=', '[', ']',
                             '\t', ' ',  '\n', 'k', '1'};

std::string generated_line(util::Rng& rng) {
  const double u = rng.uniform();
  std::string line;
  if (u < 0.18) {
    line = std::string(pick(rng, kPads)) + "[" + pick(rng, kPads) +
           pick(rng, kNames) + pick(rng, kPads) + "]" + pick(rng, kPads);
  } else if (u < 0.85) {
    line = std::string(pick(rng, kPads)) + pick(rng, kKeys) +
           pick(rng, kPads) + "=" + pick(rng, kPads) + pick(rng, kValues) +
           pick(rng, kPads);
  } else if (u < 0.92) {
    line = std::string(pick(rng, kPads)) + pick(rng, kComments);
  } else if (u < 0.97) {
    line = pick(rng, kPads);
  } else {
    line = pick(rng, kMalformed);
  }
  if (rng.bernoulli(0.1)) line += std::string(" ") + pick(rng, kComments);
  if (rng.bernoulli(0.05)) {
    const auto at = rng.uniform_int(0, static_cast<std::int64_t>(line.size()));
    line.insert(static_cast<std::size_t>(at), 1,
                kSpecial[rng.uniform_int(0, sizeof kSpecial - 1)]);
  }
  return line;
}

std::string generated_text(util::Rng& rng) {
  std::string text;
  if (rng.bernoulli(0.9))
    text = std::string("[") + pick(rng, kNames) + "]\n";
  const auto lines = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < lines; ++i)
    text += generated_line(rng) + (rng.bernoulli(0.1) ? "\r\n" : "\n");
  if (!text.empty() && rng.bernoulli(0.2)) text.pop_back();
  return text;
}

std::string mutated(util::Rng& rng, std::string text) {
  const auto mutations = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < mutations && !text.empty(); ++i) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    const char byte =
        rng.bernoulli(0.7)
            ? kSpecial[rng.uniform_int(0, sizeof kSpecial - 1)]
            : static_cast<char>(rng.uniform_int(0, 255));
    switch (rng.uniform_int(0, 4)) {
      case 0:
        text[at] = byte;
        break;
      case 1:
        text.insert(at, 1, byte);
        break;
      case 2:
        text.erase(at, 1);
        break;
      case 3: {  // repeat the line holding `at` right after it
        const auto begin = text.rfind('\n', at);
        const auto first = begin == std::string::npos ? 0 : begin + 1;
        const auto last = text.find('\n', at);
        const auto end = last == std::string::npos ? text.size() : last + 1;
        text.insert(end, text.substr(first, end - first));
        break;
      }
      default:
        text.resize(at);
    }
  }
  return text;
}

TEST(IniDiff, MatchesTheReferenceParser) {
  util::Rng rng(20211);
  Differ differ;
  for (int i = 0; i < 100000; ++i) {
    const std::string text = generated_text(rng);
    ASSERT_EQ(differ.difference(text), "")
        << "generated text " << i << ": \"" << printable(text) << '"';
  }
  // Most texts must get past the parser, or the getters go unchecked.
  EXPECT_GT(differ.parsed, 50000);

  std::vector<std::filesystem::path> configs;
  for (const auto& entry :
       std::filesystem::directory_iterator(LEIME_CONFIG_DIR))
    if (entry.path().extension() == ".ini") configs.push_back(entry.path());
  std::sort(configs.begin(), configs.end());
  ASSERT_FALSE(configs.empty());
  for (const auto& path : configs) {
    std::ifstream in(path, std::ios::binary);
    const std::string original{std::istreambuf_iterator<char>(in), {}};
    ASSERT_EQ(differ.difference(original), "") << path;
    for (int i = 0; i < 2000; ++i) {
      const std::string text = mutated(rng, original);
      ASSERT_EQ(differ.difference(text), "")
          << path.filename() << " mutation " << i << ": \"" << printable(text)
          << '"';
    }
  }
}

/// A number text over the forms where std::from_chars and strtod part ways:
/// signs, leading and trailing points, bare and signed exponents, mantissas
/// of up to 25 digits, hex, inf and nan, zeros, subnormals, values that
/// round to or just past DBL_MIN and DBL_MAX, overflow and trailing text.
std::string number_text(util::Rng& rng) {
  static constexpr const char* kEdges[] = {
      "+1.5", ".5", "5.", "1e", "1e+5", "0x1p3", "0X1.8P-2", "inf", "+inf",
      "nan", "-nan", "-0", "0e-400", "1e-310", "4.9e-324", "1e400",
      "2.2250738585072011e-308", "2.2250738585072012e-308",
      "2.2250738585072014e-308", "-2.2250738585072012e-308",
      "1.7976931348623158e308", "1.7976931348623159e308",
      "1234567890123456789012345", "0.1234567890123456789012345e-300"};
  static constexpr const char* kSigns[] = {"", "", "-", "+"};
  static constexpr const char* kExponents[] = {"e", "E", "e+", "e-", "E-"};
  static constexpr const char* kTails[] = {"x", " 1", "e5", "."};
  if (rng.bernoulli(0.1)) return pick(rng, kEdges);
  std::string text = pick(rng, kSigns);
  const auto digits = rng.uniform_int(1, 25);
  const auto point = rng.uniform_int(-1, digits);  // -1: no point
  for (std::int64_t i = 0; i < digits; ++i) {
    if (i == point) text += '.';
    text += static_cast<char>('0' + rng.uniform_int(0, 9));
  }
  if (point == digits) text += '.';
  if (rng.bernoulli(0.7)) {
    text += pick(rng, kExponents);
    // Exponents near the double range's ends one time in two.
    if (rng.bernoulli(0.97))
      text += std::to_string(rng.bernoulli(0.5) ? rng.uniform_int(280, 330)
                                                : rng.uniform_int(0, 400));
  }
  if (rng.bernoulli(0.03)) text += pick(rng, kTails);
  return text;
}

// Number values alone, against the reference parser's strtod: every getter
// outcome, error message and double bit for bit.
TEST(IniDiff, NumberTextsMatchTheReferenceParser) {
  util::Rng rng(20212);
  Differ differ;
  for (int i = 0; i < 100000; ++i) {
    const std::string text = "[s]\nk = " + number_text(rng) + "\n";
    ASSERT_EQ(differ.difference(text), "")
        << "number text " << i << ": \"" << printable(text) << '"';
  }
}

}  // namespace
}  // namespace leime
