#include "util/ini.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>

#include "support/alloc_hooks.h"

namespace leime::util {
namespace {

constexpr const char* kSample = R"(
# campus scenario
[scenario]
model = inception      ; which DNN
duration = 120.5
policy = LEIME
adaptive = yes

[device]
flops_gflops = 0.6
rate = 1.5

[device]
flops_gflops = 6
rate = 0.5
)";

TEST(Ini, ParsesSectionsAndValues) {
  const auto ini = IniFile::parse_string(kSample);
  ASSERT_EQ(ini.sections().size(), 3u);
  const auto& sc = ini.only("scenario");
  EXPECT_EQ(sc.get("model"), "inception");
  EXPECT_DOUBLE_EQ(sc.get_double("duration"), 120.5);
  EXPECT_TRUE(sc.get_bool("adaptive", false));
  EXPECT_EQ(sc.get("missing", "dflt"), "dflt");
}

TEST(Ini, RepeatedSectionsKeptInOrder) {
  const auto ini = IniFile::parse_string(kSample);
  const auto devices = ini.all("device");
  ASSERT_EQ(devices.size(), 2u);
  EXPECT_DOUBLE_EQ(devices[0]->get_double("flops_gflops"), 0.6);
  EXPECT_DOUBLE_EQ(devices[1]->get_double("rate"), 0.5);
}

TEST(Ini, OnlyRejectsMissingAndDuplicated) {
  const auto ini = IniFile::parse_string(kSample);
  EXPECT_THROW(ini.only("nope"), std::invalid_argument);
  EXPECT_THROW(ini.only("device"), std::invalid_argument);
  EXPECT_EQ(ini.find("nope"), nullptr);
  EXPECT_NE(ini.find("device"), nullptr);
}

TEST(Ini, CommentsAndWhitespace) {
  const auto ini = IniFile::parse_string(
      "[s]\n  key =  spaced value  # trailing\n; full line\n");
  EXPECT_EQ(ini.only("s").get("key"), "spaced value");
}

TEST(Ini, TypedGetterErrors) {
  const auto ini = IniFile::parse_string("[s]\nx = abc\nf = 1.5\n");
  const auto& s = ini.only("s");
  EXPECT_THROW(s.get_double("x"), std::invalid_argument);
  EXPECT_THROW(s.get_double("missing"), std::invalid_argument);
  EXPECT_THROW(s.get_int("f"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(s.get_double("missing", 7.0), 7.0);
  EXPECT_EQ(s.get_int("missing", 3), 3);
  EXPECT_THROW(s.get_bool("x", false), std::invalid_argument);
}

TEST(Ini, DoublesMustBeFinite) {
  const auto ini = IniFile::parse_string(
      "[s]\nnan = nan\ninf = inf\nninf = -inf\nword = INFINITY\n"
      "big = 1e308\n");
  const auto& s = ini.only("s");
  for (const char* key : {"nan", "inf", "ninf", "word"}) {
    try {
      s.get_double(key, 1.0);
      ADD_FAILURE() << "expected std::invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("[s]"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + key + "'"), std::string::npos)
          << what;
    }
  }
  EXPECT_DOUBLE_EQ(s.get_double("big"), 1e308);
}

TEST(Ini, IntegersAreCheckedBeforeTheCast) {
  const auto ini = IniFile::parse_string(
      "[s]\nnan = nan\ninf = inf\nninf = -inf\nhuge = 1e30\n"
      "edge = 9223372036854775808\nbig = 4294967298\nneg = -4294967298\n"
      "ok = -12\n");
  const auto& s = ini.only("s");
  for (const char* key : {"nan", "inf", "ninf", "huge", "edge"}) {
    try {
      s.get_int(key);
      ADD_FAILURE() << "expected std::invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(s.get_int("big"), 4294967298LL);
  EXPECT_EQ(s.get_int("ok"), -12);
  // get_int32 narrows in one checked place.
  EXPECT_EQ(s.get_int32("ok", 0), -12);
  EXPECT_EQ(s.get_int32("missing", 7), 7);
  EXPECT_THROW(s.get_int32("big", 0), std::invalid_argument);
  EXPECT_THROW(s.get_int32("neg", 0), std::invalid_argument);
  EXPECT_THROW(s.get_int32("nan", 0), std::invalid_argument);
}

TEST(Ini, CheckKeysNamesTheSectionAndTheValidKeys) {
  const auto ini = IniFile::parse_string("[faults]\nb = 1\nzz = 2\n");
  const auto& s = ini.only("faults");
  EXPECT_NO_THROW(s.check_keys({"a", "b", "zz"}));
  try {
    s.check_keys({"a", "b"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "[faults] unknown key 'zz' (valid keys: a b)");
  }
}

TEST(Ini, MalformedInput) {
  EXPECT_THROW(IniFile::parse_string("key = 1\n"), std::invalid_argument);
  EXPECT_THROW(IniFile::parse_string("[s\n"), std::invalid_argument);
  EXPECT_THROW(IniFile::parse_string("[]\n"), std::invalid_argument);
  EXPECT_THROW(IniFile::parse_string("[s]\nno_equals\n"),
               std::invalid_argument);
  EXPECT_THROW(IniFile::parse_string("[s]\n= v\n"), std::invalid_argument);
  EXPECT_THROW(IniFile::parse_file("/nonexistent/file.ini"),
               std::runtime_error);
}

TEST(Ini, LastDuplicateKeyWins) {
  const auto ini = IniFile::parse_string("[s]\nk = 1\nk = 2\n");
  EXPECT_EQ(ini.only("s").get("k"), "2");
  const auto spread = IniFile::parse_string(
      "[s]\nk = 1\nj = 0\nk = 2\nk = 3\n[s2]\nk = 4\n");
  EXPECT_EQ(spread.only("s").get("k"), "3");
  EXPECT_EQ(spread.only("s").get("j"), "0");
  EXPECT_EQ(spread.only("s2").get("k"), "4");  // sections never merge
}

// The contract the one-buffer parser keeps from the std::map one; each case
// holds for both (IniDiff.MatchesTheReferenceParser checks generated texts).

std::string error_of(const std::string& text) {
  try {
    IniFile::parse_string(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

std::string get_double_error(const IniSection& s, const char* key) {
  try {
    s.get_double(key);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

// Keys iterate in std::map order, bytes compared as unsigned char: 'B'
// (0x42) before 'a' (0x61), and UTF-8 lead bytes (>= 0x80) after 'z'.
TEST(Ini, CheckKeysNamesTheFirstUnknownKeyInSortedOrder) {
  const auto ini = IniFile::parse_string(
      "[s]\nzeta = 1\n\xc3\xa9t\xc3\xa9 = 2\nalpha = 3\nBeta = 4\n");
  const auto& s = ini.only("s");
  try {
    s.check_keys({"zeta"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "[s] unknown key 'Beta' (valid keys: zeta)");
  }
  try {
    s.check_keys({"Beta", "alpha", "zeta"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "[s] unknown key '\xc3\xa9t\xc3\xa9' (valid keys: Beta alpha "
                 "zeta)");
  }
}

TEST(Ini, CommentMarkInsideValueEndsIt) {
  const auto ini = IniFile::parse_string(
      "[s]\nurl = a#b\nlist = x;y\nquoted = \"p # q\"\nn = 2;3\n");
  const auto& s = ini.only("s");
  EXPECT_EQ(s.get("url"), "a");
  EXPECT_EQ(s.get("list"), "x");
  EXPECT_EQ(s.get("quoted"), "\"p");
  EXPECT_DOUBLE_EQ(s.get_double("n"), 2.0);
}

TEST(Ini, CrlfLinesParse) {
  const auto ini =
      IniFile::parse_string("[s]\r\nk = v\r\nn = 2.5\r\n\r\n[t]\r\n");
  ASSERT_EQ(ini.sections().size(), 2u);
  EXPECT_EQ(ini.only("s").get("k"), "v");
  EXPECT_DOUBLE_EQ(ini.only("s").get_double("n"), 2.5);
  EXPECT_NE(ini.find("t"), nullptr);
}

TEST(Ini, FileWithoutTrailingNewlineParses) {
  EXPECT_EQ(IniFile::parse_string("[s]\nk = v").only("s").get("k"), "v");
  EXPECT_DOUBLE_EQ(
      IniFile::parse_string("[s]\nn = 1.5").only("s").get_double("n"), 1.5);
  EXPECT_NE(IniFile::parse_string("[s]").find("s"), nullptr);
}

TEST(Ini, ParseErrorsNameTheLine) {
  EXPECT_EQ(error_of("[s]\n\n[t\n"), "ini: unterminated section at line 3");
  EXPECT_EQ(error_of("# c\n[ ]\n"), "ini: empty section name at line 2");
  EXPECT_EQ(error_of("[s]\nk = 1\nnoequals\n"),
            "ini: expected key=value at line 3");
  // A line without '=' is reported as such even outside a section.
  EXPECT_EQ(error_of("\n; c\nnoequals\n"),
            "ini: expected key=value at line 3");
  EXPECT_EQ(error_of("\nk = 1\n"),
            "ini: key/value outside a section at line 2");
  EXPECT_EQ(error_of("[s]\nk = 1\n = v\n"), "ini: empty key at line 3");
  try {
    IniFile::parse_file("/nonexistent/file.ini");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ini: cannot open /nonexistent/file.ini");
  }
}

TEST(Ini, NumbersFollowTheStrtodGrammar) {
  const auto ini = IniFile::parse_string("[s]\nplus = +1.5\nhex = 0x1p3\n");
  EXPECT_EQ(ini.only("s").get_double("plus"), 1.5);
  EXPECT_EQ(ini.only("s").get_double("hex"), 8.0);
}

TEST(Ini, OutOfRangeAndTrailingTextAreNotNumbers) {
  const auto ini = IniFile::parse_string(
      "[s]\ntiny = 1e-310\nhuge = 1e999\ntail = 1.5abc\n");
  const auto& s = ini.only("s");
  EXPECT_EQ(get_double_error(s, "tiny"),
            "ini: [s] key 'tiny' is not a number: '1e-310'");
  EXPECT_EQ(get_double_error(s, "huge"),
            "ini: [s] key 'huge' is not a number: '1e999'");
  EXPECT_EQ(get_double_error(s, "tail"),
            "ini: [s] key 'tail' is not a number: '1.5abc'");
}

// Text whose exact value lies just below DBL_MIN rounds up to it, and glibc's
// strtod reports that as an underflow; std::from_chars does not, so the fast
// path must leave it to strtod.
TEST(Ini, TextRoundingUpToDblMinIsNotANumber) {
  const auto ini = IniFile::parse_string(
      "[s]\nbelow = 2.2250738585072012e-308\nat = 2.2250738585072014e-308\n");
  const auto& s = ini.only("s");
  EXPECT_EQ(get_double_error(s, "below"),
            "ini: [s] key 'below' is not a number: "
            "'2.2250738585072012e-308'");
  EXPECT_EQ(s.get_double("at"), std::numeric_limits<double>::min());
}

TEST(Ini, MissingKeyNamesSectionAndKey) {
  const auto ini = IniFile::parse_string("[s]\nk = 1\n");
  EXPECT_EQ(get_double_error(ini.only("s"), "missing"),
            "ini: [s] missing key 'missing'");
  EXPECT_THROW(ini.only("s").get_int("missing"), std::invalid_argument);
}

TEST(Ini, InfinityMustBeFinite) {
  const auto ini = IniFile::parse_string("[s]\nx = infinity\n");
  EXPECT_EQ(get_double_error(ini.only("s"), "x"),
            "ini: [s] key 'x' must be finite: 'infinity'");
}

TEST(Ini, ValueWithNulThrows) {
  const std::string text("[s]\nk = 1\0 2\n", 13);
  const auto ini = IniFile::parse_string(text);
  const auto& s = ini.only("s");
  EXPECT_EQ(s.get("k"), std::string("1\0 2", 4));
  EXPECT_THROW(s.get_double("k"), std::invalid_argument);
  EXPECT_THROW(s.get_int("k"), std::invalid_argument);
}

// Pins today's rounding: integers parse through double, so values above
// 2^53 round to the nearest double. Every e2e workload's 19-digit seed
// loads rounded and the stored e2e digests depend on it; see the FOUND line
// on INI integers in CHANGES.md.
TEST(Ini, GetIntRoundsAbove2To53) {
  const auto ini = IniFile::parse_string("[s]\nn = 9007199254740993\n");
  EXPECT_EQ(ini.only("s").get_int("n"), 9007199254740992LL);
}

TEST(Ini, MovedShortFileKeepsItsValues) {
  auto first = IniFile::parse_string("[s]\nk = 1\n");
  IniFile second = std::move(first);
  std::optional<IniFile> third;
  third = std::move(second);
  const auto& s = third->only("s");
  EXPECT_EQ(s.get("k"), "1");
  EXPECT_EQ(s.get_double("k"), 1.0);
}

// The fleet path parses 10^5 [device] sections; the parser's allocations
// must not grow with the number of keys.
TEST(Ini, ParseAllocationsDoNotGrowWithKeys) {
  std::string text = "[scenario]\nmodel = inception\nseed = 7\n";
  for (int d = 0; d < 10000; ++d)
    text += "[device]\ngflops = " + std::to_string(1 + d % 7) +
            "\nrate = 0.5\nuplink_mbps = 20\nuplink_latency_ms = 5\n"
            "difficulty = 0.3\nclass = phone\n";
  const std::uint64_t before = testsupport::allocation_count();
  const auto ini = IniFile::parse_string(text);
  const std::uint64_t allocations = testsupport::allocation_count() - before;
  EXPECT_EQ(ini.all("device").size(), 10000u);
  EXPECT_LT(allocations, 100u);
}

}  // namespace
}  // namespace leime::util
