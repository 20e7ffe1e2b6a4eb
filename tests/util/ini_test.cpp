#include "util/ini.h"

#include <gtest/gtest.h>

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
}

}  // namespace
}  // namespace leime::util
