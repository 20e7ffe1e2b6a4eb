#include "util/output.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace leime::util {
namespace {

// The golden files hold 17 significant digits, not the shortest text that
// round-trips: 6/70 prints as 0.085714285714285715, not 0.08571428571428572.
TEST(OutputNum, SeventeenSignificantDigits) {
  EXPECT_EQ(num(6.0 / 70.0), "0.085714285714285715");
  EXPECT_EQ(num(0.1), "0.10000000000000001");
  EXPECT_EQ(num(0.5), "0.5");
  EXPECT_EQ(num(1e9), "1000000000");
  EXPECT_EQ(num(1e-7), "9.9999999999999995e-08");
  EXPECT_EQ(num(-2.0), "-2");
  EXPECT_EQ(std::stod(num(6.0 / 70.0)), 6.0 / 70.0);
}

TEST(OutputJsonEscape, EscapesQuotesBackslashesAndControlWhitespace) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("l1\nl2\tx\ry"), "l1\\nl2\\tx\\ry");
}

TEST(OutputWriteFile, WritesAndNamesTheCallerOnFailure) {
  const std::string path = testing::TempDir() + "/leime_output_test.txt";
  write_file(path, "test", [](std::ostream& out) { out << "a " << num(0.5); });
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "a 0.5");
  std::remove(path.c_str());

  try {
    write_file("/nonexistent-dir/x.txt", "test", [](std::ostream&) {});
    ADD_FAILURE() << "write_file did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "test: cannot open /nonexistent-dir/x.txt");
  }
}

}  // namespace
}  // namespace leime::util
