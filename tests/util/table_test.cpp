#include "util/table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace leime::util {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinter, RejectsBadShapes) {
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace leime::util
namespace leime::util {
namespace {

TEST(TablePrinter, WriteCsv) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "x,y"});
  const std::string path = testing::TempDir() + "/leime_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(TablePrinter, Accessors) {
  TablePrinter t({"h"});
  t.add_row({"v"});
  EXPECT_EQ(t.headers().size(), 1u);
  EXPECT_EQ(t.rows()[0][0], "v");
}

}  // namespace
}  // namespace leime::util
