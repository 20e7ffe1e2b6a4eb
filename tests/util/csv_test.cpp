#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace leime::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(csv_escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/leime_csv_test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    w.add_row({"1", "2"});
    w.add_row({"a,b", "c"});
    EXPECT_EQ(w.num_rows(), 2u);
  }
  const std::string content = read_file(path);
  EXPECT_EQ(content, "x,y\n1,2\n\"a,b\",c\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWidthMismatchAndEmptyHeader) {
  const std::string path = testing::TempDir() + "/leime_csv_test2.csv";
  {
    CsvWriter w(path, {"a"});
    EXPECT_THROW(w.add_row({"1", "2"}), std::invalid_argument);
  }  // closed before the file goes, or its fsync fails on stderr
  std::remove(path.c_str());
}

// A writer destroyed without close() reports a failed flush on stderr,
// with the "CsvWriter: " prefix once: close_file's message already has it.
TEST(CsvWriter, UnclosedWriterReportsWriteErrorOnce) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  testing::internal::CaptureStderr();
  {
    CsvWriter w("/dev/full", {"x"});
    w.add_row({"1"});
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "CsvWriter: write error on /dev/full\n");
}

}  // namespace
}  // namespace leime::util
