#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace leime::obs {
namespace {

SlotSample make_sample(double t, int device, double q, double h) {
  SlotSample s;
  s.t = t;
  s.device = device;
  s.q = q;
  s.h = h;
  s.x = 0.5;
  s.kept_arrivals = 2;
  s.offloaded_arrivals = 1;
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(MemorySink, KeepsSamplesInAppendOrder) {
  MemoryTimeseriesSink sink;
  sink.append(make_sample(0.0, 0, 1.0, 0.0));
  sink.append(make_sample(0.0, 1, 5.0, 0.0));
  sink.append(make_sample(1.0, 0, 2.0, 0.0));
  ASSERT_EQ(sink.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(sink.samples()[0].q, 1.0);
  EXPECT_EQ(sink.samples()[1].device, 1);
  EXPECT_DOUBLE_EQ(sink.samples()[2].q, 2.0);
}

TEST(CsvSink, HeaderRowsAndClose) {
  const std::string path = ::testing::TempDir() + "obs_timeseries_test.csv";
  {
    CsvTimeseriesSink sink(path);
    sink.append(make_sample(0.0, 0, 1.0, 2.0));
    sink.append(make_sample(1.0, 1, 3.0, 4.0));
    sink.close();
  }
  const auto text = read_file(path);
  EXPECT_NE(text.find("t,device,q,h,x,drift,penalty,kept_arrivals,"
                      "offloaded_arrivals,edge_up,link_up,edge_share_flops"),
            std::string::npos);
  EXPECT_NE(text.find("0,0,1,2,0.5"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace leime::obs
