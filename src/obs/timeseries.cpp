#include "obs/timeseries.h"

#include "util/output.h"

namespace leime::obs {

using util::num;

CsvTimeseriesSink::CsvTimeseriesSink(const std::string& path)
    : writer_(path, {"t", "device", "q", "h", "x", "drift", "penalty",
                     "kept_arrivals", "offloaded_arrivals", "edge_up",
                     "link_up", "edge_share_flops"}) {}

void CsvTimeseriesSink::append(const SlotSample& s) {
  writer_.add_row({num(s.t), std::to_string(s.device), num(s.q), num(s.h),
                   num(s.x), num(s.drift), num(s.penalty),
                   std::to_string(s.kept_arrivals),
                   std::to_string(s.offloaded_arrivals),
                   s.edge_up ? "1" : "0", s.link_up ? "1" : "0",
                   num(s.edge_share_flops)});
}

}  // namespace leime::obs
