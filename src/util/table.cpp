#include "util/table.h"

#include "util/csv.h"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace leime::util {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty())
    throw std::invalid_argument("TablePrinter: need at least one column");
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("TablePrinter: row width mismatch");
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "  " << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    os << '\n';
  };

  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

void TablePrinter::write_csv(const std::string& path) const {
  CsvWriter writer(path, headers_);
  for (const auto& row : rows_) writer.add_row(row);
  writer.close();
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

}  // namespace leime::util
