#include "util/csv.h"

#include <iostream>
#include <stdexcept>

#include "util/output.h"

namespace leime::util {

std::string csv_escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path),
      out_(open_file(path, "CsvWriter")),
      width_(header.size()) {
  if (header.empty())
    throw std::invalid_argument("CsvWriter: empty header");
  write_row(header);
  rows_written_ = 0;  // header does not count
}

CsvWriter::~CsvWriter() {
  try {
    close();
  } catch (const std::exception& e) {
    // A destructor cannot throw; surface the data loss instead of
    // swallowing it.
    std::cerr << "CsvWriter: " << e.what() << "\n";
  }
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (closed_)
    throw std::runtime_error("CsvWriter: add_row after close: " + path_);
  if (cells.size() != width_)
    throw std::invalid_argument("CsvWriter: row width mismatch");
  write_row(cells);
  if (!out_.good())
    throw std::runtime_error("CsvWriter: write error on " + path_);
  ++rows_written_;
}

void CsvWriter::close() {
  if (closed_) return;
  closed_ = true;
  close_file(out_, path_, "CsvWriter");
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(cells[i]);
  }
  out_ << '\n';
}

}  // namespace leime::util
