// Aligned plain-text table printing for bench harness output.
//
// The bench binaries reproduce the paper's figures as text series; TablePrinter
// keeps that output legible and diffable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace leime::util {

/// Collects rows of string cells and prints them with aligned columns.
class TablePrinter {
 public:
  /// Creates a table with the given column headers (at least one).
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders the table (header, separator, rows) to the stream.
  void print(std::ostream& os) const;

  /// Renders to a string (used by tests).
  std::string to_string() const;

  /// Writes the table as CSV (header + rows) to `path`.
  void write_csv(const std::string& path) const;

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given precision (fixed notation).
std::string fmt(double value, int precision = 3);

}  // namespace leime::util
