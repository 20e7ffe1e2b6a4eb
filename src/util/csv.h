// Minimal RFC-4180-ish CSV writer for exporting bench series.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace leime::util {

/// Writes rows to a CSV file; cells containing commas/quotes/newlines are
/// quoted. The file is created on construction and flushed on destruction.
///
/// Error reporting: add_row throws std::runtime_error as soon as the
/// stream goes bad (full disk, revoked mount). Callers that must not lose
/// data call close(), which flushes, fsyncs and throws on any failure; the
/// destructor is a best-effort close that logs to stderr instead of
/// throwing.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Throws std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Appends one row; must match the header width. Throws
  /// std::runtime_error if the underlying stream reports a write error.
  void add_row(const std::vector<std::string>& cells);

  /// Ends the file durably (util::close_file: flush, close, fsync); throws
  /// std::runtime_error if any byte could not be written. Idempotent.
  void close();

  std::size_t num_rows() const { return rows_written_; }

 private:
  void write_row(const std::vector<std::string>& cells);

  std::string path_;
  std::ofstream out_;
  std::size_t width_;
  std::size_t rows_written_ = 0;
  bool closed_ = false;
};

/// Escapes a single CSV cell (exposed for testing).
std::string csv_escape(const std::string& cell);

}  // namespace leime::util
