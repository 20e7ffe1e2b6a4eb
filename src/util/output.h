// The one place that decides how an output file's bytes look and how the
// file reaches the disk (DESIGN.md §8, "Output files").
//
// Every writer — the runtime sinks, the observability pillars, the
// profiler, the bench reporter — prints doubles with num(), escapes JSON
// strings with json_escape() and creates files through write_file(), or
// open_file() + close_file() when it streams. Equal values therefore
// serialize to equal bytes in every file, and no writer can skip a
// durability step.
#pragma once

#include <fstream>
#include <functional>
#include <string>

namespace leime::util {

/// A double as 17 significant digits: what an std::ostream prints with
/// precision(max_digits10) and the default floatfield, i.e. printf's
/// "%.17g". The text reads back as the same double, but it is not the
/// shortest text that does (0.085714285714285715, not 0.08571428571428572).
/// The golden files hold this form, so it is part of the output contract.
std::string num(double v);

/// Escapes `s` for the inside of a JSON string: double quote, backslash,
/// newline, tab and carriage return. Other bytes pass through unchanged.
std::string json_escape(const std::string& s);

/// Creates (truncates) `path` for writing. Throws std::runtime_error
/// "<what>: cannot open <path>" when it cannot.
std::ofstream open_file(const std::string& path, const std::string& what);

/// Ends a file opened by open_file durably: flush, check the stream,
/// close, check the close, fsync. Throws std::runtime_error "<what>: write
/// error on <path>" or "<what>: fsync failed for <path>", so a full disk or
/// a revoked mount is reported instead of leaving a truncated file.
void close_file(std::ofstream& out, const std::string& path,
                const std::string& what);

/// open_file, then emit(stream), then close_file.
void write_file(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& emit);

}  // namespace leime::util
