#include "util/output.h"

#include <limits>
#include <sstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LEIME_HAVE_FSYNC 1
#endif

namespace leime::util {

namespace {

/// fsyncs a closed file's contents to disk; false on failure. True without
/// syncing on platforms lacking POSIX fsync.
bool fsync_path(const std::string& path) noexcept {
#ifdef LEIME_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

}  // namespace

std::string num(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::ofstream open_file(const std::string& path, const std::string& what) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(what + ": cannot open " + path);
  return out;
}

void close_file(std::ofstream& out, const std::string& path,
                const std::string& what) {
  out.flush();
  const bool ok = out.good();
  out.close();
  if (!ok || out.fail())
    throw std::runtime_error(what + ": write error on " + path);
  if (!fsync_path(path))
    throw std::runtime_error(what + ": fsync failed for " + path);
}

void write_file(const std::string& path, const std::string& what,
                const std::function<void(std::ostream&)>& emit) {
  auto out = open_file(path, what);
  emit(out);
  close_file(out, path, what);
}

}  // namespace leime::util
