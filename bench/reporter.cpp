#include "reporter.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <sys/utsname.h>
#include <thread>

#include "util/clock.h"
#include "util/output.h"
#include "util/table.h"

namespace leime::bench {

using util::json_escape;
using util::num;

namespace {

std::string trim(const std::string& s) {
  const auto a = s.find_first_not_of(" \t\r\n");
  if (a == std::string::npos) return "";
  const auto b = s.find_last_not_of(" \t\r\n");
  return s.substr(a, b - a + 1);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = trim(line.substr(0, colon));
    if (key == "model name" || key == "Hardware" || key == "cpu model")
      return trim(line.substr(colon + 1));
  }
  return "unknown";
}

std::string uname_string() {
  struct utsname u {};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + "-" + u.machine;
}

/// LEIME_GIT_COMMIT env wins (CI sets it from the checkout SHA); falls
/// back to asking git, then "unknown" outside a work tree.
std::string git_commit() {
  if (const char* env = std::getenv("LEIME_GIT_COMMIT"); env && *env)
    return env;
  FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r");
  if (!pipe) return "unknown";
  char buf[64] = {0};
  const std::size_t n = fread(buf, 1, sizeof(buf) - 1, pipe);
  pclose(pipe);
  const std::string sha = trim(std::string(buf, n));
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

std::string host_fingerprint() {
  return uname_string() + "/" + cpu_model() + "/" +
         std::to_string(std::thread::hardware_concurrency());
}

Reporter::Reporter(std::string bench_name, Options opts)
    : name_(std::move(bench_name)), opts_(opts) {
  if (opts_.repeats < 1)
    throw std::invalid_argument("Reporter: need at least one repeat");
  if (opts_.warmup < 0)
    throw std::invalid_argument("Reporter: negative warmup");
}

BenchCase& Reporter::run_case(const std::string& name,
                              const std::function<void()>& fn) {
  for (int w = 0; w < opts_.warmup; ++w) fn();
  std::vector<double> rounds;
  rounds.reserve(static_cast<std::size_t>(opts_.repeats));
  for (int r = 0; r < opts_.repeats; ++r) {
    const auto t0 = util::WallClock::now();
    fn();
    rounds.push_back(util::seconds_since(t0));
  }
  return add_case(name, std::move(rounds), opts_.warmup);
}

BenchCase& Reporter::add_case(const std::string& name,
                              std::vector<double> rounds_s, int warmup) {
  BenchCase c;
  c.name = name;
  c.warmup = warmup;
  c.wall = util::robust_summarize(rounds_s);
  c.rounds_s = std::move(rounds_s);
  cases_.push_back(std::move(c));
  return cases_.back();
}

void Reporter::print_table(std::ostream& out) const {
  util::TablePrinter t(
      {"case", "median (s)", "mad (s)", "cv", "counters"});
  for (const auto& c : cases_) {
    std::string counters;
    for (const auto& [k, v] : c.counters) {
      if (!counters.empty()) counters += " ";
      counters += k + "=" + std::to_string(v);
    }
    t.add_row({c.name, util::fmt(c.wall.median, 4), util::fmt(c.wall.mad, 4),
               util::fmt(c.wall.cv, 3), counters.empty() ? "-" : counters});
  }
  t.print(out);
}

std::string Reporter::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": 1,\n";
  out << "  \"bench\": \"" << json_escape(name_) << "\",\n";
  out << "  \"host\": \"" << json_escape(host_fingerprint()) << "\",\n";
  out << "  \"git_commit\": \"" << json_escape(git_commit()) << "\",\n";
  out << "  \"warmup\": " << opts_.warmup << ",\n";
  out << "  \"repeats\": " << opts_.repeats << ",\n";
  out << "  \"cases\": [";
  bool first_case = true;
  for (const auto& c : cases_) {
    out << (first_case ? "" : ",") << "\n    {\n";
    first_case = false;
    out << "      \"name\": \"" << json_escape(c.name) << "\",\n";
    out << "      \"wall_s\": {\"median\": " << num(c.wall.median)
        << ", \"mad\": " << num(c.wall.mad) << ", \"cv\": " << num(c.wall.cv)
        << ", \"min\": " << num(c.wall.min) << ", \"max\": "
        << num(c.wall.max) << ", \"mean\": " << num(c.wall.mean) << "},\n";
    out << "      \"rounds_s\": [";
    for (std::size_t i = 0; i < c.rounds_s.size(); ++i)
      out << (i ? ", " : "") << num(c.rounds_s[i]);
    out << "],\n";
    out << "      \"counters\": {";
    bool first = true;
    for (const auto& [k, v] : c.counters) {
      out << (first ? "" : ", ") << "\"" << json_escape(k) << "\": " << v;
      first = false;
    }
    out << "},\n";
    out << "      \"rates\": {";
    first = true;
    for (const auto& [k, v] : c.rates) {
      out << (first ? "" : ", ") << "\"" << json_escape(k)
          << "\": " << num(v);
      first = false;
    }
    out << "}\n    }";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

void Reporter::write_json(const std::string& path) const {
  util::write_file(path, "bench", [&](std::ostream& out) { out << to_json(); });
}

}  // namespace leime::bench
