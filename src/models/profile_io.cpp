#include "models/profile_io.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/output.h"

namespace leime::models {

namespace {

constexpr char kMagic[] = "leime-profile v1";

/// Reads the next non-comment, non-empty line; throws on EOF.
std::string next_line(std::istream& in, const char* what) {
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    if (line.back() == '\r') line.pop_back();
    return line;
  }
  throw std::invalid_argument(std::string("load_profile: unexpected EOF before ") +
                              what);
}

std::string expect_keyword_line(std::istream& in, const std::string& keyword) {
  const std::string line = next_line(in, keyword.c_str());
  if (line.rfind(keyword + " ", 0) != 0)
    throw std::invalid_argument("load_profile: expected '" + keyword +
                                "', got '" + line + "'");
  return line.substr(keyword.size() + 1);
}

double parse_double(const std::string& token, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("load_profile: bad number for ") +
                                what + ": '" + token + "'");
  }
}

int parse_count(const std::string& token, const char* what) {
  const double v = parse_double(token, what);
  if (v < 1 || v > 1e6 || v != static_cast<int>(v))
    throw std::invalid_argument(std::string("load_profile: bad count for ") +
                                what);
  return static_cast<int>(v);
}

}  // namespace

void save_profile(const ModelProfile& profile, std::ostream& out) {
  out << kMagic << '\n';
  out << "name " << profile.name() << '\n';
  out << "input_bytes " << util::num(profile.input_bytes()) << '\n';
  const int m = profile.num_units();
  out << "units " << m << '\n';
  for (int i = 1; i <= m; ++i) {
    const auto& u = profile.unit(i);
    out << u.name << ' ' << util::num(u.flops) << ' '
        << util::num(u.out_bytes) << '\n';
  }
  out << "exits " << m << '\n';
  for (int i = 1; i <= m; ++i) {
    const auto& e = profile.exit(i);
    out << util::num(e.classifier_flops) << ' ' << util::num(e.exit_rate)
        << ' ' << util::num(e.exit_accuracy) << '\n';
  }
}

void save_profile_file(const ModelProfile& profile, const std::string& path) {
  util::write_file(path, "save_profile_file",
                   [&](std::ostream& out) { save_profile(profile, out); });
}

ModelProfile load_profile(std::istream& in) {
  if (next_line(in, "magic") != kMagic)
    throw std::invalid_argument("load_profile: bad magic line");
  const std::string name = expect_keyword_line(in, "name");
  const double input_bytes =
      parse_double(expect_keyword_line(in, "input_bytes"), "input_bytes");
  const int m = parse_count(expect_keyword_line(in, "units"), "units");

  std::vector<UnitSpec> units;
  units.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    std::istringstream fields(next_line(in, "unit record"));
    UnitSpec u;
    std::string flops, bytes;
    if (!(fields >> u.name >> flops >> bytes))
      throw std::invalid_argument("load_profile: malformed unit record");
    u.flops = parse_double(flops, "unit flops");
    u.out_bytes = parse_double(bytes, "unit out_bytes");
    units.push_back(std::move(u));
  }

  const int me = parse_count(expect_keyword_line(in, "exits"), "exits");
  if (me != m)
    throw std::invalid_argument("load_profile: exits count != units count");
  std::vector<ExitSpec> exits;
  exits.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    std::istringstream fields(next_line(in, "exit record"));
    std::string flops, rate, acc;
    if (!(fields >> flops >> rate >> acc))
      throw std::invalid_argument("load_profile: malformed exit record");
    ExitSpec e;
    e.classifier_flops = parse_double(flops, "exit flops");
    e.exit_rate = parse_double(rate, "exit rate");
    e.exit_accuracy = parse_double(acc, "exit accuracy");
    exits.push_back(e);
  }
  return ModelProfile(name, input_bytes, std::move(units), std::move(exits));
}

ModelProfile load_profile_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("load_profile_file: cannot open " + path);
  return load_profile(in);
}

}  // namespace leime::models
