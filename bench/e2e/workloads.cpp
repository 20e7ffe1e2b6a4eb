// Workload generators: each turns (name, seed, scale) into INI text.
//
// The seed changes which device gets which parameters, never how much work
// a repetition holds: devices come in fixed-size blocks with a fixed
// RPi/Nano mix, and each block's task rates are rescaled to the same total.
// So runs on different seeds exercise different inputs at the same load,
// and their host times are comparable.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "e2e.h"

namespace e2e {

namespace {

using leime::runtime::AxisValue;
using leime::runtime::ExperimentPlan;
using leime::sim::ScenarioConfig;

/// splitmix64: the benchmark's own input generator, independent of
/// leime::util::Rng so a change to the library's RNG cannot change the
/// inputs it is measured on.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

std::uint64_t stream_seed(std::uint64_t seed, const char* family) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* c = family; *c; ++c)
    h = (h ^ static_cast<unsigned char>(*c)) * 0x100000001b3ULL;
  return h ^ (seed * 0x9e3779b97f4a7c15ULL);
}

struct DeviceDraw {
  double gflops, rate, mbps, latency_ms, difficulty;
  bool nano;
};

/// `n` devices in blocks of `block`, each block holding `nanos` Jetson
/// Nano-class devices at seeded positions and RPi-class devices otherwise,
/// with task rates drawn from [rate_lo, rate_hi] and rescaled so every block
/// has a mean rate of `mean_rate`.
std::vector<DeviceDraw> draw_fleet(InputRng& rng, std::size_t n,
                                   std::size_t block, std::size_t nanos,
                                   double rate_lo, double rate_hi,
                                   double mean_rate) {
  std::vector<DeviceDraw> fleet;
  fleet.reserve(n);
  for (std::size_t b0 = 0; b0 < n; b0 += block) {
    const std::size_t len = std::min(block, n - b0);
    std::vector<char> is_nano(len, 0);
    for (std::size_t k = 0; k < std::min(nanos, len); ++k) is_nano[k] = 1;
    for (std::size_t k = len; k > 1; --k)  // Fisher-Yates
      std::swap(is_nano[k - 1], is_nano[rng.next() % k]);
    double rate_sum = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      DeviceDraw d;
      d.nano = is_nano[k] != 0;
      d.gflops = d.nano ? rng.uniform(5.0, 7.0) : rng.uniform(0.5, 0.7);
      d.rate = rng.uniform(rate_lo, rate_hi);
      d.mbps = d.nano ? rng.uniform(15.0, 30.0) : rng.uniform(6.0, 14.0);
      d.latency_ms = d.nano ? rng.uniform(8.0, 20.0) : rng.uniform(15.0, 40.0);
      d.difficulty = rng.uniform(0.8, 1.4);
      rate_sum += d.rate;
      fleet.push_back(d);
    }
    const double scale = mean_rate * static_cast<double>(len) / rate_sum;
    for (std::size_t k = 0; k < len; ++k) fleet[b0 + k].rate *= scale;
  }
  return fleet;
}

class IniWriter {
 public:
  explicit IniWriter(std::size_t reserve) { text_.reserve(reserve); }

  IniWriter& section(const char* name) {
    text_ += text_.empty() ? "[" : "\n[";
    text_ += name;
    text_ += "]\n";
    return *this;
  }
  IniWriter& kv(const char* key, const std::string& value) {
    text_ += key;
    text_ += " = ";
    text_ += value;
    text_ += '\n';
    return *this;
  }
  IniWriter& kv(const char* key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return kv(key, std::string(buf));
  }
  IniWriter& devices(const std::vector<DeviceDraw>& fleet) {
    char buf[192];
    for (const auto& d : fleet) {
      std::snprintf(buf, sizeof buf,
                    "\n[device]\ngflops = %.4g\nrate = %.4g\nuplink_mbps = "
                    "%.4g\nuplink_latency_ms = %.4g\ndifficulty = %.4g\n"
                    "class = %s\n",
                    d.gflops, d.rate, d.mbps, d.latency_ms, d.difficulty,
                    d.nano ? "nano" : "rpi");
      text_ += buf;
    }
    return *this;
  }
  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

std::string seed_text(InputRng& rng) {
  // INI integers go through a signed parse; keep the scenario seed positive.
  return std::to_string(rng.next() >> 1);
}

// campus_sweep: the paper-figure path. 24 campus devices (4 RPi + 2 Nano
// per block of 6) running resnet34, no faults, no observability, flat
// links; sweep_plan crosses it with policy, rate scale and fleet size on a
// 4-thread executor. The edge is 150 GFLOPS because eq. 27 gives Nano-class
// devices only the minimum edge share: on a 50 GFLOPS edge their block-2
// work saturates it at every rate. At 1x the full campus is stable; the
// 24-device cells at 1.5x and 2x are the saturation knee.
Workload campus_sweep(std::uint64_t seed, Scale scale) {
  InputRng rng(stream_seed(seed, "campus_sweep"));
  const bool smoke = scale == Scale::kSmoke;
  IniWriter ini(8 << 10);
  ini.section("scenario")
      .kv("model", "resnet34")
      .kv("policy", "LEIME")
      .kv("duration", smoke ? 60.0 : 300.0)
      .kv("warmup", smoke ? 5.0 : 10.0)
      .kv("seed", seed_text(rng))
      .kv("replications", smoke ? 1.0 : 10.0)
      .kv("reallocation_period", 20.0);
  ini.section("runtime").kv("threads", 4.0);
  ini.section("edge")
      .kv("gflops", 150.0)
      .kv("cloud_tflops", 4.0)
      .kv("cloud_mbps", 1000.0)
      .kv("cloud_latency_ms", 30.0);
  ini.devices(draw_fleet(rng, 24, 6, 2, 0.15, 0.5, 0.3));
  return {"campus_sweep", ini.take(), true};
}

// fleet_100k / fleet_100k_sharded: in-the-wild scale. 70% RPi / 30% Nano
// at 0.2-2 tasks/s running squeezenet, with the edge and the edge-cloud
// link scaled with the fleet (1 GFLOPS and 1 Mbps per device) so the
// system is stable rather than saturated. Both names share one device
// stream, so the sharded run must reproduce the single-queue digest.
Workload fleet(std::uint64_t seed, Scale scale, bool sharded) {
  InputRng rng(stream_seed(seed, "fleet_100k"));
  const std::size_t n = scale == Scale::kSmoke ? 2000 : 100000;
  const double nd = static_cast<double>(n);
  IniWriter ini(n * 128);
  ini.section("scenario")
      .kv("model", "squeezenet")
      .kv("policy", "LEIME")
      .kv("duration", 2.0)
      .kv("warmup", 0.5)
      .kv("seed", seed_text(rng));
  ini.section("edge")
      .kv("gflops", nd)
      .kv("cloud_tflops", 0.004 * nd)
      .kv("cloud_mbps", nd)
      .kv("cloud_latency_ms", 30.0);
  if (sharded) ini.section("shards").kv("shards", 4.0).kv("threads", 4.0);
  ini.devices(draw_fleet(rng, n, 10, 3, 0.2, 2.0, 1.1));
  return {sharded ? "fleet_100k_sharded" : "fleet_100k", ini.take(), false};
}

// wild_1k: the event-loop-heavy path. 1,024 devices behind 8 APs with a
// queue limit, Poisson link outages, edge crashes and task timeouts with
// retries, LEIME+fallback with every policy fast path, and every
// observability pillar on.
Workload wild(std::uint64_t seed, Scale scale, bool observability) {
  InputRng rng(stream_seed(seed, "wild_1k"));
  const bool smoke = scale == Scale::kSmoke;
  IniWriter ini(160 << 10);
  ini.section("scenario")
      .kv("model", "squeezenet")
      .kv("policy", "LEIME+fallback")
      .kv("duration", smoke ? 18.0 : 900.0)
      .kv("warmup", smoke ? 2.0 : 10.0)
      .kv("seed", seed_text(rng))
      .kv("reallocation_period", 30.0);
  ini.section("edge")
      .kv("gflops", 2000.0)
      .kv("cloud_tflops", 40.0)
      .kv("cloud_mbps", 10000.0)
      .kv("cloud_latency_ms", 20.0);
  ini.section("topology")
      .kv("aps", 8.0)
      .kv("ap_mbps", 400.0)
      .kv("ap_latency_ms", 2.0)
      .kv("queue_limit_kb", 2048.0);
  ini.section("faults")
      .kv("link_outage_rate", 0.0005)
      .kv("link_outage_mean_s", 3.0)
      .kv("edge_crash_rate", 0.003)
      .kv("edge_downtime_mean_s", 4.0)
      .kv("detection_timeout_s", 0.5)
      .kv("task_timeout_s", 3.0)
      .kv("max_retries", 2.0)
      .kv("retry_backoff_s", 0.25)
      .kv("probe_period_s", 0.5);
  ini.section("policy")
      .kv("memo_cache", "true")
      .kv("warm_start", "true")
      .kv("batch_eq20", "true");
  if (observability) {
    ini.section("observability")
        .kv("metrics", "true")
        .kv("trace_sample", 64.0)
        .kv("attribution", "true");
    ini.section("slo").kv("deadline_ms", 1500.0).kv("window_s", 30.0);
    ini.section("provenance")
        .kv("sample_n", 16.0)
        .kv("oracle_sample_n", 64.0);
  }
  ini.devices(draw_fleet(rng, 1024, 8, 2, 0.3, 1.2, 0.5));
  return {"wild_1k", ini.take(), false};
}

}  // namespace

const char* scale_name(Scale scale) {
  return scale == Scale::kSmoke ? "smoke" : "full";
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale, bool observability) {
  if (name == "campus_sweep") return campus_sweep(seed, scale);
  if (name == "fleet_100k") return fleet(seed, scale, false);
  if (name == "fleet_100k_sharded") return fleet(seed, scale, true);
  if (name == "wild_1k") return wild(seed, scale, observability);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

ExperimentPlan sweep_plan(const leime::sim::IniScenario& scenario) {
  ExperimentPlan plan(scenario.config);
  std::vector<AxisValue> policies;
  for (const char* p :
       {"LEIME", "LEIME-balance", "D-only", "E-only", "cap_based"})
    policies.push_back({p, [p](ScenarioConfig& cfg) { cfg.policy = p; }});
  plan.add_axis("policy", std::move(policies));
  plan.add_axis("rate_scale", {0.5, 1.0, 1.5, 2.0},
                [](ScenarioConfig& cfg, double s) {
                  for (auto& dev : cfg.devices) dev.mean_rate *= s;
                });
  // Fleet sizes of a quarter, half, three quarters and all of the campus:
  // each cell keeps the first n devices.
  const std::size_t n = scenario.config.devices.size();
  plan.add_axis("devices",
                {static_cast<double>(n / 4), static_cast<double>(n / 2),
                 static_cast<double>(3 * n / 4), static_cast<double>(n)},
                [](ScenarioConfig& cfg, double size) {
                  cfg.devices.resize(static_cast<std::size_t>(size));
                });
  plan.replications(scenario.replications).base_seed(scenario.config.seed);
  return plan;
}

}  // namespace e2e
