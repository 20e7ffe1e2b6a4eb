#include "sim/scenario_ini.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <utility>

#include "core/exit_setting.h"
#include "models/profile_io.h"
#include "models/zoo.h"
#include "policy/engine.h"

namespace leime::sim {

ObsConfig parse_observability_section(const util::IniSection& section) {
  section.check_keys({"metrics", "trace_sample", "timeseries", "metrics_out",
                      "metrics_jsonl", "trace_out", "timeseries_out",
                      "attribution", "attribution_out", "calibration_out"});

  ObsConfig obs;
  obs.metrics = section.get_bool("metrics", false);
  const long long sample = section.get_int("trace_sample", 0);
  if (sample < 0)
    throw std::invalid_argument("[observability] trace_sample must be >= 0");
  obs.trace_sample = static_cast<std::uint64_t>(sample);
  obs.timeseries = section.get_bool("timeseries", false);
  obs.metrics_out = section.get("metrics_out", "");
  obs.metrics_jsonl = section.get("metrics_jsonl", "");
  obs.trace_out = section.get("trace_out", "");
  obs.timeseries_out = section.get("timeseries_out", "");
  obs.attribution = section.get_bool("attribution", false);
  obs.attribution_out = section.get("attribution_out", "");
  obs.calibration_out = section.get("calibration_out", "");
  return obs;
}

obs::SloConfig parse_slo_section(const util::IniSection& section) {
  section.check_keys({"deadline_ms", "window_s", "target_miss_rate",
                      "burn_threshold", "min_window_tasks", "alerts_out"});

  obs::SloConfig slo;
  const double deadline_ms = section.get_double("deadline_ms", 0.0);
  if (deadline_ms < 0.0)
    throw std::invalid_argument(
        "[slo] deadline_ms must be >= 0 (0 disables the monitor)");
  slo.deadline = util::ms(deadline_ms);
  // deadline_ms = 0 (or unset) disables the monitor; the remaining keys
  // are still parsed and checked so a disabled section fails fast on typos
  // and bad values.
  slo.window = section.get_double("window_s", slo.window);
  if (!(slo.window > 0.0))
    throw std::invalid_argument("[slo] window_s must be positive");
  slo.target_miss_rate =
      section.get_double("target_miss_rate", slo.target_miss_rate);
  if (!(slo.target_miss_rate > 0.0 && slo.target_miss_rate <= 1.0))
    throw std::invalid_argument("[slo] target_miss_rate must be in (0, 1]");
  slo.burn_threshold =
      section.get_double("burn_threshold", slo.burn_threshold);
  if (!(slo.burn_threshold > 0.0))
    throw std::invalid_argument("[slo] burn_threshold must be positive");
  const long long min_tasks = section.get_int(
      "min_window_tasks", static_cast<long long>(slo.min_window_tasks));
  if (min_tasks < 1)
    throw std::invalid_argument("[slo] min_window_tasks must be >= 1");
  slo.min_window_tasks = static_cast<std::size_t>(min_tasks);
  slo.alerts_out = section.get("alerts_out", "");
  return slo;
}

obs::ProvenanceConfig parse_provenance_section(
    const util::IniSection& section) {
  section.check_keys({"sample_n", "ring_capacity", "oracle_sample_n",
                      "decisions_out", "dump_out"});

  obs::ProvenanceConfig prov;
  const long long sample = section.get_int("sample_n", 0);
  if (sample < 0)
    throw std::invalid_argument("[provenance] sample_n must be >= 0");
  prov.sample_n = static_cast<std::uint64_t>(sample);
  // sample_n = 0 still parses the rest (fail fast on typos); an output
  // path or oracle request implies 1-in-1 sampling (effective_sample_n).
  const long long ring = section.get_int(
      "ring_capacity", static_cast<long long>(prov.ring_capacity));
  if (ring < 1)
    throw std::invalid_argument("[provenance] ring_capacity must be >= 1");
  prov.ring_capacity = static_cast<std::size_t>(ring);
  const long long oracle = section.get_int("oracle_sample_n", 0);
  if (oracle < 0)
    throw std::invalid_argument("[provenance] oracle_sample_n must be >= 0");
  prov.oracle_sample_n = static_cast<std::uint64_t>(oracle);
  prov.decisions_out = section.get("decisions_out", "");
  prov.dump_out = section.get("dump_out", "");
  try {
    prov.validate();
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("[provenance] ") + e.what());
  }
  return prov;
}

net::TopologyConfig parse_topology_section(const util::IniSection& section) {
  section.check_keys({"aps", "ap_mbps", "ap_latency_ms", "device_map",
                      "queue_limit_kb"});

  net::TopologyConfig topo;
  topo.aps = section.get_int32("aps", 0);
  // aps = 0 (or unset) disables the fabric; the remaining keys are ignored
  // so a disabled section stays byte-identical to no section at all.
  if (topo.aps <= 0) return topo;
  topo.ap_bandwidth = util::mbps(section.get_double("ap_mbps", 100.0));
  topo.ap_latency = util::ms(section.get_double("ap_latency_ms", 0.0));
  topo.queue_limit_bytes =
      1024.0 * section.get_double("queue_limit_kb", 0.0);
  if (section.has("device_map")) {
    std::string cur;
    auto flush = [&] {
      if (cur.empty()) return;
      try {
        std::size_t used = 0;
        topo.device_map.push_back(std::stoi(cur, &used));
        if (used != cur.size()) throw std::invalid_argument("trailing");
      } catch (const std::exception&) {
        throw std::invalid_argument("[topology] device_map entry '" + cur +
                                    "' is not an AP index");
      }
      cur.clear();
    };
    for (char c : section.get("device_map")) {
      if (c == ',')
        flush();
      else if (!std::isspace(static_cast<unsigned char>(c)))
        cur += c;
    }
    flush();
  }
  return topo;
}

ShardOptions parse_shards_section(const util::IniSection& section) {
  section.check_keys({"shards", "threads"});

  ShardOptions shards;
  const long long count = section.get_int("shards", 1);
  if (count < 1)
    throw std::invalid_argument("[shards] shards must be >= 1");
  shards.shards = static_cast<std::size_t>(count);
  shards.threads = section.get_int32("threads", 0);
  try {
    shards.validate();
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("[shards] ") + e.what());
  }
  return shards;
}

policy::Config parse_policy_section(const util::IniSection& section) {
  section.check_keys({"memo_cache", "warm_start", "batch_eq20",
                      "cache_capacity", "quant_per_octave"});

  policy::Config pol;
  pol.memo_cache = section.get_bool("memo_cache", false);
  pol.warm_start = section.get_bool("warm_start", false);
  pol.batch_eq20 = section.get_bool("batch_eq20", false);
  const long long capacity =
      section.get_int("cache_capacity",
                      static_cast<long long>(pol.cache_capacity));
  if (capacity < 1)
    throw std::invalid_argument("[policy] cache_capacity must be >= 1");
  pol.cache_capacity = static_cast<std::size_t>(capacity);
  pol.quant_per_octave =
      section.get_int32("quant_per_octave", pol.quant_per_octave);
  try {
    pol.validate();
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("[policy] ") + e.what());
  }
  return pol;
}

void apply_obs_overrides(ObsConfig& obs, const std::string& metrics_out,
                         const std::string& trace_out) {
  if (!metrics_out.empty()) obs.metrics_out = metrics_out;
  if (!trace_out.empty()) obs.trace_out = trace_out;
}

models::ModelProfile resolve_model_name(const std::string& name) {
  if (name == "vgg16") return models::make_vgg16();
  if (name == "resnet34") return models::make_resnet34();
  if (name == "inception") return models::make_inception_v3();
  if (name == "squeezenet") return models::make_squeezenet();
  return models::load_profile_file(name);
}

IniScenario load_scenario(const util::IniFile& ini) {
  const auto& sc = ini.only("scenario");
  sc.check_keys({"model", "policy", "duration", "warmup", "seed",
                 "replications", "reallocation_period", "shared_uplink_mbps",
                 "result_bytes"});
  const auto& edge = ini.only("edge");
  edge.check_keys({"gflops", "cloud_tflops", "cloud_mbps", "cloud_latency_ms"});

  ScenarioConfig cfg;
  cfg.edge_flops = util::gflops(edge.get_double("gflops", 50.0));
  cfg.cloud_flops = util::tflops(edge.get_double("cloud_tflops", 4.0));
  cfg.edge_cloud_bw = util::mbps(edge.get_double("cloud_mbps", 100.0));
  cfg.edge_cloud_lat = util::ms(edge.get_double("cloud_latency_ms", 30.0));
  cfg.policy = sc.get("policy", "LEIME");
  cfg.duration = sc.get_double("duration", 120.0);
  cfg.warmup = sc.get_double("warmup", 5.0);
  const long long seed = sc.get_int("seed", 42);
  if (seed < 0) throw std::invalid_argument("[scenario] seed must be >= 0");
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.reallocation_period = sc.get_double("reallocation_period", 0.0);
  // 0 switches either feature off; a negative value is a typo, not "off".
  cfg.result_bytes = sc.get_double("result_bytes", 0.0);
  if (cfg.result_bytes < 0.0)
    throw std::invalid_argument(
        "[scenario] result_bytes must be >= 0 (0 = no result return)");
  const double shared_mbps = sc.get_double("shared_uplink_mbps", 0.0);
  if (shared_mbps < 0.0)
    throw std::invalid_argument(
        "[scenario] shared_uplink_mbps must be >= 0 (0 = per-device "
        "uplinks)");
  if (shared_mbps > 0.0) cfg.shared_uplink_bw = util::mbps(shared_mbps);

  const auto devices = ini.all("device");
  if (devices.empty())
    throw std::invalid_argument("scenario file has no [device] sections");
  cfg.devices.reserve(devices.size());
  double flops_sum = 0.0, bw_sum = 0.0, lat_sum = 0.0;
  for (const auto* d : devices) {
    // DeviceSpec's defaults are the INI's, except the rate. Fleets have
    // 10^5 sections, so each key is looked at once: parsed if known,
    // rejected otherwise.
    DeviceSpec dev;
    dev.mean_rate = 1.0;
    for (const auto& [key, value] : d->values) {
      if (key == "gflops")
        dev.flops = util::gflops(d->get_double(key));
      else if (key == "rate")
        dev.mean_rate = d->get_double(key);
      else if (key == "uplink_mbps")
        dev.uplink_bw = util::mbps(d->get_double(key));
      else if (key == "uplink_latency_ms")
        dev.uplink_lat = util::ms(d->get_double(key));
      else if (key == "difficulty")
        dev.difficulty = d->get_double(key);
      else if (key == "class")
        dev.device_class = value;
      else
        d->check_keys({"gflops", "rate", "uplink_mbps", "uplink_latency_ms",
                       "difficulty", "class"});
    }
    if (dev.device_class.empty())
      throw std::invalid_argument("[device] class must not be empty");
    for (char c : dev.device_class)
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_'))
        throw std::invalid_argument("[device] class '" + dev.device_class +
                                    "' must match [a-z0-9_]+");
    flops_sum += dev.flops;
    bw_sum += dev.uplink_bw;
    lat_sum += dev.uplink_lat;
    cfg.devices.push_back(std::move(dev));
  }

  IniScenario out{resolve_model_name(sc.get("model", "inception")),
                  ScenarioConfig{}, {}, 0.0,
                  sc.get_int32("replications", 1)};
  if (out.replications < 1)
    throw std::invalid_argument("scenario: replications must be >= 1");

  if (const auto* faults = ini.optional("faults"))
    cfg.faults = parse_faults_section(*faults);
  cfg.faults.validate(cfg.devices.size());

  if (const auto* topo = ini.optional("topology"))
    cfg.topology = parse_topology_section(*topo);
  cfg.topology.validate(cfg.devices.size());
  if (cfg.topology.enabled() && cfg.shared_uplink_bw > 0.0)
    throw std::invalid_argument(
        "scenario: [topology] and shared_uplink_mbps are mutually exclusive "
        "network modes");

  if (const auto* obs = ini.optional("observability"))
    cfg.obs = parse_observability_section(*obs);

  if (const auto* slo = ini.optional("slo"))
    cfg.obs.slo = parse_slo_section(*slo);

  if (const auto* prov = ini.optional("provenance"))
    cfg.obs.provenance = parse_provenance_section(*prov);

  if (const auto* pol = ini.optional("policy"))
    cfg.policy_core = parse_policy_section(*pol);

  if (const auto* sh = ini.optional("shards"))
    cfg.shards = parse_shards_section(*sh);

  if (const auto* rt = ini.optional("runtime")) {
    rt->check_keys({"threads", "seed_mode", "jsonl", "trace", "progress"});
    out.threads = rt->get_int32("threads", 1);
    if (out.threads < 0)
      throw std::invalid_argument("runtime: threads must be >= 0");
    const auto seed_mode = rt->get("seed_mode", "split");
    if (seed_mode == "legacy")
      out.legacy_seeds = true;
    else if (seed_mode != "split")
      throw std::invalid_argument("runtime: seed_mode must be split|legacy");
    out.jsonl_path = rt->get("jsonl", "");
    out.trace_path = rt->get("trace", "");
    out.progress = rt->get_bool("progress", false);
  }

  // Exit setting from fleet averages (the paper's F_av / B_av).
  const auto n = static_cast<double>(cfg.devices.size());
  core::Environment env;
  env.caps.device_flops = flops_sum / n;
  env.caps.edge_flops = cfg.edge_flops / n;
  env.caps.cloud_flops = cfg.cloud_flops;
  if (cfg.topology.enabled()) {
    // Each device's effective device->edge bandwidth is capped by its fair
    // share of the AP backhaul; the AP hop adds its propagation latency.
    const double ap_share = cfg.topology.ap_bandwidth * cfg.topology.aps / n;
    double eff_sum = 0.0;
    for (const auto& dev : cfg.devices)
      eff_sum += std::min(dev.uplink_bw, ap_share);
    env.net.dev_edge_bw = eff_sum / n;
    env.net.dev_edge_lat = lat_sum / n + cfg.topology.ap_latency;
  } else {
    env.net.dev_edge_bw =
        cfg.shared_uplink_bw > 0.0 ? cfg.shared_uplink_bw / n : bw_sum / n;
    env.net.dev_edge_lat = lat_sum / n;
  }
  env.net.edge_cloud_bw = cfg.edge_cloud_bw;
  env.net.edge_cloud_lat = cfg.edge_cloud_lat;
  core::CostModel cm(out.profile, env);
  // Routed through the policy engine so [policy] fast paths also cover the
  // design-time search; with the section absent this is the plain cold B&B.
  policy::Engine design_engine(cfg.policy_core);
  const auto setting = design_engine.exit_setting(cm);
  cfg.partition = core::make_partition(out.profile, setting.combo);

  out.config = std::move(cfg);
  out.designed_exits = setting.combo;
  out.expected_tct = setting.cost;
  return out;
}

IniScenario load_scenario_file(const std::string& path) {
  return load_scenario(util::IniFile::parse_file(path));
}

}  // namespace leime::sim
