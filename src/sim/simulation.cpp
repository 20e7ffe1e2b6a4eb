#include "sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/lyapunov.h"
#include "core/offload_policy.h"
#include "core/resource_alloc.h"
#include "policy/engine.h"
#include "policy/prediction.h"
#include "prof/profiler.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/observer.h"
#include "sim/resources.h"
#include "sim/shard.h"
#include "sim/task_fold.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/complexity.h"

namespace leime::sim {

namespace {

std::unique_ptr<workload::ArrivalProcess> make_arrivals(
    const DeviceSpec& spec) {
  switch (spec.arrival) {
    case ArrivalKind::kPoisson:
      return std::make_unique<workload::PoissonArrivals>(spec.mean_rate);
    case ArrivalKind::kPeriodic:
      return std::make_unique<workload::PeriodicArrivals>(1.0 /
                                                          spec.mean_rate);
    case ArrivalKind::kBursty:
      return std::make_unique<workload::BurstyArrivals>(
          spec.mean_rate, spec.bursty_high_rate, spec.bursty_dwell,
          spec.bursty_dwell);
    case ArrivalKind::kTrace:
      if (!spec.rate_trace)
        throw std::invalid_argument(
            "DeviceSpec: ArrivalKind::kTrace needs rate_trace");
      return std::make_unique<workload::TraceArrivals>(*spec.rate_trace);
  }
  throw std::invalid_argument("DeviceSpec: unknown ArrivalKind");
}

/// Everything the simulator tracks per device (its links live in the
/// Network).
struct DeviceRuntime {
  const DeviceSpec* spec = nullptr;
  std::unique_ptr<FifoProcessor> cpu;
  std::unique_ptr<FifoProcessor> edge_share;  ///< p_i·F^e docker share
  std::unique_ptr<workload::ArrivalProcess> arrivals;
  workload::ComplexityModel complexity{1.0};
  util::Rng rng;
  double x = 0.0;              ///< current offloading ratio
  int arrived_this_slot = 0;   ///< observed arrivals in the current slot
  double arrival_estimate = 0; ///< estimate used at the next decision
  int arrived_this_window = 0; ///< arrivals since the last reallocation
};

/// A shard's identity inside one sharded run (DESIGN.md §15): its
/// contiguous device range [lo, hi), the outbox it records edge->cloud
/// admissions into, and the policy engine shared across shard threads.
/// The default-constructed role is the classic single-queue simulation
/// over the whole fleet — every code path below treats that as lo = 0,
/// hi = N, so the two modes share one implementation.
struct ShardRole {
  std::size_t index = 0;       ///< shard number (0 = the primary shard)
  std::size_t num_shards = 1;  ///< 1 = single-queue mode
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::vector<HubRequest>* outbox = nullptr;  ///< coordinator-owned
  policy::Engine* engine = nullptr;  ///< shared, batch_eq20 only

  bool active() const { return num_shards > 1; }
};

/// One leg of a task's pipeline (DESIGN.md §16): a compute block on the
/// device, edge or cloud tier, or a tensor/result transfer between tiers.
/// Each step opens the observer phase of the same id. Declared in pipeline
/// order, so every step from kEdgeCloud on is past the point a timeout may
/// claw the task back from.
using Step = Phase;

/// What a step is: where it runs (a compute step has from == to) and what
/// it carries. Successors live in Simulation::next_step.
struct StepSpec {
  Tier from, to;
  double core::MeDnnPartition::*payload;  ///< nullptr = result_bytes
  JobClass cls;                           ///< compute steps only
};

/// Indexed by Step, whose phase names live in observer.cpp (phase_name).
constexpr StepSpec kSteps[] = {
    {Tier::kDevice, Tier::kDevice, &core::MeDnnPartition::mu1,
     JobClass::kBlock1},  // local_block1
    {Tier::kDevice, Tier::kEdge, &core::MeDnnPartition::d0,
     JobClass::kBlock1},  // uplink (raw input)
    {Tier::kEdge, Tier::kEdge, &core::MeDnnPartition::mu1,
     JobClass::kBlock1},  // edge_block1
    {Tier::kDevice, Tier::kEdge, &core::MeDnnPartition::d1,
     JobClass::kBlock1},  // uplink (block-1 tensor)
    {Tier::kEdge, Tier::kEdge, &core::MeDnnPartition::mu2,
     JobClass::kBlock2},  // edge_block2
    {Tier::kEdge, Tier::kCloud, &core::MeDnnPartition::d2,
     JobClass::kBlock1},  // edge_cloud_link
    {Tier::kCloud, Tier::kCloud, &core::MeDnnPartition::mu3,
     JobClass::kBlock3},  // cloud_block3
    {Tier::kEdge, Tier::kDevice, nullptr, JobClass::kBlock1},  // return_link
    {Tier::kCloud, Tier::kDevice, nullptr,
     JobClass::kBlock1},  // cloud_return_link
};
static_assert(std::size(kSteps) == kPhaseCount);

class Simulation {
 public:
  explicit Simulation(const ScenarioConfig& config, ShardRole role = {})
      : cfg_(checked(config)),
        role_(role),
        lo_(role.lo),
        hi_(role.active() ? role.hi : config.devices.size()),
        net_(queue_, cfg_, lo_, hi_, role.outbox),
        ring_(kInitialRingSlots) {
    faults_on_ = cfg_.faults.enabled();
    build();
    // Observer hooks are pure taps: they consume no RNG, schedule no events
    // and never alter control flow, so a run with obs_ == nullptr and a run
    // with any observer attached follow identical event sequences.
    if (cfg_.observer) {
      obs_ = cfg_.observer;
    } else if (cfg_.obs.enabled()) {
      std::vector<std::string> device_classes;
      device_classes.reserve(cfg_.devices.size());
      for (const auto& spec : cfg_.devices)
        device_classes.push_back(spec.device_class);
      owned_obs_ = std::make_unique<RecordingObserver>(
          cfg_.obs, devices_.size(), std::move(device_classes));
      obs_ = owned_obs_.get();
    }
    // Fabric hop spans feed the attribution ledger; spans of paths the task
    // has since abandoned (failover/retry bumped the attempt) are dropped,
    // mirroring the staleness guards on the completions themselves.
    if (obs_)
      net_.tap_hops(*obs_, [this](std::size_t id, int att) {
        return alive(id, att);
      });
  }

  /// Seeds the run and schedules the initial events: decisions, arrival
  /// streams, slot ticks and the reallocation timer. Shared by run() and
  /// the sharded coordinator (which then pumps windows via advance_to).
  void init_run() {
    util::Rng master(cfg_.seed);
    // Every shard forks the full fleet's substreams in device order and
    // keeps only its own range, so device i's task stream is bit-identical
    // for any shard count.
    for (std::size_t i = 0; i < cfg_.devices.size(); ++i) {
      util::Rng stream = master.fork();
      if (devices_[i]) devices_[i]->rng = std::move(stream);
    }
    if (faults_on_) {
      // Faults draw from their own substream, forked after every device's,
      // so the task streams are identical with and without fault sources.
      // Sharded runs materialize the same timeline in every shard (same
      // substream): fleet-wide state like edge_up_now_ is replicated.
      util::Rng fault_rng = master.fork();
      timeline_ = materialize_faults(cfg_.faults, cfg_.devices.size(),
                                     cfg_.duration, fault_rng);
      agg_.link_outages = timeline_.link_outage_count();
      apply_fault_timeline();
    }

    // Initial decisions + arrival streams + slot ticks. Decisions consume
    // no RNG and schedule no events, so batching them ahead of the arrival
    // scheduling keeps the event sequence identical to the interleaved
    // per-device order.
    decide_all();
    for (std::size_t i = lo_; i < hi_; ++i) schedule_next_arrival(i);
    queue_.schedule(cfg_.lyapunov.tau, EventKind::kSlotTick,
                    [this] { slot_tick(); });
    if (cfg_.reallocation_period > 0.0)
      queue_.schedule(cfg_.reallocation_period, EventKind::kReallocate,
                      [this] { reallocate(); });
  }

  SimResult run() {
    LEIME_PROF_SCOPE("leime.sim.run");
    fold_.emplace(cfg_);
    init_run();

    // Generation stops at duration; in-flight tasks drain afterwards.
    {
      LEIME_PROF_SCOPE("leime.sim.event_loop");
      queue_.run_all();
    }
    if (obs_) net_.report(*obs_, queue_.now());
    end_run();
    SimResult out = finalize();
    out.events_executed = queue_.executed();
    if (owned_obs_) {
      // Policy-core telemetry rides the metrics snapshot only when both
      // layers are opted in; with the engine off no leime_policy_* names
      // register, keeping policy-off output byte-identical.
      if (policy_engine_)
        policy_engine_->publish_metrics(owned_obs_->registry());
      out.metrics = owned_obs_->registry().snapshot();
      out.attribution = owned_obs_->attribution_summary();
      out.slo = owned_obs_->slo_summary();
      out.provenance = owned_obs_->provenance_summary();
      owned_obs_->export_outputs();
    }
    return out;
  }

  // ------------------------------------------- sharded-run coordination
  // Called by run_scenario_sharded's coordinator thread, strictly between
  // parallel regions (never while shard threads are inside advance_to).

  /// Runs every event up to and including `t`, then parks now() at `t`
  /// (the conservative window barrier).
  void advance_to(double t) { queue_.run_until(t); }

  /// Earliest pending event, +infinity when drained — the coordinator's
  /// lookahead-horizon input (barrier = min over shards + window).
  double next_event_time() const { return queue_.peek_time(); }

  std::uint64_t executed_events() const { return queue_.executed(); }

  /// Delivers a hub (edge->cloud) transfer the coordinator admitted on the
  /// shared link: the kEdgeCloud step finishes at t2, exactly as the
  /// single-queue Link::transfer callback would have. t2 >= now() is
  /// guaranteed by the conservative window (t2 >= admission + latency >=
  /// barrier).
  void inject_hub_delivery(std::size_t device, std::size_t task, int att,
                           double t2) {
    queue_.schedule(t2, EventKind::kTransferDone,
                    [this, device, task, att, t2] {
      finish(device, task, att, Step::kEdgeCloud, t2);
    });
  }

  /// Reads this shard's own devices' arrival counts into the fleet-wide
  /// vector (the coordinator's pre-reallocation gather).
  void gather_realloc_counts(std::vector<int>& counts) const {
    for (std::size_t i = lo_; i < hi_; ++i)
      counts[i] = devices_[i]->arrived_this_window;
  }

  /// Installs the gathered fleet-wide counts the next kReallocate event
  /// will allocate from (every shard computes the same eq. 27 shares).
  void set_realloc_counts(std::vector<int> counts) {
    realloc_counts_ = std::move(counts);
  }

  /// Ends the run: tasks still in [head_, tail_) retire as they stand, in
  /// id order, and count as in flight.
  void end_run() {
    if (obs_) obs_->on_run_end(queue_.now());
    for (; head_ < tail_; ++head_) settle(head_);
  }

  /// A shard's retired tasks in its own id order (sharded runs only): the
  /// coordinator merges them into the single queue's order.
  const std::vector<TaskOutcome>& retired() const { return retired_; }

  /// Per-epoch offload decisions in device order (sharded runs only): the
  /// coordinator replays epochs in (epoch, shard) order to rebuild the
  /// fleet-order x_sum accumulation bit for bit.
  const std::vector<std::vector<double>>& x_log() const { return x_log_; }

  /// Adds this shard's accumulators into the merged aggregate. Scalar sums
  /// are integer-valued (order-free in double); per-device entries are
  /// owned by exactly one shard. Replicated fleet-wide counters (faults
  /// materialize identically in every shard) come from the primary only.
  void accumulate(Aggregates& agg, bool primary) const {
    agg.q_sum += agg_.q_sum;
    agg.h_sum += agg_.h_sum;
    agg.queue_samples += agg_.queue_samples;
    agg.local_fallbacks += agg_.local_fallbacks;
    agg.fleet.failed_over += agg_.fleet.failed_over;
    agg.fleet.retries += agg_.fleet.retries;
    agg.fleet.fallback_slots += agg_.fleet.fallback_slots;
    for (std::size_t i = lo_; i < hi_; ++i) {
      agg.x_sum_dev[i] = agg_.x_sum_dev[i];
      agg.x_count_dev[i] = agg_.x_count_dev[i];
      agg.dev_faults[i] = agg_.dev_faults[i];
    }
    if (primary) {
      agg.link_outages = agg_.link_outages;
      agg.edge_crashes = agg_.edge_crashes;
      agg.churn_events = agg_.churn_events;
    }
  }

  /// This shard's metrics-registry snapshot (empty when obs is off); the
  /// coordinator absorbs the snapshots in shard order into one registry.
  obs::Snapshot obs_snapshot() const {
    return owned_obs_ ? owned_obs_->registry().snapshot() : obs::Snapshot{};
  }

 private:
  /// A task in flight: its outcome so far plus the step machine's state.
  struct TaskRecord : TaskOutcome {
    Step step = Step::kLocal1;  ///< the step last started
    /// Between steps: fault detection, retry backoff or an edge-restart
    /// probe (step is the one abandoned), or parked for good.
    bool waiting = false;
    /// Bumped whenever the task's current path is abandoned (crash
    /// failover, timeout retry, fabric drop); in-flight callbacks carry the
    /// attempt they were issued under and go stale when it changes.
    int attempt = 0;
    int retries = 0;
  };

  /// The checks that need no network; Network checks its own mode.
  static const ScenarioConfig& checked(const ScenarioConfig& cfg) {
    if (cfg.devices.empty())
      throw std::invalid_argument("ScenarioConfig: no devices");
    // Written so that NaN fails: a NaN duration would never close the
    // generation window.
    if (!(cfg.duration > 0.0 && std::isfinite(cfg.duration)) ||
        !(cfg.warmup >= 0.0 && cfg.warmup < cfg.duration))
      throw std::invalid_argument("ScenarioConfig: bad duration/warmup");
    if (cfg.reallocation_period < 0.0)
      throw std::invalid_argument("ScenarioConfig: bad reallocation_period");
    if (cfg.timeline_window <= 0.0)
      throw std::invalid_argument("ScenarioConfig: bad timeline_window");
    // 0 means "off"; negative or non-finite values are errors.
    if (!(cfg.result_bytes >= 0.0 && std::isfinite(cfg.result_bytes)))
      throw std::invalid_argument("ScenarioConfig: bad result_bytes");
    cfg.faults.validate(cfg.devices.size());
    const auto& p = cfg.partition;
    if (p.mu1 <= 0.0 || p.mu2 <= 0.0 || p.mu3 <= 0.0)
      throw std::invalid_argument("ScenarioConfig: invalid partition");
    return cfg;
  }

  void build() {
    LEIME_PROF_SCOPE("leime.sim.build");
    if (cfg_.cloud_fifo)
      cloud_ = std::make_unique<FifoProcessor>(queue_, "cloud",
                                               cfg_.cloud_flops);

    // Edge shares from expected per-slot load (paper eq. 27).
    present_.assign(cfg_.devices.size(), 1);
    const auto shares =
        edge_shares([this](std::size_t i) { return expected_load(i); });
    for (std::size_t i = 0; i < cfg_.devices.size(); ++i) {
      if (i < lo_ || i >= hi_) {
        // Another shard owns this device; keep the slot so global indices
        // stay valid (fleet-wide loops guard on the null).
        devices_.push_back(nullptr);
        continue;
      }
      const auto& spec = cfg_.devices[i];
      auto dev = std::make_unique<DeviceRuntime>();
      dev->spec = &spec;
      dev->cpu = std::make_unique<FifoProcessor>(
          queue_, "device" + std::to_string(i), spec.flops);
      dev->edge_share = std::make_unique<FifoProcessor>(
          queue_, "edge-share" + std::to_string(i),
          shares[i] * cfg_.edge_flops);
      dev->arrivals = make_arrivals(spec);
      dev->complexity = workload::ComplexityModel(spec.difficulty);
      dev->arrival_estimate =
          std::max(1.0, spec.mean_rate * cfg_.lyapunov.tau);
      devices_.push_back(std::move(dev));
    }
    agg_.resize(devices_.size());

    if (cfg_.fixed_ratio >= 0.0)
      policy_ = std::make_unique<core::FixedRatioPolicy>(cfg_.fixed_ratio);
    else
      policy_ = core::make_policy(cfg_.policy);
    if (role_.active()) {
      // Shards share one thread-safe coordinator-owned engine (its batched
      // eq. 20 path is 0-ULP batch-invariant, so partitioning the fleet
      // across shards leaves every decision bit-identical).
      engine_ = role_.engine;
    } else {
      // The engine is only instantiated for the batched fleet path; the
      // exit-setting fast paths act at design time (scenario_ini,
      // adaptive, multi_edge), before a Simulation exists.
      if (cfg_.policy_core.batch_eq20)
        policy_engine_ = std::make_unique<policy::Engine>(cfg_.policy_core);
      engine_ = policy_engine_.get();
    }
  }

  // ---------------------------------------------------------------- faults

  const DegradationConfig& deg() const { return cfg_.faults.degradation; }

  /// True while the task is still waiting for the callbacks of attempt
  /// `att`; stale paths (abandoned by a failover or retry) and retired
  /// tasks, whose ring slot may hold a newer task, return false.
  bool alive(std::size_t task_id, int att) const {
    if (task_id < head_) return false;
    const auto& rec = task(task_id);
    return rec.t_complete < 0.0 && rec.attempt == att;
  }

  void apply_fault_timeline() {
    edge_up_now_ = timeline_.edge_up_at(0.0);
    net_.apply_faults(timeline_);
    for (const auto& w : timeline_.edge_down) {
      queue_.schedule(w.start, EventKind::kFaultWindow,
                      [this] { on_edge_crash(); });
      if (std::isfinite(w.end))
        queue_.schedule(w.end, EventKind::kFaultWindow,
                        [this] { on_edge_restart(); });
    }
    for (const auto& e : timeline_.churn) {
      const auto d = static_cast<std::size_t>(e.device);
      queue_.schedule(e.leave, EventKind::kChurn,
                      [this, d] { on_churn(d, false); });
      if (e.rejoin >= 0.0)
        queue_.schedule(e.rejoin, EventKind::kChurn,
                        [this, d] { on_churn(d, true); });
    }
  }

  void on_edge_crash() {
    LEIME_PROF_SCOPE("leime.sim.ev.edge_crash");
    edge_up_now_ = false;
    ++agg_.edge_crashes;
    const double now = queue_.now();
    // Fleet-wide faults replay in every shard; only the primary reports
    // them so merged counters match the single-queue run.
    if (obs_ && role_.index == 0) obs_->on_fault("edge_crash", -1, now);
    // Every task resident on an edge share loses its work; the owning
    // device notices after the detection timeout and reclaims it. Tasks
    // below head_ have all completed or parked.
    for (std::size_t id = head_; id < tail_; ++id) {
      const auto& rec = task(id);
      if (rec.t_complete >= 0.0 || rec.waiting ||
          (rec.step != Step::kEdge1 && rec.step != Step::kEdge2))
        continue;
      if (obs_) obs_->on_phase_abort(id, now, "edge_crash");
      fail_back(rec.device, id, rec.step);
    }
  }

  void on_edge_restart() {
    LEIME_PROF_SCOPE("leime.sim.ev.edge_restart");
    edge_up_now_ = true;
    if (obs_ && role_.index == 0)
      obs_->on_fault("edge_restart", -1, queue_.now());
    for (auto& dev : devices_)
      if (dev) dev->edge_share->restart(queue_.now());
  }

  void on_churn(std::size_t device, bool joined) {
    LEIME_PROF_SCOPE("leime.sim.ev.churn");
    present_[device] = joined ? 1 : 0;
    ++agg_.churn_events;
    // Per-device fault: the owning shard reports it (lo_ = 0, hi_ = N in
    // single-queue mode, so the guard is a no-op there).
    if (obs_ && device >= lo_ && device < hi_)
      obs_->on_fault(joined ? "churn_join" : "churn_leave",
                     static_cast<int>(device), queue_.now());
    apply_edge_shares([this](std::size_t i) { return expected_load(i); });
  }

  /// Edge work for `id` was lost to a crash or refused by a dead edge: the
  /// owning device notices after the detection timeout and fails it over.
  void fail_back(std::size_t i, std::size_t id, Step step) {
    auto& rec = task(id);
    ++rec.attempt;  // invalidate any in-flight edge completion
    rec.waiting = true;
    const int att = rec.attempt;
    queue_.schedule_in(deg().detection_timeout, EventKind::kFailoverProbe,
                       [this, i, id, att, step] {
      if (alive(id, att)) failover(i, id, step);
    });
  }

  void failover(std::size_t i, std::size_t id, Step from) {
    LEIME_PROF_SCOPE("leime.sim.ev.failover");
    ++agg_.fleet.failed_over;
    ++agg_.dev_faults[i].failed_over;
    const double now = queue_.now();
    if (obs_) obs_->on_fault("failover", static_cast<int>(i), now);
    // Block-1 work re-runs on the device CPU (the device always holds the
    // first partition); deeper blocks re-enter the edge path from there if
    // the task survives past exit 1.
    if (from == Step::kEdge1) return start(i, id, Step::kLocal1);
    // Block 2 only exists on the edge tier: probe on an exponential
    // backoff schedule until the restart, or park when the timeline says
    // the edge never returns.
    const double up = timeline_.next_edge_up(now);
    if (!std::isfinite(up)) return park(i, id);
    double when = now + deg().probe_period;
    double gap = deg().probe_period;
    for (int guard = 0; when < up && guard < 64; ++guard) {
      gap *= 2.0;
      when += gap;
    }
    const int att = task(id).attempt;
    queue_.schedule(when, EventKind::kFailoverProbe, [this, i, id, att] {
      if (alive(id, att)) start(i, id, Step::kEdge2);
    });
  }

  /// Gives the task up for good: no event carries its current attempt any
  /// more, so it never starts again.
  void park(std::size_t i, std::size_t id) {
    auto& rec = task(id);
    rec.parked = true;
    rec.waiting = true;
    if (obs_) obs_->on_task_parked(id, static_cast<int>(i), queue_.now());
    retire();
  }

  /// Abandons the task's current attempt (a timeout or a fabric drop) and
  /// relaunches `step` after a bounded exponential backoff. With the
  /// budget spent, a raw upload falls back to the device CPU while deeper
  /// steps park (their partial state lives on tiers the device cannot
  /// resume from).
  void retry(std::size_t i, std::size_t id, Step step, const char* fault,
             const char* outcome) {
    LEIME_PROF_SCOPE("leime.sim.ev.retry");
    auto& rec = task(id);
    ++rec.attempt;
    ++rec.retries;
    ++agg_.fleet.retries;
    ++agg_.dev_faults[i].retries;
    const double now = queue_.now();
    if (obs_) {
      obs_->on_fault(fault, static_cast<int>(i), now);
      obs_->on_phase_abort(id, now, outcome);
    }
    if (rec.retries <= deg().max_retries) {
      rec.waiting = true;
      const int att = rec.attempt;
      queue_.schedule_in(deg().retry_backoff * std::pow(2.0, rec.retries - 1),
                         EventKind::kRetryLaunch, [this, i, id, att, step] {
        if (alive(id, att)) start(i, id, step);
      });
    } else if (step == Step::kUpRaw) {
      ++agg_.local_fallbacks;
      if (obs_) obs_->on_fault("local_fallback", static_cast<int>(i), now);
      start(i, id, Step::kLocal1);
    } else {
      park(i, id);
    }
  }

  // ------------------------------------------------------------- decisions

  core::DeviceSlotState observe(std::size_t i) const {
    const auto& dev = *devices_[i];
    const double now = queue_.now();
    core::DeviceSlotState s;
    s.partition = &cfg_.partition;
    s.device_flops = dev.spec->flops;
    s.edge_share_flops = dev.edge_share->flops();
    const net::RouteState path = net_.observe(i, now);
    s.bandwidth = path.bandwidth;
    // Clamp so tau > latency always holds for the decision model even
    // under extreme shaping traces.
    s.latency = std::min(path.latency, 0.9 * cfg_.lyapunov.tau);
    s.queue_device = dev.cpu->pending(JobClass::kBlock1);
    s.queue_edge = dev.edge_share->pending(JobClass::kBlock1);
    s.uplink_backlog_bytes =
        cfg_.uplink_backlog_feedback ? path.backlog_bytes : 0.0;
    s.arrivals = dev.arrival_estimate;
    s.edge_available = !faults_on_ || (edge_up_now_ && net_.link_up(i, now));
    s.config = cfg_.lyapunov;
    return s;
  }

  /// Slot decisions for the owned devices: the only decision path. Devices
  /// are observed, decided and applied a chunk at a time, so the policy's
  /// fleet form (core::OffloadPolicy::decide_fleet) fills its lockstep lanes
  /// while the scratch stays at kDecideChunk states. With [policy]
  /// batch_eq20 the chunk is the whole owned fleet: the engine dedups
  /// bit-identical states across it (src/policy/batch.h). Decisions touch no
  /// queue, consume no RNG and schedule no event, and observers are pure
  /// taps, so every value and event matches a per-device loop.
  void decide_all() {
    LEIME_PROF_SCOPE("leime.sim.decide");
    const std::size_t chunk = engine_ ? hi_ - lo_ : kDecideChunk;
    scratch_states_.reserve(std::min(chunk, hi_ - lo_));
    for (std::size_t begin = lo_; begin < hi_; begin += chunk) {
      const std::size_t end = std::min(hi_, begin + chunk);
      scratch_states_.clear();
      for (std::size_t i = begin; i < end; ++i)
        scratch_states_.push_back(observe(i));
      if (engine_) {
        engine_->decide_fleet(*policy_, scratch_states_, scratch_x_);
      } else {
        scratch_x_.resize(end - begin);
        policy_->decide_fleet(scratch_states_, scratch_x_);
      }
      for (std::size_t i = begin; i < end; ++i)
        apply_decision(i, scratch_states_[i - begin], scratch_x_[i - begin]);
    }
    // Each decision epoch logs its x values in device order; the
    // coordinator replays them in (epoch, shard) order to rebuild the
    // fleet-order x_sum accumulation of the single-queue loop.
    if (role_.active()) {
      auto& epoch = x_log_.emplace_back();
      for (std::size_t i = lo_; i < hi_; ++i) epoch.push_back(devices_[i]->x);
    }
  }

  /// Decision bookkeeping for one device.
  void apply_decision(std::size_t i, const core::DeviceSlotState& state,
                      double x) {
    auto& dev = *devices_[i];
    dev.x = x;
    if (faults_on_ && !state.edge_available && dev.x <= 0.0) {
      ++agg_.fleet.fallback_slots;
      ++agg_.dev_faults[i].fallback_slots;
    }
    agg_.x_sum += dev.x;
    ++agg_.x_count;
    agg_.x_sum_dev[i] += dev.x;
    ++agg_.x_count_dev[i];
    if (obs_) {
      SlotTelemetry tel;
      tel.x = dev.x;
      tel.q = state.queue_device;
      tel.h = state.queue_edge;
      tel.penalty = state.config.V * core::slot_cost(state, dev.x);
      tel.drift = core::drift_plus_penalty(state, dev.x) - tel.penalty;
      tel.edge_up = !faults_on_ || edge_up_now_;
      tel.link_up = net_.link_up(i, queue_.now());
      tel.edge_share_flops = dev.edge_share->flops();
      // Eq. 4-9 component predictions at decision time; the attribution
      // layer joins them against the realized ledger at task completion.
      tel.pred = policy::predict_components(state, dev.x);
      // Borrowed for the duration of the hook: provenance re-evaluates the
      // eq. 19 objective at unchosen x values without touching the run.
      tel.state = &state;
      tel.batched = engine_ != nullptr;
      obs_->on_slot_decision(static_cast<int>(i), queue_.now(), tel);
    }
  }

  void slot_tick() {
    LEIME_PROF_SCOPE("leime.sim.ev.slot_tick");
    // Estimates, decisions and queue sampling are per-device independent
    // (decisions touch no queues, consume no RNG and schedule no events),
    // so splitting the single loop into phases — required for the batched
    // decision path — leaves every value and the event sequence unchanged.
    for (std::size_t i = lo_; i < hi_; ++i) {
      auto& dev = *devices_[i];
      // Blend observation with the process's nominal rate: reacts to bursts
      // while staying stable at low rates.
      const double observed = dev.arrived_this_slot;
      const double nominal =
          dev.arrivals->rate_at(queue_.now()) * cfg_.lyapunov.tau;
      dev.arrival_estimate = std::max(0.5 * (observed + nominal), 0.25);
      dev.arrived_this_slot = 0;
    }
    decide_all();
    for (std::size_t i = lo_; i < hi_; ++i) {
      auto& dev = *devices_[i];
      agg_.q_sum += dev.cpu->pending(JobClass::kBlock1);
      agg_.h_sum += dev.edge_share->pending(JobClass::kBlock1);
      ++agg_.queue_samples;
    }
    if (queue_.now() + cfg_.lyapunov.tau <= cfg_.duration)
      queue_.schedule_in(cfg_.lyapunov.tau, EventKind::kSlotTick,
                         [this] { slot_tick(); });
  }

  // ----------------------------------------------------------- edge shares

  /// Paper eq. 27 over the whole fleet with per-slot load `load(i)`:
  /// every shard computes identical shares.
  template <class Load>
  std::vector<double> edge_shares(Load load) const {
    const std::size_t n = cfg_.devices.size();
    std::vector<double> k(n), fd(n);
    for (std::size_t i = 0; i < n; ++i) {
      k[i] = load(i);
      fd[i] = cfg_.devices[i].flops;
    }
    return core::kkt_edge_allocation(k, fd, cfg_.edge_flops,
                                     core::fleet_p_min(n));
  }

  /// Re-runs eq. 27 and applies the owned devices' shares.
  template <class Load>
  void apply_edge_shares(Load load) {
    const auto shares = edge_shares(load);
    for (std::size_t i = lo_; i < hi_; ++i)
      devices_[i]->edge_share->set_flops(shares[i] * cfg_.edge_flops);
  }

  /// Eq. 27 load from the specs: expected per-slot arrivals, or a floor
  /// share while the device is absent (so a rejoin cannot divide by zero).
  double expected_load(std::size_t i) const {
    return present_[i] ? std::max(1e-6, cfg_.devices[i].mean_rate *
                                            cfg_.lyapunov.tau)
                       : 1e-6;
  }

  void reallocate() {
    LEIME_PROF_SCOPE("leime.sim.ev.reallocate");
    // Re-run the eq. 27 allocation on observed per-window rates; a floor
    // keeps idle devices from being starved out entirely. A sharded run's
    // coordinator gathered the fleet-wide counts at a barrier just below
    // this event's time (the same arrivals a single queue reads here).
    // Subtracting the gathered count instead of zeroing keeps any arrival
    // landing between that barrier and this event counted toward the next
    // window.
    if (!role_.active()) {
      realloc_counts_.resize(cfg_.devices.size());
      gather_realloc_counts(realloc_counts_);
    }
    apply_edge_shares([this](std::size_t i) {
      return std::max(0.25, static_cast<double>(realloc_counts_[i]) *
                                cfg_.lyapunov.tau / cfg_.reallocation_period);
    });
    for (std::size_t i = lo_; i < hi_; ++i)
      devices_[i]->arrived_this_window -= realloc_counts_[i];
    if (queue_.now() + cfg_.reallocation_period <= cfg_.duration)
      queue_.schedule_in(cfg_.reallocation_period, EventKind::kReallocate,
                         [this] { reallocate(); });
  }

  // ----------------------------------------------------- task step machine

  void schedule_next_arrival(std::size_t i) {
    auto& dev = *devices_[i];
    const double now = queue_.now();
    const double gap = dev.arrivals->next_interarrival(now, dev.rng);
    const double when = now + gap;
    if (when > cfg_.duration) return;  // generation window closed
    queue_.schedule(when, EventKind::kArrival, [this, i, now] {
      on_arrival(i, now);
      schedule_next_arrival(i);
    });
  }

  /// A task of device `i` arrives; its arrival event was scheduled at
  /// `t_sched`.
  void on_arrival(std::size_t i, double t_sched) {
    LEIME_PROF_SCOPE("leime.sim.ev.arrival");
    if (faults_on_ && !present_[i]) return;  // device has left the fleet
    auto& dev = *devices_[i];
    ++dev.arrived_this_slot;
    ++dev.arrived_this_window;
    if (tail_ - head_ == ring_.size()) grow_ring();
    const std::size_t task_id = tail_++;
    TaskRecord& rec = task(task_id);
    rec = TaskRecord{};
    rec.t_arrive = queue_.now();
    rec.t_sched = t_sched;
    rec.device = i;
    rec.block =
        workload::block_for_complexity(cfg_.partition, dev.complexity.sample(dev.rng));
    rec.offloaded = dev.rng.bernoulli(dev.x);
    rec.counted = rec.t_arrive >= cfg_.warmup;
    if (obs_)
      obs_->on_task_generated(task_id, static_cast<int>(i), rec.t_arrive,
                              rec.block, rec.offloaded);
    start(i, task_id, rec.offloaded ? Step::kUpRaw : Step::kLocal1);
  }

  /// The step after `step` under the exit rule: the task leaves at its
  /// exit block, paying a result return when results are modelled. A
  /// cloud return that lands at the edge continues as the edge -> device
  /// return.
  std::optional<Step> next_step(const TaskRecord& rec, Step step) const {
    const bool results = cfg_.result_bytes > 0.0;
    switch (step) {
      case Step::kLocal1:
        if (rec.block == 1) return std::nullopt;
        return Step::kUpTensor;
      case Step::kUpRaw: return Step::kEdge1;
      case Step::kEdge1:
        if (rec.block > 1) return Step::kEdge2;
        break;
      case Step::kUpTensor: return Step::kEdge2;
      case Step::kEdge2:
        if (rec.block > 2) return Step::kEdgeCloud;
        break;
      case Step::kEdgeCloud: return Step::kCloud3;
      case Step::kCloud3:
        if (results) return Step::kCloudReturn;
        return std::nullopt;
      case Step::kCloudReturn:
        if (net_.cloud_return_lands_at_edge()) return Step::kEdgeReturn;
        return std::nullopt;
      case Step::kEdgeReturn: return std::nullopt;
    }
    if (results) return Step::kEdgeReturn;
    return std::nullopt;
  }

  /// Begins `step` for task `id`: the only code that opens an observer
  /// phase, submits to a FIFO server or starts a network leg, and refuses
  /// edge work while the edge is down. Every start ends in finish() with
  /// the attempt it was issued under.
  void start(std::size_t i, std::size_t id, Step step) {
    LEIME_PROF_SCOPE("leime.sim.ev.start");
    const StepSpec& spec = kSteps[static_cast<std::size_t>(step)];
    auto& dev = *devices_[i];
    auto& rec = task(id);
    LEIME_CHECK(!rec.parked);
    const double now = queue_.now();
    const bool compute = spec.from == spec.to;
    if (compute && spec.from == Tier::kEdge && faults_on_ && !edge_up_now_) {
      // Refused at the dead edge's door: fail back after detection.
      if (obs_) obs_->on_fault("edge_refused", static_cast<int>(i), now);
      return fail_back(i, id, step);
    }
    rec.step = step;
    rec.waiting = false;
    const int att = rec.attempt;
    const double amount =
        spec.payload ? cfg_.partition.*spec.payload : cfg_.result_bytes;
    // The resource: a FIFO server, the uncontended cloud for block 3, or
    // a network leg for a transfer.
    FifoProcessor* server = nullptr;
    Network::Leg leg;
    std::string_view track = "cloud";
    double busy = now;
    if (compute) {
      server = spec.from == Tier::kDevice ? dev.cpu.get()
               : spec.from == Tier::kEdge ? dev.edge_share.get()
                                          : cloud_.get();
      if (server) {
        track = server->name();
        busy = server->busy_until();
      }
    } else {
      leg = net_.leg(spec.from, spec.to, i);
      track = leg.track;
      busy = leg.busy;
    }
    if (obs_)
      obs_->on_phase_begin(id, static_cast<int>(i), step, track, now,
                           std::max(now, busy), att);
    auto done = [this, i, id, att, step](double t) {
      finish(i, id, att, step, t);
    };
    if (server) {
      server->submit(amount, spec.cls, done);
    } else if (compute) {
      queue_.schedule(now + amount / cfg_.cloud_flops,
                      EventKind::kCloudService,
                      [this, done] { done(queue_.now()); });
    } else {
      net_.send(leg, amount, id, att, done);
    }
    if (step == Step::kUpRaw && deg().task_timeout > 0.0) {
      // Bounded-retry watchdog for offloaded dispatches. It reads the
      // attempt afresh: a fabric drop may already have retried the upload
      // synchronously inside send().
      const int watched = task(id).attempt;
      queue_.schedule_in(deg().task_timeout, EventKind::kTaskTimeout,
                         [this, i, id, watched] {
        if (!alive(id, watched)) return;
        // Too deep to claw back (cloud leg, result return) or parked.
        const auto& r = task(id);
        if (r.parked || (!r.waiting && r.step >= Step::kEdgeCloud)) return;
        retry(i, id, Step::kUpRaw, "task_timeout", "timeout");
      });
    }
  }

  /// The one completion of every step: drops stale attempts, sends fabric
  /// drops (t < 0) to retry, closes the observer phase and starts the
  /// next step or completes the task.
  void finish(std::size_t i, std::size_t id, int att, Step step, double t) {
    LEIME_PROF_SCOPE("leime.sim.ev.finish");
    if (!alive(id, att)) return;
    if (t < 0.0) return retry(i, id, step, "net_drop", "net_drop");
    if (obs_) obs_->on_phase_end(id, t);
    if (const auto next = next_step(task(id), step))
      start(i, id, *next);
    else
      complete(id, t);
  }

  void complete(std::size_t id, double t) {
    LEIME_PROF_SCOPE("leime.sim.ev.complete");
    auto& rec = task(id);
    LEIME_CHECK(rec.t_complete < 0.0);
    rec.t_complete = t;
    if (obs_)
      obs_->on_task_complete(id, static_cast<int>(rec.device), rec.t_arrive,
                             t, rec.block, rec.retries, rec.counted);
    retire();
  }

  // ------------------------------------------------------------ task ring

  TaskRecord& task(std::size_t id) { return ring_[id & (ring_.size() - 1)]; }
  const TaskRecord& task(std::size_t id) const {
    return ring_[id & (ring_.size() - 1)];
  }

  /// Doubles the ring and re-places [head_, tail_) at their new slots.
  void grow_ring() {
    std::vector<TaskRecord> bigger(2 * ring_.size());
    for (std::size_t id = head_; id < tail_; ++id)
      bigger[id & (bigger.size() - 1)] = task(id);
    ring_.swap(bigger);
  }

  /// Retires the head task while it is terminal (completed or parked), so
  /// tasks leave the ring in id order.
  void retire() {
    for (; head_ < tail_; ++head_) {
      const TaskRecord& rec = task(head_);
      if (rec.t_complete < 0.0 && !rec.parked) return;
      settle(head_);
    }
  }

  /// Hands task `id` over: to the fold in a single-queue run, to this
  /// shard's log in a sharded one.
  void settle(std::size_t id) {
    if (fold_)
      fold_->add(id, task(id));
    else
      retired_.push_back(task(id));
  }

  SimResult finalize() {
    LEIME_PROF_SCOPE("leime.sim.finalize");
    SimResult out = fold_->summarize(agg_);
    out.net = net_.stats();
    return out;
  }

  const ScenarioConfig& cfg_;
  ShardRole role_;
  /// Owned device range [lo_, hi_): the whole fleet in single-queue mode.
  std::size_t lo_ = 0;
  std::size_t hi_ = 0;
  EventQueue queue_;
  Network net_;
  /// Index-aligned with cfg_.devices; entries outside [lo_, hi_) are null
  /// in sharded mode (another shard owns them).
  std::vector<std::unique_ptr<DeviceRuntime>> devices_;
  std::unique_ptr<FifoProcessor> cloud_;
  std::unique_ptr<core::OffloadPolicy> policy_;
  /// Set iff cfg_.policy_core.batch_eq20.
  std::unique_ptr<policy::Engine> policy_engine_;
  /// The engine decisions actually go through: the shared coordinator
  /// engine in sharded mode, policy_engine_.get() otherwise (null = the
  /// policy's fleet form, chunk by chunk).
  policy::Engine* engine_ = nullptr;
  /// decide_all's scratch, reused across slots so decisions allocate nothing
  /// in steady state: kDecideChunk states, or the owned fleet with an engine.
  static constexpr std::size_t kDecideChunk = 64;
  std::vector<core::DeviceSlotState> scratch_states_;
  std::vector<double> scratch_x_;
  /// Sharded mode only: per-epoch offload decisions in device order (the
  /// coordinator's x_sum replay). Fleet-wide arrival counts the next
  /// kReallocate event allocates from (gathered by the coordinator in
  /// sharded mode, by reallocate() itself otherwise).
  std::vector<std::vector<double>> x_log_;
  std::vector<int> realloc_counts_;
  /// Tasks [head_, tail_), from the oldest unfinished one to the newest:
  /// task `id` sits at ring_[id & (ring_.size() - 1)]. The size is a power
  /// of two that only on_arrival grows, before it binds its own record.
  static constexpr std::size_t kInitialRingSlots = 1024;
  std::vector<TaskRecord> ring_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::optional<TaskFold> fold_;  ///< single-queue runs
  std::vector<TaskOutcome> retired_;  ///< sharded runs (see retired())
  Observer* obs_ = nullptr;  ///< external (cfg_.observer) or owned_obs_
  std::unique_ptr<RecordingObserver> owned_obs_;
  Aggregates agg_;

  // Fault-layer state.
  bool faults_on_ = false;
  FaultTimeline timeline_;
  bool edge_up_now_ = true;
  std::vector<char> present_;
};

// --------------------------------------------------- sharded coordinator

/// Sharded v1 holds determinism above generality: it accepts exactly the
/// configurations where the only fleet-shared mutable resource is the
/// edge->cloud link (which the coordinator replays bit-identically), and
/// rejects everything else loudly rather than drifting from the
/// single-queue results.
void validate_sharded(const ScenarioConfig& cfg) {
  auto reject = [](const std::string& what) {
    throw std::invalid_argument(
        "[shards] sharded execution does not support " + what +
        " (run with shards = 1)");
  };
  if (cfg.topology.enabled()) reject("[topology] routed fabric mode");
  if (cfg.shared_uplink_bw > 0.0) reject("shared_uplink_bw");
  if (cfg.cloud_fifo) reject("cloud_fifo (a fleet-shared FIFO server)");
  if (cfg.result_bytes > 0.0)
    reject("result_bytes (the shared cloud-return link)");
  if (cfg.observer) reject("an external observer");
  if (cfg.obs.effective_trace_sample() > 0 || cfg.obs.timeseries_enabled() ||
      cfg.obs.attribution_enabled() || cfg.obs.slo.enabled() ||
      cfg.obs.provenance_enabled())
    reject("observability beyond the metrics pillar");
  if (cfg.edge_cloud_lat <= 0.0)
    throw std::invalid_argument(
        "[shards] sharded execution needs edge_cloud_lat > 0: the "
        "propagation delay is the conservative lookahead window");
}

/// The single queue's order of two tasks: arrival time, then when the
/// arrival event was scheduled (the queue runs same-instant events in
/// schedule order), then device (arrival chains that tie on both go back to
/// init_run, which schedules devices in order).
bool arrives_before(const TaskOutcome& a, const TaskOutcome& b) {
  if (a.t_arrive != b.t_arrive) return a.t_arrive < b.t_arrive;
  if (a.t_sched != b.t_sched) return a.t_sched < b.t_sched;
  return a.device < b.device;
}

/// Folds the shards' retired tasks (each log in its shard's id order) into
/// `fold` in the single queue's id order: a k-way merge by arrives_before,
/// the earlier shard first on a full tie.
void merge_retired(const std::vector<std::unique_ptr<Simulation>>& shards,
                   TaskFold& fold) {
  std::vector<std::size_t> next(shards.size(), 0);
  // A min-heap of shards by their next task.
  const auto later = [&](std::size_t a, std::size_t b) {
    const TaskOutcome& x = shards[a]->retired()[next[a]];
    const TaskOutcome& y = shards[b]->retired()[next[b]];
    if (arrives_before(y, x)) return true;
    if (arrives_before(x, y)) return false;
    return a > b;
  };
  std::vector<std::size_t> heap;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& log = shards[s]->retired();
    LEIME_CHECK(std::is_sorted(log.begin(), log.end(), arrives_before));
    if (!log.empty()) heap.push_back(s);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  for (std::size_t id = 0; !heap.empty(); ++id) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t s = heap.back();
    fold.add(id, shards[s]->retired()[next[s]]);
    if (++next[s] < shards[s]->retired().size())
      std::push_heap(heap.begin(), heap.end(), later);
    else
      heap.pop_back();
  }
}

/// One simulation, S event queues (DESIGN.md §15). Shards advance in
/// conservative windows no wider than the edge-cloud propagation delay —
/// every cross-shard event (a hub admission's delivery) provably lands at
/// or beyond the next barrier, so no shard ever receives an event in its
/// past. Between windows the coordinator merges shard outboxes in global
/// admission order, replays the shared hub link, injects deliveries, and
/// (just below each reallocation tick) gathers fleet-wide arrival counts.
/// The merge discipline makes the result byte-identical to shards = 1 for
/// any shard/thread count.
SimResult run_scenario_sharded(const ScenarioConfig& cfg) {
  LEIME_PROF_SCOPE("leime.sim.run_sharded");
  validate_sharded(cfg);
  const std::size_t n = cfg.devices.size();
  const std::size_t S = std::min(cfg.shards.shards, n);
  // The widest safe window: every hub delivery lands at least one
  // edge-cloud propagation delay after its admission.
  const double window = cfg.edge_cloud_lat;
  const double inf = std::numeric_limits<double>::infinity();

  TaskFold fold(cfg);  // opens the task trace as the run starts

  // One thread-safe engine shared by every shard thread (batch_eq20 only).
  std::unique_ptr<policy::Engine> engine;
  if (cfg.policy_core.batch_eq20)
    engine = std::make_unique<policy::Engine>(cfg.policy_core);

  std::vector<std::vector<HubRequest>> outboxes(S);
  std::vector<std::unique_ptr<Simulation>> shards;
  shards.reserve(S);
  std::vector<std::size_t> owner(n);
  for (std::size_t s = 0; s < S; ++s) {
    const auto range = shard_range(n, S, s);
    ShardRole role;
    role.index = s;
    role.num_shards = S;
    role.lo = range.first;
    role.hi = range.second;
    role.outbox = &outboxes[s];
    role.engine = engine.get();
    for (std::size_t i = range.first; i < range.second; ++i) owner[i] = s;
    shards.push_back(std::make_unique<Simulation>(cfg, role));
  }

  ShardPool pool(resolve_shard_threads(cfg.shards, S));
  pool.run(S, [&](std::size_t s) { shards[s]->init_run(); });

  HubLink hub(cfg.edge_cloud_bw, cfg.edge_cloud_lat);
  // Mirrors the single-queue kReallocate schedule: first tick at P
  // unconditionally, then T + P while it lands within the generation
  // window (reallocate()'s own rescheduling rule).
  double next_realloc =
      cfg.reallocation_period > 0.0 ? cfg.reallocation_period : inf;
  std::vector<HubRequest> admissions;
  std::vector<int> counts(n, 0);

  {
    LEIME_PROF_SCOPE("leime.sim.event_loop");
    for (;;) {
      // Adaptive barrier: the earliest pending event anywhere plus the
      // lookahead. Idle stretches (e.g. the post-generation drain) are
      // skipped outright instead of stepped through window by window.
      double min_peek = inf;
      for (const auto& sh : shards)
        min_peek = std::min(min_peek, sh->next_event_time());
      if (!std::isfinite(min_peek)) break;  // all queues drained
      double barrier = min_peek + window;
      bool gather = false;
      if (std::isfinite(next_realloc)) {
        // Stop one ulp below the reallocation tick so the fleet-wide
        // arrival counts can be gathered before any shard executes it.
        const double t_minus = std::nextafter(next_realloc, -inf);
        if (barrier >= t_minus) {
          barrier = t_minus;
          gather = true;
        }
      }
      pool.run(S, [&](std::size_t s) { shards[s]->advance_to(barrier); });

      // Merge the windows' hub admissions in global admission order:
      // within a shard the outbox is already event-ordered, across shards
      // (t, device) reproduces the single queue's (time, seq) order.
      admissions.clear();
      for (auto& box : outboxes) {
        admissions.insert(admissions.end(), box.begin(), box.end());
        box.clear();
      }
      std::stable_sort(admissions.begin(), admissions.end(),
                       [](const HubRequest& a, const HubRequest& b) {
                         if (a.t != b.t) return a.t < b.t;
                         return a.device < b.device;
                       });
      for (const auto& req : admissions) {
        const double t2 = hub.admit(req.t, cfg.partition.d2);
        shards[owner[req.device]]->inject_hub_delivery(req.device, req.task,
                                                       req.attempt, t2);
      }

      if (gather) {
        for (const auto& sh : shards) sh->gather_realloc_counts(counts);
        for (const auto& sh : shards) sh->set_realloc_counts(counts);
        next_realloc =
            next_realloc + cfg.reallocation_period <= cfg.duration
                ? next_realloc + cfg.reallocation_period
                : inf;
      }
    }
  }

  for (const auto& sh : shards) sh->end_run();

  merge_retired(shards, fold);

  Aggregates agg;
  agg.resize(n);
  for (std::size_t s = 0; s < S; ++s) shards[s]->accumulate(agg, s == 0);
  // Replay the slot-decision stream in (epoch, device) order so the FP
  // accumulation of x_sum matches the single-queue loop bit for bit.
  const std::size_t epochs = shards.front()->x_log().size();
  for (std::size_t e = 0; e < epochs; ++e)
    for (const auto& sh : shards)
      for (const double x : sh->x_log()[e]) {
        agg.x_sum += x;
        ++agg.x_count;
      }

  SimResult out = fold.summarize(agg);
  for (const auto& sh : shards) out.events_executed += sh->executed_events();

  if (cfg.obs.enabled()) {
    // Counters sum exactly across shards; the coordinator's observer
    // absorbs the per-shard snapshots in shard order and exports once.
    std::vector<std::string> device_classes;
    device_classes.reserve(n);
    for (const auto& spec : cfg.devices)
      device_classes.push_back(spec.device_class);
    RecordingObserver merged(cfg.obs, n, std::move(device_classes));
    for (const auto& sh : shards)
      merged.registry().absorb(sh->obs_snapshot());
    if (engine) engine->publish_metrics(merged.registry());
    out.metrics = merged.registry().snapshot();
    merged.export_outputs();
  }
  return out;
}

}  // namespace

SimResult run_scenario(const ScenarioConfig& config) {
  if (config.shards.enabled() && config.devices.size() > 1)
    return run_scenario_sharded(config);
  Simulation sim(config);
  return sim.run();
}

}  // namespace leime::sim
