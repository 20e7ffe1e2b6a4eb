#include "runtime/executor.h"

#include <atomic>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>

#include "prof/profiler.h"
#include "sim/simulation.h"
#include "util/clock.h"
#include "util/table.h"

namespace leime::runtime {

using util::seconds_since;

int Executor::resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<RunRecord> Executor::run(const ExperimentPlan& plan) const {
  return run(plan.expand());
}

std::vector<RunRecord> Executor::run(std::vector<Cell> cells) const {
  const std::size_t total = cells.size();
  std::vector<RunRecord> records(total);
  const int threads = resolve_threads(opts_.threads);
  const auto t0 = util::WallClock::now();

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex report_mu;
  std::exception_ptr first_error;

  // Per-worker metric shards: workers never share an instrument, and the
  // shards fold into opts_.metrics in worker order after the join.
  const int max_workers = std::max(1, std::min<int>(threads, static_cast<int>(
                                                                 total)));
  std::vector<obs::MetricsRegistry> shards(
      opts_.metrics ? static_cast<std::size_t>(max_workers) : 0);

  // Each worker claims cells off the shared counter and writes its record
  // into the cell's own slot, so collection order never depends on the
  // schedule and no two threads touch the same element.
  auto worker_fn = [&](int worker_id) {
    LEIME_PROF_SCOPE("leime.runtime.worker");
    obs::MetricsRegistry* shard =
        shards.empty() ? nullptr
                       : &shards[static_cast<std::size_t>(worker_id)];
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= total) return;
      Cell& cell = cells[i];
      RunRecord rec;
      rec.cell_index = cell.index;
      rec.labels = std::move(cell.labels);
      rec.replication = cell.replication;
      rec.seed = cell.config.seed;
      rec.worker = worker_id;
      rec.start_s = seconds_since(t0);
      // Nested thread budgeting: a sharded cell in auto mode (threads ==
      // 0) would resolve to hardware_concurrency on its own, so N
      // executor workers each spawning that many shard threads
      // oversubscribes the host N-fold. Split the budget instead —
      // explicit [shards] thread counts are honored as-is, and the
      // resolved count can never change results, only wall time.
      if (cell.config.shards.enabled() && cell.config.shards.threads == 0)
        cell.config.shards.threads =
            std::max(1, resolve_threads(0) / max_workers);
      try {
        LEIME_PROF_SCOPE("leime.runtime.cell");
        rec.result = sim::run_scenario(cell.config);
      } catch (...) {
        if (shard)
          shard->counter("leime_runtime_cell_errors_total",
                         "cells aborted by an exception")
              .inc();
        std::lock_guard<std::mutex> lock(report_mu);
        if (!first_error) first_error = std::current_exception();
        next.store(total);  // drain the queue so the pool winds down
        return;
      }
      rec.end_s = seconds_since(t0);
      if (shard) {
        // Wall-clock phase timer for the cell's simulate phase.
        shard->counter("leime_runtime_cells_total", "cells executed").inc();
        shard
            ->histogram("leime_runtime_cell_wall_seconds",
                        "wall-clock seconds per cell (simulate phase)",
                        obs::HistogramOptions{1e-4, 1e3, 42})
            .observe(rec.end_s - rec.start_s);
      }
      records[i] = std::move(rec);

      const std::size_t finished = done.fetch_add(1) + 1;
      if (opts_.progress) {
        std::lock_guard<std::mutex> lock(report_mu);
        std::cerr << "\r[runtime] " << finished << "/" << total << " cells, "
                  << threads << " thread" << (threads == 1 ? "" : "s") << ", "
                  << util::fmt(seconds_since(t0), 1) << " s" << std::flush;
        if (finished == total) std::cerr << "\n";
      }
    }
  };

  if (threads <= 1 || total <= 1) {
    worker_fn(0);
  } else {
    std::vector<std::thread> pool;
    const int n = std::min<int>(threads, static_cast<int>(total));
    pool.reserve(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w) pool.emplace_back(worker_fn, w);
    for (auto& t : pool) t.join();
  }

  last_wall_s_ = seconds_since(t0);
  if (opts_.metrics) {
    for (auto& shard : shards) opts_.metrics->absorb(shard.snapshot());
    opts_.metrics
        ->gauge("leime_runtime_wall_seconds",
                "wall-clock seconds of the last executor run")
        .set(last_wall_s_);
  }
  if (first_error) std::rethrow_exception(first_error);
  return records;
}

}  // namespace leime::runtime
