#include "sim/shard.h"

#include <algorithm>
#include <stdexcept>

namespace leime::sim {

void ShardOptions::validate() const {
  if (shards == 0)
    throw std::invalid_argument("ShardOptions: shards must be >= 1");
  if (threads < 0)
    throw std::invalid_argument("ShardOptions: threads must be >= 0");
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t n,
                                                std::size_t shards,
                                                std::size_t s) {
  const std::size_t base = n / shards;
  const std::size_t rem = n % shards;
  const std::size_t lo = s * base + std::min(s, rem);
  const std::size_t hi = lo + base + (s < rem ? 1 : 0);
  return {lo, hi};
}

int resolve_shard_threads(const ShardOptions& opts, std::size_t shards) {
  std::size_t t = static_cast<std::size_t>(opts.threads);
  if (t == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    t = hw ? static_cast<std::size_t>(hw) : 1;
  }
  return static_cast<int>(std::max<std::size_t>(1, std::min(t, shards)));
}

ShardPool::ShardPool(int threads) {
  if (threads <= 1) return;  // inline execution, no workers
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ShardPool::~ShardPool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ShardPool::run_job(std::size_t i) {
  try {
    (*fn_)(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
}

void ShardPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::size_t jobs = jobs_;
    lock.unlock();
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs) break;
      run_job(i);
    }
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_all();
  }
}

void ShardPool::run(std::size_t jobs,
                    const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < jobs; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    jobs_ = jobs;
    next_.store(0, std::memory_order_relaxed);
    busy_ = workers_.size();
    error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return busy_ == 0; });
  fn_ = nullptr;
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace leime::sim
