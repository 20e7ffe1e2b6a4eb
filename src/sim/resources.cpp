#include "sim/resources.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.h"

namespace leime::sim {

FifoProcessor::FifoProcessor(EventQueue& queue, std::string name, double flops)
    : queue_(&queue), name_(std::move(name)), flops_(flops) {
  if (flops <= 0.0)
    throw std::invalid_argument("FifoProcessor: flops must be > 0");
}

void FifoProcessor::set_flops(double flops) {
  if (flops <= 0.0)
    throw std::invalid_argument("FifoProcessor::set_flops: flops must be > 0");
  flops_ = flops;
}

void FifoProcessor::restart(double now) {
  busy_until_ = now;
  pending_[0] = pending_[1] = pending_[2] = 0;
  ++epoch_;
}

void FifoProcessor::submit(double work, JobClass cls, Completion done) {
  if (work < 0.0)
    throw std::invalid_argument("FifoProcessor: negative work");
  const double start = std::max(queue_->now(), busy_until_);
  const double finish = start + work / flops_;
  busy_until_ = finish;
  ++pending_[static_cast<int>(cls)];
  queue_->schedule(finish, EventKind::kComputeDone,
                   [this, cls, done = std::move(done), finish,
                    epoch = epoch_]() mutable {
    // restart() zeroes the counters; a pre-crash completion must not
    // decrement them again (the completion itself still fires — the
    // caller's staleness guard decides what to do with it).
    if (epoch == epoch_) {
      --pending_[static_cast<int>(cls)];
      LEIME_CHECK(pending_[static_cast<int>(cls)] >= 0);
    }
    done(finish);
  });
}

void validate_link(double bandwidth, double latency,
                   const util::PiecewiseConstant* bandwidth_trace,
                   const util::PiecewiseConstant* latency_trace) {
  if (!(bandwidth > 0.0))
    throw std::invalid_argument("Link: bandwidth must be > 0");
  if (!(latency >= 0.0))
    throw std::invalid_argument("Link: latency must be >= 0");
  if (bandwidth_trace)
    for (const auto& p : bandwidth_trace->points())
      if (!(p.value > 0.0))
        throw std::invalid_argument("Link: bandwidth trace must stay > 0");
  if (latency_trace)
    for (const auto& p : latency_trace->points())
      if (!(p.value >= 0.0))
        throw std::invalid_argument("Link: latency trace must stay >= 0");
}

Link::Link(EventQueue& queue, std::string name, double bandwidth_bytes_per_s,
           double latency_s)
    : queue_(&queue),
      name_(std::move(name)),
      bandwidth_(bandwidth_bytes_per_s),
      latency_(latency_s) {
  validate_link(bandwidth_, latency_);
}

void Link::set_bandwidth_trace(util::PiecewiseConstant trace) {
  validate_link(bandwidth_, latency_, &trace);
  bw_trace_ = std::move(trace);
}

void Link::set_latency_trace(util::PiecewiseConstant trace) {
  validate_link(bandwidth_, latency_, nullptr, &trace);
  lat_trace_ = std::move(trace);
}

void Link::set_outage_windows(std::vector<std::pair<double, double>> windows) {
  // A mis-ordered or NaN window would not throw here but silently
  // mis-serialize transfers (the hold loop in transfer() assumes sorted
  // disjoint windows), so the preconditions are enforced as invariants.
  // Note NaN fails every comparison: each condition is written so that a
  // NaN endpoint trips the check instead of slipping through.
  double prev_end = 0.0;
  for (const auto& [start, end] : windows) {
    LEIME_CHECK_MSG(std::isfinite(start) && std::isfinite(end),
                    "outage window [" << start << ", " << end
                                      << ") on '" << name_
                                      << "' has a non-finite endpoint");
    LEIME_CHECK_MSG(end > start, "outage window [" << start << ", " << end
                                                   << ") on '" << name_
                                                   << "' is empty or inverted");
    LEIME_CHECK_MSG(start >= prev_end,
                    "outage windows on '"
                        << name_ << "' must be sorted and disjoint; ["
                        << start << ", " << end << ") starts before "
                        << prev_end);
    prev_end = end;
  }
  outages_ = std::move(windows);
}

bool Link::up_at(double t) const {
  for (const auto& [start, end] : outages_) {
    if (t < start) return true;
    if (t < end) return false;
  }
  return true;
}

double Link::backlog_bytes(double now) const {
  const double remaining = busy_until_ - now;
  if (remaining <= 0.0) return 0.0;
  return remaining * bandwidth_at(now);
}

double Link::bandwidth_at(double t) const {
  return bw_trace_ ? bw_trace_->value_at(t) : bandwidth_;
}

double Link::latency_at(double t) const {
  return lat_trace_ ? lat_trace_->value_at(t) : latency_;
}

void Link::transfer(double bytes, double extra_latency, Completion done) {
  if (bytes < 0.0) throw std::invalid_argument("Link: negative bytes");
  if (extra_latency < 0.0)
    throw std::invalid_argument("Link: negative extra latency");
  const double start = std::max(queue_->now(), busy_until_);
  // Serialization only progresses outside outage windows; a transfer that
  // starts (or lands) inside one is held and resumes at the window's end.
  double t = start;
  double remaining = bytes / bandwidth_at(start);
  for (const auto& [down_start, down_end] : outages_) {
    if (down_end <= t) continue;
    if (t >= down_start) {
      t = down_end;
      continue;
    }
    const double up_time = down_start - t;
    if (remaining <= up_time) break;
    remaining -= up_time;
    t = down_end;
  }
  busy_until_ = t + remaining;
  const double delivery = busy_until_ + latency_at(start) + extra_latency;
  ++pending_;
  queue_->schedule(delivery, EventKind::kTransferDone,
                   [this, done = std::move(done), delivery]() mutable {
    --pending_;
    LEIME_CHECK(pending_ >= 0);
    done(delivery);
  });
}

}  // namespace leime::sim
