#include "core/sampling_pipeline.h"

#include <algorithm>
#include <chrono>

namespace papirepro::papi {
namespace {

/// Max records drained from one ring per sweep before the aggregator
/// moves on (keeps one noisy ring from starving the others).
constexpr std::size_t kBatchLimit = 256;

}  // namespace

SamplingAggregator::~SamplingAggregator() {
  {
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void SamplingAggregator::configure(const SamplingConfig& config) {
  {
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    config_ = config;
    if (config_.ring_capacity == 0) config_.ring_capacity = 1024;
    if (config_.poll_interval_us == 0) config_.poll_interval_us = 100;
  }
  cv_.notify_all();
}

SamplingConfig SamplingAggregator::config() const {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  return config_;
}

void SamplingAggregator::ensure_thread_locked() {
  if (thread_.joinable() || stop_requested_) return;
  thread_ = std::thread([this] { run(); });
}

void SamplingAggregator::attach(SpscRing<SampleRecord>* ring,
                                Dispatch dispatch) {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  sources_.push_back({ring, std::move(dispatch), false});
  ensure_thread_locked();
  cv_.notify_all();
}

void SamplingAggregator::detach(SpscRing<SampleRecord>* ring) {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (Source& s : sources_) {
    if (s.ring != ring || s.dead) continue;
    drain_locked(s, 0);
    flushes_.fetch_add(1, std::memory_order_relaxed);
    retired_pushed_.fetch_add(ring->pushed(), std::memory_order_relaxed);
    retired_dropped_.fetch_add(ring->dropped(),
                               std::memory_order_relaxed);
    s.dead = true;
    break;
  }
  // The sweep loop walks sources_ by index; erasing under its feet (a
  // dispatch callback may detach) would skip or repeat entries, so mid-
  // sweep removals are only marked and pruned when the pass finishes.
  if (!sweeping_) {
    sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                  [](const Source& s) { return s.dead; }),
                   sources_.end());
  }
}

void SamplingAggregator::flush(SpscRing<SampleRecord>* ring) {
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (Source& s : sources_) {
    if (s.ring != ring || s.dead) continue;
    drain_locked(s, 0);
    flushes_.fetch_add(1, std::memory_order_relaxed);
    break;
  }
}

void SamplingAggregator::drain_locked(Source& source, std::size_t limit) {
  SampleRecord record;
  std::size_t n = 0;
  while ((limit == 0 || n < limit) && source.ring->try_pop(record)) {
    ++n;
    dispatched_.fetch_add(1, std::memory_order_relaxed);
    if (source.dispatch) source.dispatch(record);
  }
}

void SamplingAggregator::run() {
  std::unique_lock<std::recursive_mutex> lock(mutex_);
  while (!stop_requested_) {
    sweeping_ = true;
    bool drained_any = false;
    // Index loop: dispatch callbacks may attach (push_back can
    // reallocate) or detach (marks dead) while we walk.
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i].dead) continue;
      const std::size_t before = sources_[i].ring->size();
      if (before == 0) continue;
      drain_locked(sources_[i], kBatchLimit);
      drained_any = true;
    }
    sweeping_ = false;
    sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                  [](const Source& s) { return s.dead; }),
                   sources_.end());
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    if (stop_requested_) break;
    if (drained_any) continue;  // more may already be queued
    cv_.wait_for(lock,
                 std::chrono::microseconds(config_.poll_interval_us));
  }
}

SamplingStats SamplingAggregator::stats() const {
  SamplingStats out;
  out.dispatched = dispatched_.load(std::memory_order_relaxed);
  out.sweeps = sweeps_.load(std::memory_order_relaxed);
  out.flushes = flushes_.load(std::memory_order_relaxed);
  out.enqueued = retired_pushed_.load(std::memory_order_relaxed);
  out.dropped = retired_dropped_.load(std::memory_order_relaxed);
  const std::lock_guard<std::recursive_mutex> lock(mutex_);
  for (const Source& s : sources_) {
    if (s.dead) continue;
    out.enqueued += s.ring->pushed();
    out.dropped += s.ring->dropped();
    ++out.rings_active;
  }
  out.ring_capacity = config_.ring_capacity;
  out.async = config_.async;
  return out;
}

}  // namespace papirepro::papi
