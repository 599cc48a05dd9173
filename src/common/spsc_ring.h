// Fixed-capacity lock-free single-producer/single-consumer ring, the one
// queue behind the async sampling pipeline (overflow samples) and the
// telemetry trace rings (span records).  The producer is an
// instrumented hot path — an overflow delivery inside the counting
// thread, or a traced EventSet call — so it must never block, never
// allocate, and never run user code: a full ring drops the record and
// accounts it (a lost record biases a profile or a trace far less than
// a stalled counting thread biases every count).  The consumer drains in
// batches; callers with several consumers serialize them (the sampling
// aggregator and the telemetry registry each hold a mutex).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace papirepro {

/// All producer-side state (tail_, dropped_) is written only by the
/// producer; all consumer-side state (head_) only by the consumer.
/// Capacity is rounded up to a power of two so index masking is a
/// single AND.  `T` must be trivially copyable and default-constructible.
template <typename T>
class SpscRing {
 public:
  static constexpr std::size_t kMinCapacity = 8;
  static constexpr std::size_t kMaxCapacity = 1u << 20;

  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = kMinCapacity;
    while (cap < capacity && cap < kMaxCapacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<T[]>(cap);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }

  /// Producer side.  O(1), wait-free, no allocation; a full ring drops
  /// the record and bumps the drop count instead of blocking.
  bool try_push(const T& record) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= capacity_) {
      // Producer-only counter: a relaxed load and store, no locked RMW,
      // so a traced read against a full ring stays cheap.
      dropped_.store(dropped_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
      return false;
    }
    slots_[tail & mask_] = record;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.
  bool try_pop(T& out) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::size_t size() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

  /// Records accepted / dropped-on-full since construction.  The tail
  /// cursor never wraps (64-bit), so it doubles as the accepted count.
  std::uint64_t pushed() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<T[]> slots_;
  /// Consumer cursor and producer cursor on separate cache lines so the
  /// enqueue path never false-shares with the draining consumer.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace papirepro
