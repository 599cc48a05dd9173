// Seqlock-published snapshot region for out-of-process polling.  The
// collector refreshes it after each reduce(); readers — another thread,
// or another process when the region is placed in a MAP_SHARED mapping
// — copy the latest cluster reduction without syscalls, locks, or any
// interaction with the counting threads.  common/seqlock.h states the
// memory-ordering contract; every field is one of its atomic cells.
#pragma once

#include <atomic>
#include <cstdint>

#include "aggregate/collector.h"
#include "common/seqlock.h"

namespace papirepro::aggregate {

inline constexpr std::uint32_t kRegionMagic = 0x52534350u;  // "PCSR"
/// Bumped whenever the cell layout below moves (2: SeqLock header).
inline constexpr std::uint32_t kRegionVersion = 2;

/// Alias for callers that name the type read_into() fills.
using RegionSnapshot = ClusterReduction;

class SharedSnapshotRegion {
 public:
  SharedSnapshotRegion() noexcept {
    magic_.store(kRegionMagic, std::memory_order_relaxed);
    version_.store(kRegionVersion, std::memory_order_release);
  }

  SharedSnapshotRegion(const SharedSnapshotRegion&) = delete;
  SharedSnapshotRegion& operator=(const SharedSnapshotRegion&) = delete;

  bool valid() const noexcept {
    return magic_.load(std::memory_order_relaxed) == kRegionMagic &&
           version_.load(std::memory_order_relaxed) == kRegionVersion;
  }

  /// Publishes `reduction` (single writer — the collector's thread).
  void publish(const ClusterReduction& reduction) noexcept {
    lock_.write([&] {
      reduce_count_.store(reduction.reduce_count, std::memory_order_relaxed);
      now_cycles_.store(reduction.now_cycles, std::memory_order_relaxed);
      ranks_live_.store(reduction.ranks_live, std::memory_order_relaxed);
      ranks_stale_.store(reduction.ranks_stale, std::memory_order_relaxed);
      const std::uint32_t m =
          reduction.num_metrics <= kMaxMetrics
              ? reduction.num_metrics
              : static_cast<std::uint32_t>(kMaxMetrics);
      num_metrics_.store(m, std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < m; ++i) {
        const MetricStats& ms = reduction.metrics[i];
        MetricCells& c = metrics_[i];
        c.min.store(ms.min, std::memory_order_relaxed);
        c.max.store(ms.max, std::memory_order_relaxed);
        c.sum.store(ms.sum, std::memory_order_relaxed);
        c.avg_bits.store(bit_cast_u64(ms.avg), std::memory_order_relaxed);
        c.count.store(ms.count, std::memory_order_relaxed);
        c.p50.store(ms.p50, std::memory_order_relaxed);
        c.p95.store(ms.p95, std::memory_order_relaxed);
        c.p99.store(ms.p99, std::memory_order_relaxed);
      }
    });
  }

  /// Copies the latest consistent snapshot into `out`.  Returns false
  /// when `max_attempts` seqlock brackets all raced the writer (`out`
  /// then holds a torn copy to discard) or the region header is invalid.
  bool read_into(ClusterReduction& out,
                 int max_attempts = SeqLock::kReadAttempts) const noexcept {
    if (!valid()) return false;
    return lock_.read(
        [&] {
          out.reduce_count = reduce_count_.load(std::memory_order_relaxed);
          out.now_cycles = now_cycles_.load(std::memory_order_relaxed);
          out.ranks_live = ranks_live_.load(std::memory_order_relaxed);
          out.ranks_stale = ranks_stale_.load(std::memory_order_relaxed);
          std::uint32_t m = num_metrics_.load(std::memory_order_relaxed);
          if (m > kMaxMetrics) m = static_cast<std::uint32_t>(kMaxMetrics);
          out.num_metrics = m;
          for (std::uint32_t i = 0; i < m; ++i) {
            const MetricCells& c = metrics_[i];
            MetricStats& rm = out.metrics[i];
            rm.min = c.min.load(std::memory_order_relaxed);
            rm.max = c.max.load(std::memory_order_relaxed);
            rm.sum = c.sum.load(std::memory_order_relaxed);
            rm.avg = bit_cast_double(
                c.avg_bits.load(std::memory_order_relaxed));
            rm.count = c.count.load(std::memory_order_relaxed);
            rm.p50 = c.p50.load(std::memory_order_relaxed);
            rm.p95 = c.p95.load(std::memory_order_relaxed);
            rm.p99 = c.p99.load(std::memory_order_relaxed);
          }
        },
        max_attempts);
  }

  /// Publications so far (readers poll this to detect fresh data).
  std::uint64_t publications() const noexcept {
    return reduce_count_.load(std::memory_order_acquire);
  }

 private:
  /// double <-> u64 through atomics: the region only stores integral
  /// atomic cells so every field has the same lock-free guarantees.
  static std::uint64_t bit_cast_u64(double d) noexcept {
    return __builtin_bit_cast(std::uint64_t, d);
  }
  static double bit_cast_double(std::uint64_t u) noexcept {
    return __builtin_bit_cast(double, u);
  }

  struct MetricCells {
    std::atomic<long long> min{0};
    std::atomic<long long> max{0};
    std::atomic<long long> sum{0};
    std::atomic<std::uint64_t> avg_bits{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> p50{0};
    std::atomic<std::uint64_t> p95{0};
    std::atomic<std::uint64_t> p99{0};
  };

  std::atomic<std::uint32_t> magic_{0};
  std::atomic<std::uint32_t> version_{0};
  SeqLock lock_;
  std::atomic<std::uint32_t> num_metrics_{0};
  std::atomic<std::uint64_t> reduce_count_{0};
  std::atomic<std::uint64_t> now_cycles_{0};
  std::atomic<std::uint32_t> ranks_live_{0};
  std::atomic<std::uint32_t> ranks_stale_{0};
  std::array<MetricCells, kMaxMetrics> metrics_{};
};

}  // namespace papirepro::aggregate
