// Fully-associative translation lookaside buffer with LRU replacement.
// Drives the PAPI_TLB_DM / PAPI_TLB_IM preset events.
#pragma once

#include <cstdint>
#include <vector>

namespace papirepro::sim {

struct TlbConfig {
  std::uint32_t entries = 64;
  std::uint32_t page_bits = 12;  ///< 4 KiB pages by default
  std::uint32_t miss_latency = 30;
};

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
};

/// True LRU in O(1) per access, hit or miss: a hashed vpn → slot index
/// finds an entry, and an intrusive recency list orders the entries, so
/// the least recently used one is the list's tail.
class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  /// Translates `addr`; returns true on TLB hit.
  bool access(std::uint64_t addr);

  void flush();

  const TlbStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }
  const TlbConfig& config() const noexcept { return config_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Slot {
    std::uint64_t vpn = 0;
    std::uint32_t chain = kNone;  ///< next slot in the same bucket
    std::uint32_t older = kNone;  ///< recency list, toward the LRU end
    std::uint32_t newer = kNone;  ///< recency list, toward the MRU end
  };

  std::uint32_t& bucket(std::uint64_t vpn) noexcept {
    return buckets_[(vpn * 0x9e3779b97f4a7c15ULL) >> bucket_shift_];
  }
  void unlink(std::uint32_t s) noexcept;
  void push_mru(std::uint32_t s) noexcept;

  TlbConfig config_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> buckets_;  ///< first slot of each chain
  std::uint32_t bucket_shift_;          ///< 64 - log2(buckets_.size())
  std::uint32_t used_ = 0;              ///< slots filled since the flush
  std::uint32_t mru_ = kNone;
  std::uint32_t lru_ = kNone;
  TlbStats stats_;
};

}  // namespace papirepro::sim
