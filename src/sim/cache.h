// Set-associative cache model with true-LRU replacement.  Used for the
// L1 instruction, L1 data, and unified L2 caches of the simulated
// machine.  Only hit/miss behaviour and latency matter for counter
// reproduction; coherence and write-back traffic are out of scope.
#pragma once

#include <cstdint>
#include <vector>

namespace papirepro::sim {

struct CacheConfig {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t associativity = 4;
  std::uint32_t hit_latency = 0;   ///< extra cycles on hit (beyond base)
  std::uint32_t miss_latency = 10; ///< extra cycles charged on miss

  std::uint32_t num_sets() const noexcept {
    return size_bytes / (line_bytes * associativity);
  }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

  double miss_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

class Cache {
 public:
  /// Line size and set count must be powers of two: set and tag are a
  /// mask and a shift of the address.
  explicit Cache(const CacheConfig& config);

  /// Accesses `addr`; returns true on hit.  On miss, the line is filled
  /// (allocate-on-miss for both reads and writes).
  bool access(std::uint64_t addr);

  /// Invalidates `lines` lines, round-robin: the cursor walks one way
  /// across successive sets and moves to the next way after each
  /// `num_sets()` lines of one call, so calls of fewer lines than there
  /// are sets only ever invalidate way 0 of successive sets.  Models the
  /// cache pollution a counter-read system call causes in the monitored
  /// process (Section 4: "the interfaces cause cache pollution").
  void pollute(std::uint32_t lines);

  void reset_stats() noexcept { stats_ = {}; }
  const CacheStats& stats() const noexcept { return stats_; }
  const CacheConfig& config() const noexcept { return config_; }

 private:
  struct Way {
    std::uint64_t key = 0;  ///< (tag << 1) | 1 when valid, 0 when not
    std::uint64_t lru = 0;  ///< last-touch stamp; smaller = older
  };

  CacheConfig config_;
  std::uint32_t line_shift_;  ///< log2(line_bytes)
  std::uint32_t tag_shift_;   ///< log2(line_bytes * sets)
  std::uint64_t set_mask_;    ///< sets - 1
  std::uint64_t stamp_ = 0;
  std::vector<Way> ways_;  ///< sets x associativity, row-major
  CacheStats stats_;
  std::uint32_t pollute_cursor_ = 0;
};

}  // namespace papirepro::sim
