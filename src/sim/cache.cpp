#include "sim/cache.h"

#include <bit>
#include <cassert>

namespace papirepro::sim {

Cache::Cache(const CacheConfig& config)
    : config_(config),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config.line_bytes))),
      tag_shift_(line_shift_ + static_cast<std::uint32_t>(
                                   std::countr_zero(config.num_sets()))),
      set_mask_(config.num_sets() - 1) {
  assert(config.num_sets() > 0 &&
         "cache too small for line size / associativity");
  assert(std::has_single_bit(config.line_bytes) &&
         "line size must be a power of two");
  assert(std::has_single_bit(config.num_sets()) &&
         "set count must be a power of two");
  ways_.resize(static_cast<std::size_t>(config.num_sets()) *
               config_.associativity);
}

bool Cache::access(std::uint64_t addr) {
  ++stats_.accesses;
  const std::uint64_t key = ((addr >> tag_shift_) << 1) | 1;
  Way* const base =
      &ways_[((addr >> line_shift_) & set_mask_) * config_.associativity];
  Way* const end = base + config_.associativity;

  for (Way* way = base; way != end; ++way) {
    if (way->key == key) {
      way->lru = ++stamp_;
      return true;
    }
  }

  // The last invalid way, else the least recently used one.
  Way* victim = base;
  for (Way* way = base; way != end; ++way) {
    if (way->key == 0) {
      victim = way;
    } else if (victim->key != 0 && way->lru < victim->lru) {
      victim = way;
    }
  }
  ++stats_.misses;
  victim->key = key;
  victim->lru = ++stamp_;
  return false;
}

void Cache::pollute(std::uint32_t lines) {
  // Round-robin invalidation: cheap, deterministic, and spread across
  // sets the way kernel-entry cache pollution is in practice.  The
  // modulo comes after the way shift, so the cursor never leaves the
  // array.
  const auto size = static_cast<std::uint32_t>(ways_.size());
  const std::uint64_t sets = set_mask_ + 1;
  for (std::uint32_t i = 0; i < lines; ++i) {
    ways_[pollute_cursor_].key = 0;
    pollute_cursor_ += config_.associativity;
    if (i % sets == sets - 1) ++pollute_cursor_;  // shift to next way
    pollute_cursor_ %= size;
  }
}

}  // namespace papirepro::sim
