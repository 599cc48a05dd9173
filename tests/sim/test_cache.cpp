#include "sim/cache.h"

#include <gtest/gtest.h>

namespace papirepro::sim {
namespace {

CacheConfig small_cache() {
  return {.size_bytes = 1024, .line_bytes = 64, .associativity = 2,
          .hit_latency = 0, .miss_latency = 10};
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x100));
  EXPECT_TRUE(c.access(0x100));
  EXPECT_TRUE(c.access(0x13f));  // same 64B line as 0x100
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, NumSets) {
  EXPECT_EQ(small_cache().num_sets(), 8u);
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(small_cache());  // 8 sets, 2 ways, set stride = 64*8 = 512
  // Three lines mapping to the same set: only two fit.
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(512));
  EXPECT_FALSE(c.access(1024));  // evicts line 0 (LRU)
  EXPECT_FALSE(c.access(0));     // line 0 was evicted
  EXPECT_TRUE(c.access(1024));   // still resident
}

TEST(Cache, LruRefreshOnHit) {
  Cache c(small_cache());
  c.access(0);
  c.access(512);
  c.access(0);     // refresh line 0; 512 becomes LRU
  c.access(1024);  // evicts 512
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(512));
}

TEST(Cache, StreamingMissesEveryLine) {
  Cache c(small_cache());
  for (std::uint64_t a = 0; a < 64 * 1024; a += 64) c.access(a);
  // Working set >> cache: every access a distinct line = all misses.
  EXPECT_EQ(c.stats().misses, c.stats().accesses);
}

TEST(Cache, SmallWorkingSetAllHitsAfterWarmup) {
  Cache c(small_cache());
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t a = 0; a < 1024; a += 64) c.access(a);
  }
  // 16 cold misses, then hits.
  EXPECT_EQ(c.stats().misses, 16u);
  EXPECT_EQ(c.stats().accesses, 64u);
}

TEST(Cache, PolluteInvalidatesLines) {
  Cache c(small_cache());
  for (std::uint64_t a = 0; a < 1024; a += 64) c.access(a);
  c.reset_stats();
  c.pollute(16);  // entire cache
  for (std::uint64_t a = 0; a < 1024; a += 64) c.access(a);
  EXPECT_GT(c.stats().misses, 0u);
}

TEST(Cache, PolluteStaysInsideACacheWithFewerSetsThanLines) {
  // 16 sets, fewer than the 48 lines one sim-x86 counter read pollutes.
  // The round-robin cursor used to step one past the last way here.
  const CacheConfig config{.size_bytes = 4 * 1024, .line_bytes = 64,
                           .associativity = 4, .miss_latency = 8};
  Cache c(config);
  for (int call = 0; call < 200; ++call) c.pollute(48);

  // A whole-cache pollute still invalidates every line, wherever the
  // cursor stands.
  const std::uint32_t lines = config.size_bytes / config.line_bytes;
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t a = 0; a < config.size_bytes; a += 64) c.access(a);
    c.reset_stats();
    c.pollute(lines);
    for (std::uint64_t a = 0; a < config.size_bytes; a += 64) c.access(a);
    EXPECT_EQ(c.stats().misses, lines);
    c.pollute(48);
  }
}

TEST(Cache, MissRate) {
  Cache c(small_cache());
  c.access(0);
  c.access(0);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
  CacheStats empty;
  EXPECT_DOUBLE_EQ(empty.miss_rate(), 0.0);
}

}  // namespace
}  // namespace papirepro::sim
