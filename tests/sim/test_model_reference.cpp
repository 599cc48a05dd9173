// Differential tests of the cache and TLB models against linear-scan
// reference models: the same seeded address streams must give the same
// hit or miss on every access, and the same statistics, across every
// geometry the platforms, bench_experiments and the tests use.
// The references are the straightforward implementations the fast
// models replaced: every access scans every way or slot, and the
// victim is the last invalid one, else the least recently stamped.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/cache.h"
#include "sim/machine.h"
#include "sim/tlb.h"

namespace papirepro::sim {
namespace {

class RefTlb {
 public:
  explicit RefTlb(const TlbConfig& config)
      : config_(config), slots_(config.entries) {}

  bool access(std::uint64_t addr) {
    ++stats_.accesses;
    const std::uint64_t vpn = addr >> config_.page_bits;
    Slot* victim = &slots_.front();
    for (Slot& slot : slots_) {
      if (slot.valid && slot.vpn == vpn) {
        slot.lru = ++stamp_;
        return true;
      }
      if (!slot.valid) {
        victim = &slot;
      } else if (victim->valid && slot.lru < victim->lru) {
        victim = &slot;
      }
    }
    ++stats_.misses;
    *victim = {vpn, ++stamp_, true};
    return false;
  }

  void flush() {
    for (Slot& slot : slots_) slot.valid = false;
  }

  const TlbStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::uint64_t vpn = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  TlbConfig config_;
  std::vector<Slot> slots_;
  std::uint64_t stamp_ = 0;
  TlbStats stats_;
};

class RefCache {
 public:
  explicit RefCache(const CacheConfig& config)
      : config_(config),
        sets_(config.num_sets()),
        ways_(sets_ * config.associativity) {}

  bool access(std::uint64_t addr) {
    ++stats_.accesses;
    const std::uint64_t set = (addr / config_.line_bytes) % sets_;
    const std::uint64_t tag = addr / config_.line_bytes / sets_;
    Way* base = &ways_[set * config_.associativity];
    Way* victim = base;
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = ++stamp_;
        return true;
      }
      if (!way.valid) {
        victim = &way;
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    ++stats_.misses;
    *victim = {tag, ++stamp_, true};
    return false;
  }

  // The round-robin walk, with the cursor wrapped after the way shift.
  void pollute(std::uint32_t lines) {
    const auto size = static_cast<std::uint32_t>(ways_.size());
    for (std::uint32_t i = 0; i < lines; ++i) {
      ways_[cursor_].valid = false;
      cursor_ += config_.associativity;
      if (i % sets_ == sets_ - 1) ++cursor_;
      cursor_ %= size;
    }
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  CacheConfig config_;
  std::uint64_t sets_;
  std::vector<Way> ways_;
  std::uint64_t stamp_ = 0;
  CacheStats stats_;
  std::uint32_t cursor_ = 0;
};

enum class Stream { kSequential, kStrided, kCyclic, kRandom, kChase };

const char* stream_name(Stream s) {
  switch (s) {
    case Stream::kSequential: return "sequential";
    case Stream::kStrided: return "strided";
    case Stream::kCyclic: return "cyclic";
    case Stream::kRandom: return "random";
    case Stream::kChase: return "chase";
  }
  return "?";
}

constexpr Stream kStreams[] = {Stream::kSequential, Stream::kStrided,
                               Stream::kCyclic, Stream::kRandom,
                               Stream::kChase};

/// `n` 8-byte-aligned addresses over units of `unit` bytes (a page or a
/// line), sized against a model that holds `capacity` units.
std::vector<std::uint64_t> make_stream(Stream kind, std::uint64_t unit,
                                       std::uint64_t capacity,
                                       std::size_t n, std::uint64_t seed) {
  constexpr std::uint64_t kBase = 0x10000000;
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> out;
  out.reserve(n);
  switch (kind) {
    case Stream::kSequential:  // four accesses per unit
      for (std::size_t i = 0; i < n; ++i) out.push_back(kBase + i * unit / 4);
      break;
    case Stream::kStrided: {  // an odd stride over 4x the capacity
      const std::uint64_t span = 4 * capacity * unit;
      const std::uint64_t stride = 3 * unit + 8;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(kBase + (i * stride) % span / 8 * 8);
      }
      break;
    }
    case Stream::kCyclic:  // capacity + 1 units, round and round
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(kBase + (i % (capacity + 1)) * unit);
      }
      break;
    case Stream::kRandom: {
      const std::uint64_t span = 4 * capacity * unit;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(kBase + rng.next_below(span) / 8 * 8);
      }
      break;
    }
    case Stream::kChase: {
      // One random cycle (Sattolo) through 2x capacity nodes, one per
      // unit at a random offset, like make_pointer_chase's nodes.
      const std::uint64_t nodes = 2 * capacity;
      std::vector<std::uint64_t> next(nodes);
      for (std::uint64_t i = 0; i < nodes; ++i) next[i] = i;
      for (std::uint64_t i = nodes - 1; i > 0; --i) {
        std::swap(next[i], next[rng.next_below(i)]);
      }
      std::vector<std::uint64_t> offset(nodes);
      for (auto& o : offset) o = rng.next_below(unit) / 8 * 8;
      std::uint64_t cur = 0;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(kBase + cur * unit + offset[cur]);
        cur = next[cur];
      }
      break;
    }
  }
  return out;
}

// --- TLB ---------------------------------------------------------------

TEST(TlbReference, EveryAccessMatchesForOneToSixtyFourEntries) {
  for (std::uint32_t entries = 1; entries <= 64; ++entries) {
    for (Stream kind : kStreams) {
      SCOPED_TRACE(std::to_string(entries) + " entries, " +
                   stream_name(kind));
      const TlbConfig config{.entries = entries, .page_bits = 12,
                             .miss_latency = 30};
      Tlb fast(config);
      RefTlb ref(config);
      const auto stream =
          make_stream(kind, 4096, entries, 3000, 1000 + entries);
      Xoshiro256 flushes(entries);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (flushes.next_below(700) == 0) {
          fast.flush();
          ref.flush();
        }
        ASSERT_EQ(fast.access(stream[i]), ref.access(stream[i]))
            << "access " << i << " at 0x" << std::hex << stream[i];
      }
      EXPECT_EQ(fast.stats().accesses, ref.stats().accesses);
      EXPECT_EQ(fast.stats().misses, ref.stats().misses);
    }
  }
}

TEST(TlbReference, MachineDefaultsOnLongStreams) {
  for (std::uint32_t entries : {32u, 64u}) {  // ITLB, DTLB
    for (Stream kind : kStreams) {
      SCOPED_TRACE(std::to_string(entries) + " entries, " +
                   stream_name(kind));
      const TlbConfig config{.entries = entries};
      Tlb fast(config);
      RefTlb ref(config);
      for (std::uint64_t addr :
           make_stream(kind, 4096, entries, 40'000, 7 * entries)) {
        ASSERT_EQ(fast.access(addr), ref.access(addr));
      }
      EXPECT_EQ(fast.stats().accesses, ref.stats().accesses);
      EXPECT_EQ(fast.stats().misses, ref.stats().misses);
    }
  }
}

// --- Cache -------------------------------------------------------------

struct Shape {
  const char* name;
  CacheConfig config;
};

std::vector<Shape> cache_shapes() {
  auto c = [](std::uint32_t kb, std::uint32_t line, std::uint32_t assoc) {
    return CacheConfig{.size_bytes = kb * 1024, .line_bytes = line,
                       .associativity = assoc};
  };
  const MachineConfig d;
  return {
      // test_cache_properties.cpp's CacheGeometry shapes.
      {"8K/32B/1", c(8, 32, 1)},
      {"8K/64B/2", c(8, 64, 2)},
      {"16K/64B/4", c(16, 64, 4)},
      {"32K/64B/4", c(32, 64, 4)},
      {"32K/128B/8", c(32, 128, 8)},
      {"64K/64B/2", c(64, 64, 2)},
      {"256K/64B/8", c(256, 64, 8)},
      // The machine's default L1I, L1D and L2 (every platform's).
      {"l1i 16K/64B/2", d.l1i},
      {"l1d 32K/64B/4", d.l1d},
      {"l2 512K/64B/8", d.l2},
      // test_cache.cpp's small cache and the pollution test's L1D.
      {"1K/64B/2", c(1, 64, 2)},
      {"4K/64B/4", c(4, 64, 4)},
  };
}

TEST(CacheReference, EveryAccessMatchesWithPollutionInterleaved) {
  for (const Shape& shape : cache_shapes()) {
    const std::uint32_t sets = shape.config.num_sets();
    const std::uint32_t lines = sets * shape.config.associativity;
    // Call sizes around the set count, sim-x86's 48 and the whole cache.
    const std::uint32_t pollute_sizes[] = {1, 24, 48, sets - 1, sets,
                                           sets + 1, lines};
    for (Stream kind : kStreams) {
      SCOPED_TRACE(std::string(shape.name) + ", " + stream_name(kind));
      Cache fast(shape.config);
      RefCache ref(shape.config);
      const auto stream = make_stream(kind, shape.config.line_bytes, lines,
                                      20'000, lines + 31);
      Xoshiro256 pollution(lines);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (pollution.next_below(300) == 0) {
          const std::uint32_t n = pollute_sizes[pollution.next_below(
              std::size(pollute_sizes))];
          fast.pollute(n);
          ref.pollute(n);
        }
        ASSERT_EQ(fast.access(stream[i]), ref.access(stream[i]))
            << "access " << i << " at 0x" << std::hex << stream[i];
      }
      EXPECT_EQ(fast.stats().accesses, ref.stats().accesses);
      EXPECT_EQ(fast.stats().misses, ref.stats().misses);
    }
  }
}

}  // namespace
}  // namespace papirepro::sim
