// Stress tests for the two lock-free primitives every subsystem shares:
// the SPSC ring (sample and trace queues) and the single-writer seqlock
// (EventSet publication, the collector's snapshot region).  Each runs a
// real producer/writer thread against a consumer/reader with a
// monotonic-sequence oracle; the TSan CI job runs both suites.
#include <atomic>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "common/seqlock.h"
#include "common/spsc_ring.h"

namespace papirepro {
namespace {

TEST(SpscRingStress, ConsumerSeesInOrderSubsequenceAndDropsAddUp) {
  // A small ring against a fast producer: drops are certain, and every
  // record the consumer pops must still arrive in push order.
  constexpr std::uint64_t kAttempts = 200'000;
  SpscRing<std::uint64_t> ring(64);
  std::atomic<bool> done{false};
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kAttempts; ++i) {
      if (ring.try_push(i)) {
        ++pushed;
      } else {
        ++dropped;
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t popped = 0;
  std::uint64_t next_min = 0;  // every pop must exceed the previous one
  bool in_order = true;
  std::uint64_t value = 0;
  for (;;) {
    const bool finished = done.load(std::memory_order_acquire);
    while (ring.try_pop(value)) {
      in_order = in_order && value >= next_min;
      next_min = value + 1;
      ++popped;
    }
    if (finished) break;
  }
  producer.join();

  EXPECT_TRUE(in_order);
  EXPECT_EQ(pushed + dropped, kAttempts);
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(ring.pushed(), pushed);
  EXPECT_EQ(ring.dropped(), dropped);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(SeqLockStress, EverySuccessfulReadIsOneWholePublication) {
  // The writer publishes v into every cell, each scaled differently, for
  // v = 1, 2, ...; a consistent copy must show one v in all cells, and
  // successive copies may only move forward.
  constexpr std::uint64_t kPublications = 200'000;
  constexpr int kCells = 6;
  SeqLock lock;
  std::atomic<std::uint64_t> cells[kCells] = {};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t v = 1; v <= kPublications; ++v) {
      lock.write([&] {
        for (int c = 0; c < kCells; ++c) {
          cells[c].store(v * static_cast<std::uint64_t>(c + 1),
                         std::memory_order_relaxed);
        }
      });
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t copy[kCells] = {};
  std::uint64_t last = 0;
  bool whole = true;
  bool monotonic = true;
  const auto load = [&] {
    for (int c = 0; c < kCells; ++c) {
      copy[c] = cells[c].load(std::memory_order_relaxed);
    }
  };
  while (!done.load(std::memory_order_acquire)) {
    if (!lock.read(load)) continue;
    for (int c = 0; c < kCells; ++c) {
      whole = whole && copy[c] == copy[0] * static_cast<std::uint64_t>(c + 1);
    }
    monotonic = monotonic && copy[0] >= last;
    last = copy[0];
  }
  writer.join();

  // Once the writer is quiet the first attempt succeeds, on the last
  // publication.
  ASSERT_TRUE(lock.read(load));
  EXPECT_EQ(copy[0], kPublications);
  EXPECT_TRUE(whole);
  EXPECT_TRUE(monotonic);
}

}  // namespace
}  // namespace papirepro
