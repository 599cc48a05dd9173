#include "substrate/host_substrate.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <thread>

namespace papirepro::papi {
namespace {

TEST(HostSubstrate, CountersUnavailable) {
  HostSubstrate sub;
  EXPECT_EQ(sub.num_counters(), 0u);
  auto ctx = sub.create_context().value();
  EXPECT_EQ(ctx->start().error(), Error::kNoCounters);
  EXPECT_EQ(ctx->program({}, {}).error(), Error::kNoCounters);
  EXPECT_FALSE(ctx->running());
  EXPECT_EQ(sub.preset_mapping(Preset::kTotCyc).error(), Error::kNoEvent);
  EXPECT_FALSE(sub.supports_multiplex());
  EXPECT_FALSE(sub.supports_estimation());
}

TEST(HostSubstrate, RealTimersAdvanceMonotonically) {
  HostSubstrate sub;
  const auto t0 = sub.real_usec();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto t1 = sub.real_usec();
  EXPECT_GT(t1, t0);
  EXPECT_GE(t1 - t0, 1500u);  // at least ~1.5ms elapsed
}

TEST(HostSubstrate, CycleTimerAdvances) {
  HostSubstrate sub;
  const auto c0 = sub.real_cycles();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(sub.real_cycles(), c0);
}

TEST(HostSubstrate, VirtualTimeAdvancesUnderCpuWork) {
  HostSubstrate sub;
  const auto v0 = sub.virt_usec();
  volatile double x = 1.0;
  for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001 + 0.5;
  EXPECT_GT(sub.virt_usec(), v0);
}

TEST(HostSubstrate, MemoryInfoPopulated) {
  HostSubstrate sub;
  auto info = sub.memory_info();
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info.value().total_bytes, 0u);
  EXPECT_GT(info.value().process_resident_bytes, 0u);
  EXPECT_GE(info.value().process_peak_bytes,
            info.value().process_resident_bytes / 2);
  EXPECT_GT(info.value().page_size_bytes, 0u);
}

TEST(HostSubstrate, PeakGrowsWithAllocation) {
  HostSubstrate sub;
  const MemoryInfo before = sub.memory_info().value();
  // Earlier work in this process may have left the peak far above what
  // is resident now, so a fixed-size block could fit under it.  Fresh
  // pages covering that gap plus 32 MiB, each touched, must lift the
  // peak wherever the test runs.
  constexpr std::size_t kMiB = 1024 * 1024;
  const std::size_t gap =
      before.process_peak_bytes > before.process_resident_bytes
          ? before.process_peak_bytes - before.process_resident_bytes
          : 0;
  const std::size_t bytes = gap + 32 * kMiB;
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(block, MAP_FAILED);
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  volatile char* touch = static_cast<char*>(block);
  for (std::size_t i = 0; i < bytes; i += page) touch[i] = 1;
  const auto after = sub.memory_info().value().process_peak_bytes;
  munmap(block, bytes);
  EXPECT_GE(after, before.process_peak_bytes + 16 * kMiB);
}

}  // namespace
}  // namespace papirepro::papi
