// Analytic oracles for the memory-hierarchy presets, measured through
// the whole PAPI stack: counts that follow from the platform's cache and
// TLB geometry alone (Röhl et al.'s validation method).
//   - A cold sequential walk of 8-byte loads over N bytes misses the L1
//     data cache once per line: N / line_bytes PAPI_L1_DCM.
//   - A cyclic one-load-per-page walk over more pages than the data TLB
//     holds misses on every load (LRU evicts the page needed next); over
//     no more pages than it holds, only the first pass misses.
// sim-x86, sim-power3, sim-ia64 and sim-t3e count both presets on a
// native event.  sim-alpha is not in the sweep: it maps both to
// ProfileMe natives that no counter can hold, which only sampling
// estimates serve (MemoryOraclesOnSimAlpha pins that).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/eventset.h"
#include "sim/kernels.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::SimFixture;

/// Runs `workload` to completion on `platform` with `preset` alone in a
/// direct, costs-off set and returns the count.
std::uint64_t count_alone(const sim::Workload& workload,
                          const pmu::PlatformDescription& platform,
                          Preset preset) {
  SimFixture f(workload, platform, {.charge_costs = false});
  EventSet& set = f.new_set();
  EXPECT_TRUE(set.add_preset(preset).ok())
      << preset_name(preset) << " on " << platform.name;
  EXPECT_TRUE(set.start().ok());
  f.machine->run();
  long long v = -1;
  EXPECT_TRUE(set.stop({&v, 1}).ok());
  return static_cast<std::uint64_t>(v);
}

class MemoryOracles : public ::testing::TestWithParam<const char*> {
 protected:
  const pmu::PlatformDescription& platform() const {
    const auto* p = pmu::find_platform(GetParam());
    EXPECT_NE(p, nullptr);
    return *p;
  }
};

TEST_P(MemoryOracles, ColdSequentialWalkMissesOncePerLine) {
  const sim::CacheConfig& l1d = platform().machine.l1d;
  // Twice the L1D, so the walk also evicts: a single pass still misses
  // each line exactly once.
  for (const std::uint64_t bytes :
       {std::uint64_t{8} * 1024, 2 * std::uint64_t{l1d.size_bytes}}) {
    const sim::Workload walk =
        sim::make_reduction(static_cast<std::int64_t>(bytes / 8));
    EXPECT_EQ(count_alone(walk, platform(), Preset::kL1Dcm),
              bytes / l1d.line_bytes)
        << bytes << " bytes on " << GetParam();
  }
}

TEST_P(MemoryOracles, PageWalkMissesTheDtlbByCoverage) {
  const sim::TlbConfig& dtlb = platform().machine.dtlb;
  ASSERT_EQ(dtlb.page_bits, sim::kPageBits);  // one load per TLB page
  const std::int64_t entries = dtlb.entries;
  constexpr std::int64_t kPasses = 5;
  struct Case {
    std::int64_t pages;
    std::uint64_t misses;
  };
  const Case cases[] = {
      // Fits: cold misses on the first pass only.
      {entries / 2, static_cast<std::uint64_t>(entries / 2)},
      {entries, static_cast<std::uint64_t>(entries)},
      // One page too many: every load misses.
      {entries + 1, static_cast<std::uint64_t>((entries + 1) * kPasses)},
      {2 * entries, static_cast<std::uint64_t>(2 * entries * kPasses)},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(count_alone(sim::make_page_walk(c.pages, kPasses), platform(),
                          Preset::kTlbDm),
              c.misses)
        << c.pages << " pages x " << kPasses << " on " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    CountingPlatforms, MemoryOracles,
    ::testing::Values("sim-x86", "sim-power3", "sim-ia64", "sim-t3e"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(MemoryOraclesOnSimAlpha, OnlySamplingServesThePresets) {
  SimFixture f(sim::make_reduction(1024), pmu::sim_alpha(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  EXPECT_FALSE(set.add_preset(Preset::kL1Dcm).ok());
  EXPECT_FALSE(set.add_preset(Preset::kTlbDm).ok());
}

}  // namespace
}  // namespace papirepro::papi
