// Zero-allocation guarantees on the steady-state counter hot paths.
// Every scratch buffer (raw snapshots, mux live-slice reads, accum
// intermediates, the stop() snapshot) is sized by preallocate_scratch()
// at start(), so read()/accum()/stop() and multiplex slice rotation must
// not touch the heap once counting is under way.  These tests pin that
// property with the operator-new counting hook from alloc_hook.cpp —
// the regression they guard is exactly the per-call vector churn this
// repo's hot paths used to pay.
#include <vector>

#include <gtest/gtest.h>

#include "core/eventset.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::AllocationGuard;
using papirepro::test::FaultFixture;
using papirepro::test::SimFixture;

constexpr int kWarmup = 64;
constexpr int kIters = 2000;

/// Warms `op` (so lazily-sized capacity fills outside the measured
/// region), then returns how many heap allocations `iters` calls made.
template <typename Op>
std::uint64_t allocations_over(int iters, Op&& op) {
  for (int i = 0; i < kWarmup; ++i) op();
  AllocationGuard guard;
  for (int i = 0; i < iters; ++i) op();
  return guard.delta();
}

TEST(HotPathAlloc, DirectReadAndAccumAllocationFree) {
  SimFixture f(sim::make_empty_loop(10), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  ASSERT_TRUE(set.start().ok());

  std::vector<long long> v(set.num_events());
  EXPECT_EQ(allocations_over(kIters, [&] { (void)set.read(v); }), 0u);
  EXPECT_EQ(allocations_over(kIters, [&] { (void)set.accum(v); }), 0u);
  EXPECT_TRUE(set.stop().ok());
}

TEST(HotPathAlloc, FoldedNarrowCounterReadAllocationFree) {
  // 24-bit counters through the fault decorator: every read runs the
  // wraparound-folding loop on top of the decorated read.
  FaultPlan plan;
  plan.counter_width_bits = 24;
  FaultFixture f(sim::make_empty_loop(10), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  ASSERT_TRUE(set.start().ok());

  std::vector<long long> v(set.num_events());
  EXPECT_EQ(allocations_over(kIters, [&] { (void)set.read(v); }), 0u);
  EXPECT_TRUE(set.stop().ok());
}

TEST(HotPathAlloc, MultiplexedReadAndAccumAllocationFree) {
  // Timer-driven multiplexing over a real workload; after the run the
  // estimation reads (scale-up over every group) must be heap-free.
  SimFixture f(sim::make_saxpy(50'000), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.enable_multiplex(/*slice_cycles=*/20'000).ok());
  for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                           "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_L1_DCA"}) {
    ASSERT_TRUE(set.add_named(name).ok()) << name;
  }
  ASSERT_TRUE(set.start().ok());
  f.machine->run();  // rotate through every group at least once

  std::vector<long long> v(set.num_events());
  EXPECT_EQ(allocations_over(kIters, [&] { (void)set.read(v); }), 0u);
  EXPECT_EQ(allocations_over(kIters, [&] { (void)set.accum(v); }), 0u);
  EXPECT_TRUE(set.stop().ok());
}

TEST(HotPathAlloc, SequentialMuxRotationAllocationFree) {
  // Timer service scripted to fail -> degradation::kMuxSequential, so
  // every read() drives a full rotate_mux(): close the slice, read it,
  // reprogram the next group, restart.  The rotation itself is the
  // hottest reallocation risk (it used to regather each group's event
  // list per slice) and must be heap-free too.
  FaultPlan plan;
  plan.at(FaultSite::kAddTimer).fail_times = 1'000;
  FaultFixture f(sim::make_saxpy(50'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.enable_multiplex(/*slice_cycles=*/20'000).ok());
  for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                           "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_L1_DCA"}) {
    ASSERT_TRUE(set.add_named(name).ok()) << name;
  }
  ASSERT_TRUE(set.start().ok());
  ASSERT_NE(set.degradations() & degradation::kMuxSequential, 0u);
  f.machine->run();

  std::vector<long long> v(set.num_events());
  EXPECT_EQ(allocations_over(kIters, [&] { (void)set.read(v); }), 0u);
  EXPECT_TRUE(set.stop().ok());
}

TEST(HotPathAlloc, StopAllocationFree) {
  // stop() snapshots into the preallocated raw buffer and releases the
  // thread context through the thread-local fast path: after one full
  // warm-up cycle it performs no allocation either.
  SimFixture f(sim::make_empty_loop(10), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  std::vector<long long> v(set.num_events());

  // Warm-up cycle: warms the start-path caches.
  ASSERT_TRUE(set.start().ok());
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.stop(v).ok());

  ASSERT_TRUE(set.start().ok());
  ASSERT_TRUE(set.read(v).ok());
  AllocationGuard guard;
  const Status status = set.stop(v);
  const std::uint64_t delta = guard.delta();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(delta, 0u);
}

TEST(HotPathAlloc, ReadAfterStopAllocationFree) {
  // Post-stop reads serve values from the stop snapshot — also a
  // no-allocation path.
  SimFixture f(sim::make_empty_loop(10), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.start().ok());
  ASSERT_TRUE(set.stop().ok());

  std::vector<long long> v(set.num_events());
  EXPECT_EQ(allocations_over(kIters, [&] { (void)set.read(v); }), 0u);
}

}  // namespace
}  // namespace papirepro::papi
