// FaultInjectingSubstrate decorator semantics: deterministic scripts and
// probability streams, runtime enable/disable transparency, narrow-width
// read masking, and fault observability counters.  The *hardening* of the
// portable layers against these faults is covered by
// tests/core/test_fault_hardening.cpp; this file pins down the decorator
// itself, since every hardening result is only as trustworthy as the
// injector is reproducible.
#include "substrate/fault_substrate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/eventset.h"
#include "pmu/platform.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::FaultFixture;
using papirepro::test::SimFixture;

FaultPlan no_fault_plan() { return FaultPlan{}; }

TEST(FaultSubstrate, DecoratedNameAndForwardedServices) {
  FaultFixture f(sim::make_saxpy(1000), pmu::sim_x86(), no_fault_plan());
  EXPECT_EQ(f.fault->name(), "fault+sim-x86");
  EXPECT_EQ(f.fault->num_counters(), f.substrate->num_counters());
  EXPECT_EQ(f.fault->platform(), f.substrate->platform());
  EXPECT_EQ(f.fault->counter_width_bits(), 64u);
  // The stateless event namespace is pure forwarding.
  ASSERT_TRUE(f.fault->native_by_name("L1D_MISS").ok());
  EXPECT_EQ(f.fault->native_by_name("L1D_MISS").value(),
            f.substrate->native_by_name("L1D_MISS").value());
}

TEST(FaultSubstrate, NoFaultPlanIsTransparent) {
  // An armed decorator with an all-zero plan must not change results.
  FaultFixture f(sim::make_saxpy(2000), pmu::sim_x86(), no_fault_plan());
  ASSERT_TRUE(f.fault->enabled());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_EQ(static_cast<std::uint64_t>(v[0]), f.machine->retired());
  EXPECT_EQ(f.fault->injected_count(FaultSite::kProgram), 0u);
  EXPECT_EQ(f.fault->injected_count(FaultSite::kRead), 0u);
  // The call sites were exercised, just never faulted.
  EXPECT_GE(f.fault->call_count(FaultSite::kProgram), 1u);
  EXPECT_GE(f.fault->call_count(FaultSite::kCreateContext), 1u);
}

TEST(FaultSubstrate, DisabledDecoratorForwardsAndScriptsDoNotAdvance) {
  FaultPlan plan;
  plan.at(FaultSite::kProgram) = {/*fail_times=*/100, /*probability=*/1.0,
                                  Error::kConflict};
  plan.at(FaultSite::kRead) = {100, 1.0, Error::kNoCounters};
  plan.counter_width_bits = 24;
  FaultFixture f(sim::make_saxpy(2000), pmu::sim_x86(), plan);
  f.fault->set_enabled(false);
  EXPECT_EQ(f.fault->counter_width_bits(), 64u);  // width fault off too
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_EQ(static_cast<std::uint64_t>(v[0]), f.machine->retired());
  EXPECT_EQ(f.fault->injected_count(FaultSite::kProgram), 0u);
  EXPECT_EQ(f.fault->injected_count(FaultSite::kRead), 0u);
}

TEST(FaultSubstrate, ScriptFailsExactlyNTimesThenSucceeds) {
  FaultPlan plan;
  plan.at(FaultSite::kCreateContext) = {/*fail_times=*/3,
                                        /*probability=*/0.0,
                                        Error::kNoCounters};
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
  // Drive the site directly: the first three creates fail with exactly
  // the scripted code, the fourth forwards.
  for (int i = 0; i < 3; ++i) {
    auto attempt = f.fault->create_context();
    ASSERT_FALSE(attempt.ok()) << "attempt " << i;
    EXPECT_EQ(attempt.error(), Error::kNoCounters);
  }
  auto attempt = f.fault->create_context();
  ASSERT_TRUE(attempt.ok());
  EXPECT_NE(attempt.value(), nullptr);
  EXPECT_EQ(f.fault->injected_count(FaultSite::kCreateContext), 3u);
  EXPECT_EQ(f.fault->call_count(FaultSite::kCreateContext), 4u);
}

TEST(FaultSubstrate, SetPlanRewindsScriptsAndStreams) {
  FaultPlan plan;
  plan.at(FaultSite::kCreateContext) = {1, 0.0, Error::kConflict};
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
  EXPECT_FALSE(f.fault->create_context().ok());
  EXPECT_TRUE(f.fault->create_context().ok());
  // Rewinding the same plan re-arms the scripted failure.
  f.fault->set_plan(plan);
  EXPECT_EQ(f.fault->injected_count(FaultSite::kCreateContext), 0u);
  EXPECT_FALSE(f.fault->create_context().ok());
  EXPECT_TRUE(f.fault->create_context().ok());
}

TEST(FaultSubstrate, ProbabilityStreamIsDeterministicPerSeed) {
  // Same plan => bit-identical failure sequence; different seed =>
  // (almost surely) a different one.  Observed through raw read() calls
  // on a context so no retry layer interferes.
  auto sequence = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.at(FaultSite::kRead) = {0, /*probability=*/0.5, Error::kSystem};
    FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
    auto context = f.fault->create_context();
    EXPECT_TRUE(context.ok());
    std::vector<bool> failed;
    std::uint64_t out[1] = {0};
    for (int i = 0; i < 64; ++i) {
      failed.push_back(!context.value()->read({out, 1}).ok());
    }
    return failed;
  };
  const auto a = sequence(42);
  const auto b = sequence(42);
  const auto c = sequence(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // The stream is a real coin, not all-heads or all-tails.
  int fails = 0;
  for (bool x : a) fails += x ? 1 : 0;
  EXPECT_GT(fails, 8);
  EXPECT_LT(fails, 56);
}

TEST(FaultSubstrate, NarrowWidthMasksRawReads) {
  FaultPlan plan;
  plan.counter_width_bits = 16;
  FaultFixture f(sim::make_saxpy(50'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  EXPECT_EQ(f.fault->counter_width_bits(), 16u);
  auto context = f.fault->create_context();
  ASSERT_TRUE(context.ok());
  const pmu::NativeEventCode code =
      f.fault->native_by_name("INST_RETIRED").value();
  const std::uint32_t slot = 0;
  ASSERT_TRUE(context.value()->program({&code, 1}, {&slot, 1}).ok());
  ASSERT_TRUE(context.value()->start().ok());
  f.machine->run();  // retires far more than 2^16 instructions
  std::uint64_t out[1] = {0};
  ASSERT_TRUE(context.value()->read({out, 1}).ok());
  EXPECT_LT(out[0], 1ULL << 16);  // wrapped, as narrow hardware would
  EXPECT_GT(f.machine->retired(), 1ULL << 16);
}

TEST(FaultSubstrate, InjectedErrorCodeIsConfigurable) {
  FaultPlan plan;
  plan.at(FaultSite::kStart) = {2, 0.0, Error::kSystem};
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
  auto context = f.fault->create_context();
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(context.value()->start().error(), Error::kSystem);
  EXPECT_EQ(context.value()->start().error(), Error::kSystem);
}

TEST(FaultSubstrate, TimerFaultsScriptable) {
  // kAddTimer script: the first arm attempt fails; the next succeeds.
  FaultPlan plan;
  plan.at(FaultSite::kAddTimer) = {1, 0.0, Error::kNoSupport};
  FaultFixture f(sim::make_saxpy(1000), pmu::sim_x86(), plan);
  auto context = f.fault->create_context();
  ASSERT_TRUE(context.ok());
  int fires = 0;
  auto arm = [&] {
    return context.value()->add_timer(1000, [&] { ++fires; });
  };
  EXPECT_EQ(arm().error(), Error::kNoSupport);
  auto timer = arm();
  ASSERT_TRUE(timer.ok());
  f.machine->run();
  EXPECT_GT(fires, 0);
}

// A kReset fault fails reset_counts() before it reaches the inner
// context, so the counts survive it.  The decorator keeps the default
// read_and_reset() — its own read() then its own reset_counts() — so
// that call meets both sites' faults, and a failed one zeroes nothing.
TEST(FaultSubstrate, ResetFaultLeavesTheCounts) {
  FaultPlan plan;
  plan.at(FaultSite::kReset) = {/*fail_times=*/2, /*probability=*/0.0,
                                Error::kSystem};
  FaultFixture f(sim::make_empty_loop(10'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  const pmu::NativeEventCode events[] = {
      f.substrate->native_by_name("INST_RETIRED").value()};
  const std::uint32_t counters[] = {0};
  auto context = f.fault->create_context();
  ASSERT_TRUE(context.ok());
  CounterContext& ctx = *context.value();
  ASSERT_TRUE(ctx.program(events, counters).ok());
  ASSERT_TRUE(ctx.start().ok());
  f.machine->run(1'000);

  std::uint64_t v = 0;
  EXPECT_EQ(ctx.reset_counts().error(), Error::kSystem);
  ASSERT_TRUE(ctx.read({&v, 1}).ok());
  EXPECT_EQ(v, 1'000u);
  v = 0;
  EXPECT_EQ(ctx.read_and_reset({&v, 1}).error(), Error::kSystem);
  ASSERT_TRUE(ctx.read({&v, 1}).ok());
  EXPECT_EQ(v, 1'000u);
  v = 0;
  ASSERT_TRUE(ctx.read_and_reset({&v, 1}).ok());
  EXPECT_EQ(v, 1'000u);
  ASSERT_TRUE(ctx.read({&v, 1}).ok());
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(f.fault->injected_count(FaultSite::kReset), 2u);
  EXPECT_EQ(f.fault->call_count(FaultSite::kReset), 3u);
  EXPECT_EQ(f.fault->call_count(FaultSite::kRead), 5u);
}

TEST(FaultSubstrate, TimerDropSwallowsFiringsDeterministically) {
  auto count_fires = [](double drop, std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.timer_drop_probability = drop;
    FaultFixture f(sim::make_saxpy(50'000), pmu::sim_x86(), plan,
                   {.charge_costs = false});
    auto context = f.fault->create_context();
    EXPECT_TRUE(context.ok());
    int fires = 0;
    EXPECT_TRUE(context.value()->add_timer(500, [&] { ++fires; }).ok());
    f.machine->run();
    return fires;
  };
  const int full = count_fires(0.0, 7);
  const int half_a = count_fires(0.5, 7);
  const int half_b = count_fires(0.5, 7);
  ASSERT_GT(full, 50);
  EXPECT_EQ(half_a, half_b);  // deterministic drops
  EXPECT_LT(half_a, full);
  EXPECT_GT(half_a, 0);
}

TEST(FaultSubstrate, FullRunMatchesUndecoratedRunWhenQuiet) {
  // End-to-end cross-check: a quiet decorator produces byte-identical
  // counts to no decorator at all.
  std::vector<long long> plain(2), decorated(2);
  {
    SimFixture f(sim::make_matmul(24), pmu::sim_x86());
    papi::EventSet& set = f.new_set();
    ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
    ASSERT_TRUE(set.add_named("PAPI_L1_DCM").ok());
    ASSERT_TRUE(set.start().ok());
    f.machine->run();
    ASSERT_TRUE(set.stop(plain).ok());
  }
  {
    FaultFixture f(sim::make_matmul(24), pmu::sim_x86(), no_fault_plan());
    papi::EventSet& set = f.new_set();
    ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
    ASSERT_TRUE(set.add_named("PAPI_L1_DCM").ok());
    ASSERT_TRUE(set.start().ok());
    f.machine->run();
    ASSERT_TRUE(set.stop(decorated).ok());
  }
  EXPECT_EQ(plain, decorated);
}

}  // namespace
}  // namespace papirepro::papi
