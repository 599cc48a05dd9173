#include "substrate/sim_substrate.h"

#include <gtest/gtest.h>

#include "core/library.h"
#include "sim/kernels.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

pmu::NativeEventCode code_of(const pmu::PlatformDescription& p,
                             std::string_view n) {
  const pmu::NativeEvent* e = p.find_event(n);
  EXPECT_NE(e, nullptr) << n;
  return e->code;
}

TEST(SimSubstrate, EndToEndCounting) {
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_saxpy(1000);
  sim::Machine m(w.program, p.machine);
  w.setup(m);
  SimSubstrate sub(m, p, {.charge_costs = false});

  const pmu::NativeEventCode events[] = {code_of(p, "FP_FMA_RETIRED"),
                                         code_of(p, "LD_RETIRED")};
  auto assignment = sub.allocate(events, {});
  ASSERT_TRUE(assignment.ok());
  auto ctx = sub.create_context().value();
  ASSERT_TRUE(ctx->program(events, assignment.value()).ok());
  ASSERT_TRUE(ctx->start().ok());
  m.run();
  ASSERT_TRUE(ctx->stop().ok());
  std::uint64_t out[2];
  ASSERT_TRUE(ctx->read(out).ok());
  EXPECT_EQ(out[0], 1000u);
  EXPECT_EQ(out[1], 2000u);
}

TEST(SimSubstrate, ReadChargesSystemCallCost) {
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_empty_loop(100);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p);

  const pmu::NativeEventCode events[] = {code_of(p, "INST_RETIRED")};
  std::uint32_t counters[] = {0};
  auto ctx = sub.create_context().value();
  ASSERT_TRUE(ctx->program(events, counters).ok());
  ASSERT_TRUE(ctx->start().ok());
  const std::uint64_t before = m.overhead_cycles();
  std::uint64_t out[1];
  ASSERT_TRUE(ctx->read(out).ok());
  EXPECT_EQ(m.overhead_cycles() - before, p.costs.read_cost_cycles);
}

TEST(SimSubstrate, CostChargingCanBeDisabled) {
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_empty_loop(100);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p, {.charge_costs = false});
  const pmu::NativeEventCode events[] = {code_of(p, "INST_RETIRED")};
  std::uint32_t counters[] = {0};
  auto ctx = sub.create_context().value();
  ASSERT_TRUE(ctx->program(events, counters).ok());
  ASSERT_TRUE(ctx->start().ok());
  std::uint64_t out[1];
  ASSERT_TRUE(ctx->read(out).ok());
  ASSERT_TRUE(ctx->stop().ok());
  EXPECT_EQ(m.overhead_cycles(), 0u);
}

TEST(SimSubstrate, AllocateSolvesConstrainedInstance) {
  // L1D_MISS {0,1}, L2_MISS {0}, DTLB_MISS {1,2}: greedy-hostile order.
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p);
  const pmu::NativeEventCode events[] = {code_of(p, "L1D_MISS"),
                                         code_of(p, "L2_MISS"),
                                         code_of(p, "DTLB_MISS")};
  auto assignment = sub.allocate(events, {});
  ASSERT_TRUE(assignment.ok());
  EXPECT_EQ(assignment.value()[1], 0u);  // L2 has no choice
  EXPECT_EQ(assignment.value()[0], 1u);
  EXPECT_EQ(assignment.value()[2], 2u);
}

TEST(SimSubstrate, AllocateConflictWhenOvercommitted) {
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p);
  // Three events restricted to counters {0,1}.
  const pmu::NativeEventCode events[] = {code_of(p, "L1D_MISS"),
                                         code_of(p, "L1D_ACCESS"),
                                         code_of(p, "LD_RETIRED")};
  EXPECT_EQ(sub.allocate(events, {}).error(), Error::kConflict);
}

TEST(SimSubstrate, GroupAllocationOnPower3) {
  const auto& p = pmu::sim_power3();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p);

  // Compatible within group 1 "cache".
  const pmu::NativeEventCode ok_events[] = {code_of(p, "PM_DC_MISS"),
                                            code_of(p, "PM_L2_MISS")};
  auto ok = sub.allocate(ok_events, {});
  ASSERT_TRUE(ok.ok());
  auto ctx = sub.create_context().value();
  ASSERT_TRUE(ctx->program(ok_events, ok.value()).ok());

  // PM_FPU_INS and PM_DC_MISS never share a group: conflict.
  const pmu::NativeEventCode bad_events[] = {code_of(p, "PM_FPU_INS"),
                                             code_of(p, "PM_DC_MISS")};
  EXPECT_EQ(sub.allocate(bad_events, {}).error(), Error::kConflict);
}

TEST(SimSubstrate, EstimationServicesSampledEvents) {
  const auto& p = pmu::sim_alpha();
  test::SimFixture f(sim::make_saxpy(100'000), p);
  sim::Machine& m = *f.machine;
  SimSubstrate& sub = *f.substrate;

  const pmu::NativeEventCode events[] = {
      code_of(p, "RETIRED_INSTRUCTIONS"), code_of(p, "PME_FMA")};
  // Without estimation mode: conflict (PME events are sampled-only).
  EXPECT_EQ(sub.allocate(events, {}).error(), Error::kConflict);

  ASSERT_TRUE(sub.set_estimation(true).ok());
  auto assignment = sub.allocate(events, {});
  ASSERT_TRUE(assignment.ok());
  EXPECT_GE(assignment.value()[1], SimSubstrate::kSampledBase);
  auto ctx = sub.create_context().value();
  ASSERT_TRUE(ctx->program(events, assignment.value()).ok());
  ASSERT_TRUE(ctx->start().ok());
  m.run();
  ASSERT_TRUE(ctx->stop().ok());
  std::uint64_t out[2];
  ASSERT_TRUE(ctx->read(out).ok());
  EXPECT_EQ(out[0], m.retired());
  // Estimated FMA count within 10% of truth on a long run.
  EXPECT_NEAR(static_cast<double>(out[1]), 100'000.0, 10'000.0);
  EXPECT_NE(sub.sampling_engine(), nullptr);
  EXPECT_TRUE(f.new_set().add_named("PME_FMA").ok());

  // And back: with estimation off again, the substrate refuses PME_FMA,
  // and so does an EventSet built after the toggle.
  ASSERT_TRUE(sub.set_estimation(false).ok());
  EXPECT_EQ(sub.allocate(events, {}).error(), Error::kConflict);
  EXPECT_EQ(f.new_set().add_named("PME_FMA").error(), Error::kConflict);
}

TEST(SimSubstrate, OverflowRoutesThroughEventIndex) {
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_empty_loop(2000);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p);
  const pmu::NativeEventCode events[] = {code_of(p, "CPU_CLK_UNHALTED"),
                                         code_of(p, "INST_RETIRED")};
  auto assignment = sub.allocate(events, {});
  ASSERT_TRUE(assignment.ok());
  auto ctx = sub.create_context().value();
  ASSERT_TRUE(ctx->program(events, assignment.value()).ok());
  int fires = 0;
  ASSERT_TRUE(ctx->set_overflow(1, 1000,
                                [&](const SubstrateOverflow& o) {
                                  EXPECT_EQ(o.event_index, 1u);
                                  ++fires;
                                })
                  .ok());
  ASSERT_TRUE(ctx->start().ok());
  m.run();
  EXPECT_GT(fires, 0);
  // Each overflow charged handler cycles.
  EXPECT_GE(m.overhead_cycles(),
            static_cast<std::uint64_t>(fires) *
                p.costs.overflow_handler_cost_cycles);
}

TEST(SimSubstrate, TimersTrackMachineClock) {
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_empty_loop(50'000);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p);
  EXPECT_EQ(sub.real_cycles(), 0u);
  m.run();
  EXPECT_EQ(sub.real_cycles(), m.cycles());
  EXPECT_EQ(sub.real_usec(), m.microseconds());
  EXPECT_EQ(sub.virt_usec(), sub.real_usec());
}

TEST(SimSubstrate, MemoryInfoReflectsTouchedPages) {
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_saxpy(4096);  // 2 arrays x 32 KiB
  sim::Machine m(w.program, p.machine);
  w.setup(m);
  SimSubstrate sub(m, p);
  auto info = sub.memory_info();
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info.value().process_resident_bytes, 2 * 4096 * 8u);
  EXPECT_EQ(info.value().page_size_bytes, sim::kPageSize);
  EXPECT_GT(info.value().total_bytes, info.value().process_resident_bytes);
}

TEST(SimSubstrate, PriorityAllocationDropsLowWeightEvent) {
  // Three events competing for the two "low" counters {0,1}: with
  // priorities, the max-weight matcher keeps the two heaviest — the
  // paper's "maximum weight matching if some events have higher
  // priority than others."
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p);
  const pmu::NativeEventCode events[] = {code_of(p, "L1D_MISS"),
                                         code_of(p, "L1D_ACCESS"),
                                         code_of(p, "LD_RETIRED")};
  const int priorities[] = {5, 1, 9};
  auto instance = sub.translate_allocation(events, priorities);
  ASSERT_TRUE(instance.ok());
  const AllocationResult r = solve_max_weight(instance.value());
  EXPECT_EQ(r.mapped_count, 2u);
  EXPECT_NE(r.assignment[0], AllocationResult::kUnassigned);  // weight 5
  EXPECT_EQ(r.assignment[1], AllocationResult::kUnassigned);  // weight 1
  EXPECT_NE(r.assignment[2], AllocationResult::kUnassigned);  // weight 9
}

TEST(SimSubstrate, DerivedPresetOnGroupPlatformEndToEnd) {
  // PAPI_FP_OPS on sim-power3 needs three natives that only co-exist in
  // the "fp" group: the whole path (mapping -> group allocation ->
  // signed combination) in one shot.
  const auto& p = pmu::sim_power3();
  sim::Workload w = sim::make_fcvt_mixed(5'000);
  sim::Machine m(w.program, p.machine);
  w.setup(m);
  auto subp = std::make_unique<SimSubstrate>(
      m, p, SimSubstrateOptions{.charge_costs = false});
  Library library(std::move(subp));
  auto handle = library.create_event_set();
  EventSet* set = library.event_set(handle.value()).value();
  ASSERT_TRUE(set->add_preset(Preset::kFpOps).ok());
  ASSERT_TRUE(set->start().ok());
  m.run();
  long long v = 0;
  ASSERT_TRUE(set->stop({&v, 1}).ok());
  EXPECT_EQ(v, 5'000);  // converts excluded by the derived mapping
}

TEST(SimSubstrate, NativeNameLookups) {
  const auto& p = pmu::sim_x86();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  SimSubstrate sub(m, p);
  auto code = sub.native_by_name("INST_RETIRED");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(sub.native_name(code.value()).value(), "INST_RETIRED");
  EXPECT_EQ(sub.native_by_name("NOPE").error(), Error::kNoEvent);
}

}  // namespace
}  // namespace papirepro::papi
