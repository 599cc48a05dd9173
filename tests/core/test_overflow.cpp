#include <gtest/gtest.h>

#include "core/eventset.h"
#include "core/profile.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::SimFixture;

TEST(Overflow, HandlerFiresPerThreshold) {
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  int fires = 0;
  ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kFmaIns), 1000,
                               [&](EventSet&, const OverflowEvent& ev) {
                                 EXPECT_EQ(ev.event,
                                           EventId::preset(Preset::kFmaIns));
                                 ++fires;
                               })
                  .ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  EXPECT_EQ(fires, 10);
}

TEST(Overflow, DerivedEventRejected) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFpOps).ok());  // derived on x86
  EXPECT_EQ(set.set_overflow(EventId::preset(Preset::kFpOps), 100,
                             [](EventSet&, const OverflowEvent&) {})
                .error(),
            Error::kInvalid);
}

TEST(Overflow, RequiresMemberEventAndValidArgs) {
  // set_overflow() and profil() arm through one path, so each rejection
  // reads the same code from both entry points.
  const EventId tot_ins = EventId::preset(Preset::kTotIns);
  struct Case {
    const char* what;
    bool multiplexed;
    bool running;
    EventId id;
    std::uint64_t threshold;
    Error expected;
  };
  const Case cases[] = {
      {"running", false, true, tot_ins, 100, Error::kIsRunning},
      {"multiplexed", true, false, tot_ins, 100, Error::kConflict},
      {"off-core", false, false, EventId::preset(Preset::kTotIns, 1), 100,
       Error::kNoSupport},
      {"zero threshold", false, false, tot_ins, 0, Error::kInvalid},
      {"not a member", false, false, EventId::preset(Preset::kTotCyc), 100,
       Error::kNoEvent},
      {"derived", false, false, EventId::preset(Preset::kFpOps), 100,
       Error::kInvalid},  // PAPI_FP_OPS is derived on sim-x86
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
    EventSet& set = f.new_set();
    if (c.multiplexed) {
      ASSERT_TRUE(set.enable_multiplex().ok());
    }
    ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
    ASSERT_TRUE(set.add_preset(Preset::kFpOps).ok());
    if (c.running) {
      ASSERT_TRUE(set.start().ok());
    }
    ProfileBuffer buf(sim::kTextBase,
                      f.workload.program.size() * sim::kInstrBytes);
    EXPECT_EQ(set.set_overflow(c.id, c.threshold,
                               [](EventSet&, const OverflowEvent&) {})
                  .error(),
              c.expected);
    EXPECT_EQ(set.profil(buf, c.id, c.threshold).error(), c.expected);
    if (c.running) {
      ASSERT_TRUE(set.stop().ok());
    }
  }

  // Only set_overflow() takes a handler, and it refuses a null one.
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  EXPECT_EQ(set.set_overflow(tot_ins, 100, nullptr).error(),
            Error::kInvalid);
}

TEST(Overflow, ClearStopsDispatch) {
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  int fires = 0;
  ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kFmaIns), 1000,
                               [&](EventSet&, const OverflowEvent&) {
                                 ++fires;
                               })
                  .ok());
  ASSERT_TRUE(set.clear_overflow(EventId::preset(Preset::kFmaIns)).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  EXPECT_EQ(fires, 0);
}

TEST(Overflow, SkiddedPcDiffersFromPreciseOnOutOfOrder) {
  // sim-x86 has geometric skid with min 3: the delivered PC is never the
  // causing pointer-chase load.
  SimFixture f(sim::make_pointer_chase(1024, 60'000, 3), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kL1Dcm).ok());
  const std::uint64_t load_pc = sim::instr_address(3);
  int total = 0, observed_on_load = 0;
  ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kL1Dcm), 500,
                               [&](EventSet&, const OverflowEvent& ev) {
                                 ++total;
                                 EXPECT_FALSE(ev.has_precise);
                                 if (ev.pc_observed == load_pc) {
                                   ++observed_on_load;
                                 }
                               })
                  .ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  ASSERT_GT(total, 20);
  // The chase loop is 3 instructions; with skid >= 3 the delivered PC is
  // uniform-ish over the loop, so well under half land on the load.
  EXPECT_LT(static_cast<double>(observed_on_load) / total, 0.6);
}

TEST(Overflow, EarDeliversPreciseOnIa64) {
  SimFixture f(sim::make_pointer_chase(1024, 60'000, 3), pmu::sim_ia64(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kL1Dcm).ok());
  const std::uint64_t load_pc = sim::instr_address(3);
  int total = 0, precise_on_load = 0;
  ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kL1Dcm), 500,
                               [&](EventSet&, const OverflowEvent& ev) {
                                 ++total;
                                 EXPECT_TRUE(ev.has_precise);
                                 if (ev.pc_precise == load_pc) {
                                   ++precise_on_load;
                                 }
                               })
                  .ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  ASSERT_GT(total, 20);
  EXPECT_EQ(precise_on_load, total);
}

TEST(Profil, BucketsConcentrateOnHotLoop) {
  SimFixture f(sim::make_saxpy(50'000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ProfileBuffer buf(sim::kTextBase,
                    f.workload.program.size() * sim::kInstrBytes);
  ASSERT_TRUE(
      set.profil(buf, EventId::preset(Preset::kTotIns), 500).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());

  EXPECT_GT(buf.total_samples(), 500u);
  // Nearly all samples land in the 8-instruction loop body (indices
  // 5..12), not the 5-instruction prologue.
  std::uint64_t loop_samples = 0;
  for (std::size_t b = 5; b <= 12 && b < buf.num_buckets(); ++b) {
    loop_samples += buf.buckets()[b];
  }
  EXPECT_GT(static_cast<double>(loop_samples) /
                static_cast<double>(buf.total_samples()),
            0.95);
}

TEST(Profil, StopProfilByClearing) {
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ProfileBuffer buf(sim::kTextBase, 4096);
  ASSERT_TRUE(
      set.profil(buf, EventId::preset(Preset::kTotIns), 500).ok());
  ASSERT_TRUE(set.profil_stop(EventId::preset(Preset::kTotIns)).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  EXPECT_EQ(buf.total_samples(), 0u);
}

TEST(Overflow, UserHandlerAndProfilCoexistOnDifferentEvents) {
  // One EventSet, two armed events: a user overflow handler on FMA and
  // SVR4 profiling on total instructions — both must dispatch.
  SimFixture f(sim::make_saxpy(20'000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());

  int fma_fires = 0;
  ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kFmaIns), 2'000,
                               [&](EventSet&, const OverflowEvent&) {
                                 ++fma_fires;
                               })
                  .ok());
  ProfileBuffer buf(sim::kTextBase,
                    f.workload.program.size() * sim::kInstrBytes);
  ASSERT_TRUE(
      set.profil(buf, EventId::preset(Preset::kTotIns), 1'000).ok());

  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  EXPECT_EQ(fma_fires, 10);
  EXPECT_GE(buf.total_samples(), 150u);
}

TEST(Overflow, ReplacingHandlerKeepsSingleDispatch) {
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  int first = 0, second = 0;
  ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kFmaIns), 1'000,
                               [&](EventSet&, const OverflowEvent&) {
                                 ++first;
                               })
                  .ok());
  // Re-arm with a new handler: the old one must be fully replaced.
  ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kFmaIns), 1'000,
                               [&](EventSet&, const OverflowEvent&) {
                                 ++second;
                               })
                  .ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 10);
}

TEST(Profil, OverflowHandlerChargesCost) {
  // Interrupt-driven profiling is not free: each overflow charges the
  // handler cost ("The cost of processing counter overflow interrupts
  // can be a significant source of overhead in sampling-based
  // profiling").
  SimFixture f(sim::make_saxpy(20'000), pmu::sim_power3());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ProfileBuffer buf(sim::kTextBase, 4096);
  ASSERT_TRUE(
      set.profil(buf, EventId::preset(Preset::kTotIns), 1000).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  EXPECT_GE(f.machine->overhead_cycles(),
            buf.total_samples() *
                pmu::sim_power3().costs.overflow_handler_cost_cycles);
}

}  // namespace
}  // namespace papirepro::papi
