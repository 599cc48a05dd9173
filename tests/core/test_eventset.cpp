#include "core/eventset.h"

#include <gtest/gtest.h>

#include "core/library.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::SimFixture;

TEST(EventSet, AddQueryRemove) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& set = f.new_set();
  EXPECT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  EXPECT_TRUE(set.add_preset(Preset::kTotIns).ok());
  EXPECT_EQ(set.num_events(), 2u);
  // Duplicate add rejected.
  EXPECT_EQ(set.add_preset(Preset::kTotCyc).error(), Error::kConflict);
  EXPECT_TRUE(set.remove_event(EventId::preset(Preset::kTotCyc)).ok());
  EXPECT_EQ(set.num_events(), 1u);
  EXPECT_EQ(set.remove_event(EventId::preset(Preset::kTotCyc)).error(),
            Error::kNoEvent);
}

TEST(EventSet, AddByName) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& set = f.new_set();
  EXPECT_TRUE(set.add_named("PAPI_FP_OPS").ok());
  EXPECT_TRUE(set.add_named("L1D_MISS").ok());  // native name
  EXPECT_EQ(set.add_named("NO_SUCH").error(), Error::kNoEvent);
}

TEST(EventSet, UnmappedPresetRejected) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_ia64());
  EventSet& set = f.new_set();
  // PAPI_FP_INS has no ia64 mapping.
  EXPECT_EQ(set.add_preset(Preset::kFpIns).error(), Error::kNoEvent);
}

TEST(EventSet, ConflictSurfacesAtAddTime) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& set = f.new_set();
  // x86 "low" counters {0,1} host all of these:
  EXPECT_TRUE(set.add_named("L1D_MISS").ok());
  EXPECT_TRUE(set.add_named("L1D_ACCESS").ok());
  // Third low-counter event cannot fit without multiplexing.
  EXPECT_EQ(set.add_named("LD_RETIRED").error(), Error::kConflict);
  // The set is unchanged after the failed add.
  EXPECT_EQ(set.num_events(), 2u);
  std::vector<long long> out(2);
  EXPECT_TRUE(set.start().ok());
  EXPECT_TRUE(set.stop(out).ok());
}

TEST(EventSet, StartStopReadBasic) {
  SimFixture f(sim::make_saxpy(1000), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.start().ok());
  EXPECT_TRUE(set.running());
  f.machine->run();
  std::vector<long long> values(2);
  ASSERT_TRUE(set.stop(values).ok());
  EXPECT_EQ(values[0], 1000);
  EXPECT_EQ(values[1], static_cast<long long>(f.machine->retired()));
}

TEST(EventSet, SharedNativesAcrossDerivedEvents) {
  // PAPI_BR_INS and PAPI_BR_PRC share the BR_INS native; together with
  // BR_MSP they need only 2 physical counters.
  SimFixture f(sim::make_branchy(5000, 3), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kBrIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kBrMsp).ok());
  ASSERT_TRUE(set.add_preset(Preset::kBrPrc).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> v(3);
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_EQ(v[0], 10000);          // 2n conditional branches
  EXPECT_EQ(v[2], v[0] - v[1]);    // PRC = INS - MSP exactly
  EXPECT_GT(v[1], 0);
}

TEST(EventSet, ReadWhileRunningAndAfterStop) {
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run(4000);
  std::vector<long long> mid(1);
  ASSERT_TRUE(set.read(mid).ok());
  EXPECT_GT(mid[0], 0);
  f.machine->run();
  std::vector<long long> fin(1);
  ASSERT_TRUE(set.stop(fin).ok());
  EXPECT_EQ(fin[0], 10'000);
  // Post-stop read returns the stop snapshot.
  std::vector<long long> again(1);
  ASSERT_TRUE(set.read(again).ok());
  EXPECT_EQ(again[0], fin[0]);
}

TEST(EventSet, AccumAddsAndResets) {
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  ASSERT_TRUE(set.start().ok());
  std::vector<long long> acc(1, 0);
  f.machine->run(4000);
  ASSERT_TRUE(set.accum(acc).ok());
  f.machine->run();
  ASSERT_TRUE(set.accum(acc).ok());
  ASSERT_TRUE(set.stop().ok());
  EXPECT_EQ(acc[0], 10'000);
}

TEST(EventSet, ResetZeroesCounts) {
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run(4000);
  ASSERT_TRUE(set.reset().ok());
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_LT(v[0], 10'000);
  EXPECT_GT(v[0], 0);
}

TEST(EventSet, ShortStopBufferLeavesTheSetRunning) {
  // stop() checks `out` before it stops, as read() does: a short buffer
  // is the caller's error, and the counts must survive it.
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kLdIns).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run(4000);
  std::vector<long long> shorter(1);
  EXPECT_EQ(set.stop(shorter).error(), Error::kInvalid);
  EXPECT_TRUE(set.running());
  f.machine->run();
  std::vector<long long> v(2);
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_EQ(v[0], 10'000);
  EXPECT_EQ(v[1], 20'000);
}

TEST(EventSet, StateMachineErrors) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& set = f.new_set();
  EXPECT_EQ(set.start().error(), Error::kInvalid);  // empty set
  ASSERT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  EXPECT_EQ(set.stop().error(), Error::kNotRunning);
  std::vector<long long> v(1);
  EXPECT_EQ(set.read(v).error(), Error::kNotRunning);
  ASSERT_TRUE(set.start().ok());
  EXPECT_EQ(set.start().error(), Error::kIsRunning);
  EXPECT_EQ(set.add_preset(Preset::kTotIns).error(), Error::kIsRunning);
  EXPECT_EQ(set.remove_event(EventId::preset(Preset::kTotCyc)).error(),
            Error::kIsRunning);
  ASSERT_TRUE(set.stop().ok());
}

TEST(EventSet, NoOverlappingRunningSets) {
  // The PAPI 3 rule: one running EventSet per substrate.
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& a = f.new_set();
  EventSet& b = f.new_set();
  ASSERT_TRUE(a.add_preset(Preset::kTotCyc).ok());
  ASSERT_TRUE(b.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(a.start().ok());
  EXPECT_EQ(b.start().error(), Error::kIsRunning);
  ASSERT_TRUE(a.stop().ok());
  EXPECT_TRUE(b.start().ok());
  ASSERT_TRUE(b.stop().ok());
}

TEST(EventSet, DestroyRunningSetRejected) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  auto handle = f.library->create_event_set();
  EventSet* set = f.library->event_set(handle.value()).value();
  ASSERT_TRUE(set->add_preset(Preset::kTotCyc).ok());
  ASSERT_TRUE(set->start().ok());
  EXPECT_EQ(f.library->destroy_event_set(handle.value()).error(),
            Error::kIsRunning);
  ASSERT_TRUE(set->stop().ok());
  EXPECT_TRUE(f.library->destroy_event_set(handle.value()).ok());
  EXPECT_EQ(f.library->event_set(handle.value()).error(),
            Error::kNoEventSet);
}

TEST(EventSet, RawNativeCountsAreNotNormalized) {
  // Low level reports hardware counts verbatim: on power3 the FP_INS
  // preset (straight PM_FPU_INS) includes the converts.
  SimFixture f(sim::make_fcvt_mixed(2000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFpIns).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.stop(v).ok());
  // n fadds + n converts: the raw count is 2n, NOT n.
  EXPECT_EQ(v[0], 4000);
}

TEST(EventSet, EventsListedInAddOrder) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  const auto events = set.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], EventId::preset(Preset::kTotIns));
  EXPECT_EQ(events[1], EventId::preset(Preset::kTotCyc));
}

}  // namespace
}  // namespace papirepro::papi
