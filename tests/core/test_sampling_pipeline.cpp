// The asynchronous sampling pipeline: SPSC ring unit behaviour, async
// histogram convergence against the synchronous baseline, drop
// accounting under tiny rings, overflow reconfiguration across runs,
// and the handler-lifetime regressions (clear_overflow while running
// used to leave the armed substrate callback dereferencing freed
// storage — these tests fail under ASan on the old code).
//
// All test names start with "Sampling" so the TSan CI job's filter
// picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/eventset.h"
#include "core/profile.h"
#include "core/sampling_pipeline.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::AllocationGuard;
using papirepro::test::SimFixture;

TEST(SamplingRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<SampleRecord>(1).capacity(),
            SpscRing<SampleRecord>::kMinCapacity);
  EXPECT_EQ(SpscRing<SampleRecord>(7).capacity(), 8u);
  EXPECT_EQ(SpscRing<SampleRecord>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<SampleRecord>(1000).capacity(), 1024u);
}

TEST(SamplingRing, FifoOrderAndCounters) {
  SpscRing<SampleRecord> ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.try_push(SampleRecord{.pc_observed = i}));
  }
  EXPECT_EQ(ring.size(), 5u);
  SampleRecord out;
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out.pc_observed, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SamplingRing, FullRingDropsAndAccounts) {
  SpscRing<SampleRecord> ring(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_push(SampleRecord{}));
  }
  EXPECT_FALSE(ring.try_push(SampleRecord{}));
  EXPECT_FALSE(ring.try_push(SampleRecord{}));
  EXPECT_EQ(ring.pushed(), 8u);
  EXPECT_EQ(ring.dropped(), 2u);
  // Popping frees a slot; the producer recovers.
  SampleRecord out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(SampleRecord{}));
}

TEST(SamplingRing, EnqueueAndDrainAreAllocationFree) {
  SpscRing<SampleRecord> ring(64);
  SampleRecord out;
  AllocationGuard guard;
  for (int i = 0; i < 1000; ++i) {
    ring.try_push(SampleRecord{.pc_observed = static_cast<std::uint64_t>(i)});
    if (i % 2 == 0) ring.try_pop(out);
  }
  while (ring.try_pop(out)) {
  }
  EXPECT_EQ(guard.delta(), 0u);
}

TEST(SamplingPipeline, AsyncHandlerDispatchMatchesSync) {
  // Same deterministic workload twice: handler fire counts must agree
  // between synchronous dispatch and the ring + aggregator.
  const auto run_once = [](bool async) {
    SimFixture f(sim::make_saxpy(10'000), pmu::sim_power3(),
                 {.charge_costs = false});
    ASSERT_TRUE(
        f.library->configure_sampling({.async = async}).ok())
        << "configure";
    EventSet& set = f.new_set();
    ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
    std::atomic<int> fires{0};
    ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kFmaIns), 1000,
                                 [&](EventSet&, const OverflowEvent& ev) {
                                   EXPECT_EQ(ev.event, EventId::preset(
                                                           Preset::kFmaIns));
                                   fires.fetch_add(1);
                                 })
                    .ok());
    ASSERT_TRUE(set.start().ok());
    EXPECT_EQ(set.async_sampling_active(), async);
    f.machine->run();
    // stop() drains the ring synchronously: every enqueued sample has
    // dispatched by the time it returns.
    ASSERT_TRUE(set.stop().ok());
    EXPECT_EQ(fires.load(), 10);
    if (async) {
      const SamplingStats stats = f.library->sampling_stats();
      EXPECT_EQ(stats.enqueued, 10u);
      EXPECT_EQ(stats.dispatched, 10u);
      EXPECT_EQ(stats.dropped, 0u);
      EXPECT_EQ(stats.rings_active, 0u);  // detached at stop()
    }
  };
  run_once(false);
  run_once(true);
}

TEST(SamplingPipeline, AsyncHistogramConvergesToSyncBaseline) {
  // The acceptance criterion: with a roomy ring (no drops possible) the
  // async histogram is bit-identical to the synchronous baseline — the
  // pipeline reorders work in time, not in content.
  const auto profile_run = [](bool async, ProfileBuffer& buf) {
    SimFixture f(sim::make_saxpy(50'000), pmu::sim_power3(),
                 {.charge_costs = false});
    ASSERT_TRUE(f.library
                    ->configure_sampling(
                        {.async = async, .ring_capacity = 1u << 16})
                    .ok());
    EventSet& set = f.new_set();
    ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
    ASSERT_TRUE(
        set.profil(buf, EventId::preset(Preset::kTotIns), 500).ok());
    ASSERT_TRUE(set.start().ok());
    f.machine->run();
    ASSERT_TRUE(set.stop().ok());
  };

  ProfileBuffer sync_buf(sim::kTextBase, 4096);
  profile_run(false, sync_buf);
  ProfileBuffer async_buf(sim::kTextBase, 4096);
  profile_run(true, async_buf);

  ASSERT_GT(sync_buf.total_samples(), 500u);
  EXPECT_EQ(async_buf.total_samples(), sync_buf.total_samples());
  EXPECT_EQ(async_buf.buckets(), sync_buf.buckets());
}

TEST(SamplingPipeline, TinyRingDropsAreAccounted) {
  // Graceful degradation: a ring the aggregator cannot keep up with
  // drops samples but never loses track of how many.  The sync baseline
  // gives the true sample count; async total + accounted drops must
  // reproduce it exactly.
  ProfileBuffer sync_buf(sim::kTextBase, 4096);
  {
    SimFixture f(sim::make_saxpy(50'000), pmu::sim_power3(),
                 {.charge_costs = false});
    EventSet& set = f.new_set();
    ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
    ASSERT_TRUE(
        set.profil(sync_buf, EventId::preset(Preset::kTotIns), 100).ok());
    ASSERT_TRUE(set.start().ok());
    f.machine->run();
    ASSERT_TRUE(set.stop().ok());
  }

  SimFixture f(sim::make_saxpy(50'000), pmu::sim_power3(),
               {.charge_costs = false});
  // Minimum-size ring, sleepy aggregator: drops are inevitable while
  // the machine floods thousands of samples between sweeps.
  ASSERT_TRUE(f.library
                  ->configure_sampling({.async = true,
                                        .ring_capacity = 8,
                                        .poll_interval_us = 500'000})
                  .ok());
  ProfileBuffer async_buf(sim::kTextBase, 4096);
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(
      set.profil(async_buf, EventId::preset(Preset::kTotIns), 100).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());

  const SamplingStats stats = f.library->sampling_stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.enqueued, async_buf.total_samples());
  EXPECT_EQ(stats.enqueued + stats.dropped, sync_buf.total_samples());
}

TEST(SamplingPipeline, ReconfigurationAcrossStartStopCycles) {
  // set -> run -> clear -> run -> re-set -> run on ONE EventSet, in
  // both delivery modes: each phase dispatches exactly its own
  // configuration, and a cleared handler stays cleared.
  for (const bool async : {false, true}) {
    SimFixture f(sim::make_saxpy(30'000), pmu::sim_power3(),
                 {.charge_costs = false});
    ASSERT_TRUE(f.library->configure_sampling({.async = async}).ok());
    EventSet& set = f.new_set();
    ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());

    std::atomic<int> first{0};
    ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kFmaIns), 1000,
                                 [&](EventSet&, const OverflowEvent&) {
                                   first.fetch_add(1);
                                 })
                    .ok());
    ASSERT_TRUE(set.start().ok());
    f.machine->run(80'000);
    ASSERT_TRUE(set.stop().ok());
    const int phase1 = first.load();
    EXPECT_GT(phase1, 0) << "async=" << async;

    ASSERT_TRUE(
        set.clear_overflow(EventId::preset(Preset::kFmaIns)).ok());
    ASSERT_TRUE(set.start().ok());
    f.machine->run(80'000);
    ASSERT_TRUE(set.stop().ok());
    EXPECT_EQ(first.load(), phase1) << "cleared handler refired";

    std::atomic<int> second{0};
    ASSERT_TRUE(set.set_overflow(EventId::preset(Preset::kFmaIns), 2000,
                                 [&](EventSet&, const OverflowEvent&) {
                                   second.fetch_add(1);
                                 })
                    .ok());
    ASSERT_TRUE(set.start().ok());
    f.machine->run();
    ASSERT_TRUE(set.stop().ok());
    EXPECT_EQ(first.load(), phase1) << "old handler leaked into new run";
    EXPECT_GT(second.load(), 0) << "async=" << async;
  }
}

TEST(SamplingPipeline, ClearOverflowWhileRunningStopsDispatch) {
  // The headline lifetime bug: clear_overflow() used to erase the
  // config while the substrate stayed armed, so the next interrupt
  // dereferenced the destroyed handler (heap-use-after-free under
  // ASan).  Now the substrate is disarmed first; the count freezes.
  SimFixture f(sim::make_saxpy(10'000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kFmaIns).ok());
  std::atomic<int> fires{0};
  // Heap-allocated capture state so a stale dispatch is a *detectable*
  // use-after-free, not a silent read of recycled stack memory.
  auto big = std::vector<int>(64, 7);
  ASSERT_TRUE(set.set_overflow(
                     EventId::preset(Preset::kFmaIns), 1000,
                     [&fires, big](EventSet&, const OverflowEvent&) {
                       fires.fetch_add(1 + (big[0] - 7));
                     })
                  .ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run(45'000);  // ~5 of the 10 total overflows
  const int at_clear = fires.load();
  EXPECT_GT(at_clear, 0);
  EXPECT_LT(at_clear, 10);
  ASSERT_TRUE(set.clear_overflow(EventId::preset(Preset::kFmaIns)).ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  EXPECT_EQ(fires.load(), at_clear);
}

TEST(SamplingPipeline, ProfilStopWhileRunningStopsRecording) {
  // profil_stop mid-run: the buffer must freeze (the old code kept the
  // armed callback recording into it for the rest of the run).
  SimFixture f(sim::make_saxpy(20'000), pmu::sim_power3(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ProfileBuffer buf(sim::kTextBase, 4096);
  ASSERT_TRUE(
      set.profil(buf, EventId::preset(Preset::kTotIns), 500).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run(60'000);
  ASSERT_TRUE(set.profil_stop(EventId::preset(Preset::kTotIns)).ok());
  const std::uint64_t at_stop = buf.total_samples();
  EXPECT_GT(at_stop, 0u);
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
  EXPECT_EQ(buf.total_samples(), at_stop);
}

TEST(SamplingPipeline, DeferredDeliveryChargesEnqueueCostOnly) {
  // The cost asymmetry behind the paper's sampling-vs-counting gap:
  // deferred delivery charges the counting thread the trap-plus-enqueue
  // price, not the full handler.
  const auto overhead = [](bool async) {
    SimFixture f(sim::make_saxpy(20'000), pmu::sim_power3());
    EXPECT_TRUE(f.library->configure_sampling({.async = async}).ok());
    ProfileBuffer buf(sim::kTextBase, 4096);
    EventSet& set = f.new_set();
    EXPECT_TRUE(set.add_preset(Preset::kTotIns).ok());
    EXPECT_TRUE(
        set.profil(buf, EventId::preset(Preset::kTotIns), 1000).ok());
    EXPECT_TRUE(set.start().ok());
    f.machine->run();
    EXPECT_TRUE(set.stop().ok());
    EXPECT_GT(buf.total_samples(), 100u);
    return std::pair(f.machine->overhead_cycles(), buf.total_samples());
  };
  const auto [sync_cycles, sync_samples] = overhead(false);
  const auto [async_cycles, async_samples] = overhead(true);
  const auto& costs = pmu::sim_power3().costs;
  EXPECT_GE(sync_cycles,
            sync_samples * costs.overflow_handler_cost_cycles);
  EXPECT_GE(async_cycles,
            async_samples * costs.overflow_enqueue_cost_cycles);
  EXPECT_LT(async_cycles, sync_cycles / 2);
}

TEST(SamplingPipeline, LibraryConfigValidation) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_power3());
  EXPECT_EQ(f.library
                ->configure_sampling(
                    {.async = true,
                     .ring_capacity =
                         SpscRing<SampleRecord>::kMaxCapacity * 2})
                .error(),
            Error::kInvalid);
  EXPECT_TRUE(f.library
                  ->configure_sampling({.async = true, .ring_capacity = 0})
                  .ok());
  EXPECT_EQ(f.library->sampling().config().ring_capacity, 1024u);
}

}  // namespace
}  // namespace papirepro::papi
