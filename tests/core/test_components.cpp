// Multi-component substrate architecture (the PAPI-C direction): the
// Library's component registry, namespaced event resolution
// ("mem::BANDWIDTH_RD"), and EventSets spanning the CPU core plus the
// memory/uncore and network components.  The oracles are the simulated
// machine's own cache/page statistics and the CommWorld's per-rank
// message counts — the counter file and the truth come from the same
// model, so every cross-component value is checked exactly.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/library.h"
#include "sim/comm.h"
#include "substrate/component_substrates.h"
#include "substrate/fault_substrate.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::AllocationGuard;
using papirepro::test::SimFixture;

/// SimFixture plus the two non-CPU components registered: a mem
/// component over the fixture machine and a net component over a
/// single-rank CommWorld wrapping it.  The world outlives the library
/// (NetworkSubstrate references it), hence the member order.
struct ComponentFixture {
  SimFixture sim;
  sim::CommWorld world;
  MemBandwidthSubstrate* mem = nullptr;  // owned by library
  NetworkSubstrate* net = nullptr;       // owned by library
  std::uint32_t mem_id = 0;
  std::uint32_t net_id = 0;

  explicit ComponentFixture(sim::Workload w,
                            const SimSubstrateOptions& options = {})
      : sim(std::move(w), pmu::sim_x86(), options),
        world({sim.machine.get()}) {
    auto mem_sub = std::make_unique<MemBandwidthSubstrate>(*sim.machine);
    mem = mem_sub.get();
    mem_id = sim.library
                 ->register_component("mem", "uncore counters",
                                      std::move(mem_sub))
                 .value();
    auto net_sub = std::make_unique<NetworkSubstrate>(world);
    net = net_sub.get();
    net_id = sim.library
                 ->register_component("net", "nic counters",
                                      std::move(net_sub))
                 .value();
  }

  Library& library() { return *sim.library; }
  sim::Machine& machine() { return *sim.machine; }
  EventSet& new_set() { return sim.new_set(); }
};

// ---- registry ----------------------------------------------------------

TEST(ComponentRegistry, EnumerationReportsEveryComponent) {
  ComponentFixture f(sim::make_saxpy(1'000));
  ASSERT_EQ(f.library().num_components(), 3u);

  const auto cpu = f.library().component_info(0);
  ASSERT_TRUE(cpu.ok());
  EXPECT_EQ(cpu.value().id, 0u);
  EXPECT_EQ(cpu.value().name, "cpu");
  EXPECT_EQ(cpu.value().num_counters, f.library().num_counters());
  EXPECT_TRUE(cpu.value().enabled);

  const auto mem = f.library().component_info(f.mem_id);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem.value().name, "mem");
  EXPECT_EQ(mem.value().num_counters, 4u);
  EXPECT_EQ(mem.value().description, "uncore counters");

  const auto net = f.library().component_info(f.net_id);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net.value().name, "net");

  EXPECT_EQ(f.library().component_by_name("cpu").value(), 0u);
  EXPECT_EQ(f.library().component_by_name("mem").value(), f.mem_id);
  EXPECT_EQ(f.library().component_by_name("net").value(), f.net_id);
  EXPECT_EQ(f.library().component_by_name("gpu").error(),
            Error::kNoComponent);
  EXPECT_EQ(f.library().component_info(99).error(), Error::kNoComponent);
  EXPECT_EQ(f.library().component_substrate(99), nullptr);
}

TEST(ComponentRegistry, RejectsBadRegistrations) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  auto make_mem = [&] {
    return std::make_unique<MemBandwidthSubstrate>(*f.machine);
  };
  // Names are namespace prefixes: non-empty, no ':' separator chars.
  EXPECT_EQ(f.library->register_component("", "x", make_mem()).error(),
            Error::kInvalid);
  EXPECT_EQ(
      f.library->register_component("mem::x", "x", make_mem()).error(),
      Error::kInvalid);
  EXPECT_EQ(f.library->register_component("mem", "x", nullptr).error(),
            Error::kInvalid);
  ASSERT_TRUE(f.library->register_component("mem", "x", make_mem()).ok());
  // Duplicate prefixes would make resolution ambiguous.
  EXPECT_EQ(f.library->register_component("mem", "y", make_mem()).error(),
            Error::kConflict);
  EXPECT_EQ(f.library->register_component("cpu", "y", make_mem()).error(),
            Error::kConflict);
  // The id must fit the event-code component field: hard cap.
  for (std::uint32_t i = f.library->num_components(); i < kMaxComponents;
       ++i) {
    ASSERT_TRUE(f.library
                    ->register_component("c" + std::to_string(i), "x",
                                         make_mem())
                    .ok());
  }
  EXPECT_EQ(f.library->register_component("overflow", "x", make_mem())
                .error(),
            Error::kNoMemory);
}

// ---- namespaced event resolution ---------------------------------------

TEST(ComponentNamespace, QualifiedNamesResolveAndRoundTrip) {
  ComponentFixture f(sim::make_saxpy(1'000));

  const auto bw = f.library().event_from_name("mem::BANDWIDTH_RD");
  ASSERT_TRUE(bw.ok());
  EXPECT_EQ(bw.value().component, f.mem_id);
  EXPECT_EQ(bw.value().kind, EventId::Kind::kNative);
  EXPECT_EQ(bw.value().as_native(), mem_events::kBandwidthRd);
  EXPECT_EQ(f.library().event_name(bw.value()).value(),
            "mem::BANDWIDTH_RD");
  EXPECT_TRUE(f.library().query_event(bw.value()));
  // The integer code carries the component id in bits 30..24.
  EXPECT_EQ(event_code_component(bw.value().code()), f.mem_id);

  // Component presets resolve with or without the PAPI_ prefix.
  const auto tcm = f.library().event_from_name("mem::PAPI_L2_TCM");
  ASSERT_TRUE(tcm.ok());
  EXPECT_EQ(tcm.value(), EventId::preset(Preset::kL2Tcm, f.mem_id));
  EXPECT_EQ(f.library().event_from_name("mem::L2_TCM").value(),
            tcm.value());

  const auto snt = f.library().event_from_name("net::PAPI_MSG_SNT");
  ASSERT_TRUE(snt.ok());
  EXPECT_EQ(snt.value(), EventId::preset(Preset::kMsgSnt, f.net_id));

  // Descriptions route to the owning component's substrate.
  const auto desc = f.library().event_description(bw.value());
  ASSERT_TRUE(desc.ok());
  EXPECT_NE(desc.value().find("read"), std::string::npos);

  // An unprefixed name still resolves in the CPU component.
  const auto cyc = f.library().event_from_name("PAPI_TOT_CYC");
  ASSERT_TRUE(cyc.ok());
  EXPECT_EQ(cyc.value().component, 0u);
}

TEST(ComponentNamespace, UnknownPrefixAndEventErrorPaths) {
  ComponentFixture f(sim::make_saxpy(1'000));
  // Unknown prefix is a *component* error, distinct from kNoEvent.
  EXPECT_EQ(f.library().event_from_name("gpu::CYCLES").error(),
            Error::kNoComponent);
  // Known prefix, unknown name inside the namespace.
  EXPECT_EQ(f.library().event_from_name("mem::NOT_AN_EVENT").error(),
            Error::kNoEvent);
  // The net component does not map CPU presets.
  EXPECT_EQ(f.library().event_from_name("net::PAPI_TOT_CYC").error(),
            Error::kNoEvent);
  // EventIds stamped with an unregistered component id.
  EXPECT_FALSE(f.library().query_event(
      EventId::native(mem_events::kBandwidthRd, 5)));
  EXPECT_EQ(
      f.library().event_name(EventId::native(0x01, 5)).error(),
      Error::kNoComponent);
  EventSet& set = f.new_set();
  EXPECT_EQ(set.add_event(EventId::native(0x01, 5)).error(),
            Error::kNoComponent);
  EXPECT_EQ(set.add_named("gpu::CYCLES").error(), Error::kNoComponent);
}

TEST(ComponentRegistry, DisabledComponentRejectsNewAdds) {
  ComponentFixture f(sim::make_saxpy(1'000));
  EXPECT_EQ(f.library().set_component_enabled(99, false).error(),
            Error::kNoComponent);

  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());
  ASSERT_TRUE(f.library().set_component_enabled(f.mem_id, false).ok());
  EXPECT_FALSE(f.library().component_info(f.mem_id).value().enabled);

  // New adds against the disabled component fail loudly...
  EXPECT_EQ(set.add_named("mem::BANDWIDTH_RD").error(),
            Error::kComponentDisabled);
  // ...but the already-built set keeps counting (soft disable).
  ASSERT_TRUE(set.start().ok());
  f.machine().run();
  long long v[1] = {0};
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_GT(v[0], 0);

  ASSERT_TRUE(f.library().set_component_enabled(f.mem_id, true).ok());
  EXPECT_TRUE(set.add_named("mem::BANDWIDTH_RD").ok());
}

// ---- cross-component EventSets -----------------------------------------

TEST(ComponentEventSet, SpanningSetMatchesMachineOracles) {
  ComponentFixture f(sim::make_saxpy(4'000), {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());
  ASSERT_TRUE(set.add_named("mem::BANDWIDTH_RD").ok());
  ASSERT_TRUE(set.add_named("net::MSG_SENT").ok());
  ASSERT_EQ(set.num_events(), 4u);

  ASSERT_TRUE(set.start().ok());
  f.machine().run();
  std::vector<long long> values(4, -1);
  ASSERT_TRUE(set.stop(values).ok());

  const auto& l2 = f.machine().l2();
  EXPECT_EQ(values[0],
            static_cast<long long>(f.machine().retired()));
  EXPECT_EQ(values[1], static_cast<long long>(l2.stats().misses));
  EXPECT_EQ(values[2], static_cast<long long>(l2.stats().misses *
                                              l2.config().line_bytes));
  EXPECT_EQ(values[3], 0);  // saxpy sends no messages
  EXPECT_GT(values[1], 0);
}

TEST(ComponentEventSet, RingWorkloadCountsNetTraffic) {
  // A one-rank ring sends to (and receives from) itself: every message
  // lands in the same rank's stats, driven by the machine's own probes.
  constexpr std::int64_t kIters = 16;
  constexpr std::int64_t kChunkWords = 8;
  ComponentFixture f(sim::make_ring_rank(0, 1, kIters, 50, kChunkWords),
                     {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("net::MSG_SENT").ok());
  ASSERT_TRUE(set.add_named("net::MSG_RECV").ok());
  ASSERT_TRUE(set.add_named("net::WORDS_SENT").ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());

  ASSERT_TRUE(set.start().ok());
  f.machine().run();
  std::vector<long long> values(4, -1);
  ASSERT_TRUE(set.stop(values).ok());

  const sim::CommWorld::RankStats& stats = f.world.stats(0);
  EXPECT_EQ(values[0], static_cast<long long>(stats.sends));
  EXPECT_EQ(values[0], kIters);
  EXPECT_EQ(values[1], static_cast<long long>(stats.recvs));
  EXPECT_EQ(values[2], kIters * kChunkWords);
  EXPECT_GT(values[3], 0);

  // Presets resolve against the owning component: PAPI_MSG_SNT in the
  // net namespace counts the same source.
  EventSet& preset_set = f.new_set();
  ASSERT_TRUE(preset_set.add_named("net::PAPI_MSG_SNT").ok());
  ASSERT_TRUE(preset_set.start().ok());
  long long again[1] = {-1};
  ASSERT_TRUE(preset_set.stop(again).ok());
  EXPECT_EQ(again[0], 0);  // machine already halted: delta is zero
}

TEST(ComponentEventSet, ResetAndReadAfterStopStayCoherent) {
  ComponentFixture f(sim::make_saxpy(6'000), {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::L2_ACCESSES").ok());

  ASSERT_TRUE(set.start().ok());
  f.machine().run(2'000);
  std::vector<long long> mid(2, 0);
  ASSERT_TRUE(set.read(mid).ok());
  EXPECT_GT(mid[0], 0);
  EXPECT_GT(mid[1], 0);

  // reset() re-bases *every* slice: both components restart from zero.
  ASSERT_TRUE(set.reset().ok());
  std::vector<long long> after_reset(2, -1);
  ASSERT_TRUE(set.read(after_reset).ok());
  EXPECT_LT(after_reset[0], mid[0]);
  EXPECT_LT(after_reset[1], mid[1]);

  f.machine().run();
  std::vector<long long> final_values(2, 0);
  ASSERT_TRUE(set.stop(final_values).ok());

  // The stop() snapshot is frozen: reads after stop return it verbatim
  // even though the sources keep existing.
  std::vector<long long> again(2, -1);
  ASSERT_TRUE(set.read(again).ok());
  EXPECT_EQ(again, final_values);

  // accum() adds-and-rebases across components in one call.
  ASSERT_TRUE(set.start().ok());
  f.machine().run();
  std::vector<long long> inout(2, 10);
  ASSERT_TRUE(set.accum(inout).ok());
  EXPECT_GE(inout[0], 10);
  ASSERT_TRUE(set.stop().ok());
}

TEST(ComponentEventSet, RemoveEventCompactsSlices) {
  ComponentFixture f(sim::make_saxpy(2'000), {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("net::MSG_SENT").ok());
  const auto mem_event = f.library().event_from_name("mem::L2_MISSES");
  ASSERT_TRUE(set.remove_event(mem_event.value()).ok());
  ASSERT_EQ(set.num_events(), 2u);

  ASSERT_TRUE(set.start().ok());
  f.machine().run();
  std::vector<long long> values(2, -1);
  ASSERT_TRUE(set.stop(values).ok());
  EXPECT_EQ(values[0], static_cast<long long>(f.machine().retired()));
  EXPECT_EQ(values[1], 0);
}

TEST(ComponentEventSet, OverflowAndMultiplexAreCpuOnly) {
  ComponentFixture f(sim::make_saxpy(1'000));
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());

  // Off-core units have no interrupt line: arming overflow on a mem
  // event is a wrong-component request, surfaced as kNoSupport.
  const EventId mem_event =
      f.library().event_from_name("mem::L2_MISSES").value();
  EXPECT_EQ(set.set_overflow(mem_event, 1'000,
                             [](EventSet&, const OverflowEvent&) {})
                .error(),
            Error::kNoSupport);

  // Multiplexing time-slices one component's counters; a spanning set
  // cannot be multiplexed, in either order.
  EXPECT_EQ(set.enable_multiplex().error(), Error::kConflict);
  EventSet& muxed = f.new_set();
  ASSERT_TRUE(muxed.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(muxed.enable_multiplex().ok());
  EXPECT_EQ(muxed.add_named("mem::L2_MISSES").error(), Error::kConflict);
}

// ---- zero-allocation hot path ------------------------------------------

TEST(ComponentEventSet, SteadyStateSpanningReadsDoNotAllocate) {
  ComponentFixture f(sim::make_saxpy(20'000), {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::BANDWIDTH_RD").ok());
  ASSERT_TRUE(set.add_named("net::MSG_SENT").ok());

  ASSERT_TRUE(set.start().ok());
  std::vector<long long> values(3, 0);
  ASSERT_TRUE(set.read(values).ok());  // warm-up: scratch sized at start

  AllocationGuard guard;
  for (int i = 0; i < 64; ++i) {
    f.machine().run(200);
    ASSERT_TRUE(set.read(values).ok());
  }
  EXPECT_EQ(guard.delta(), 0u)
      << "cross-component read() allocated on the steady-state path";
  ASSERT_TRUE(set.stop(values).ok());
}

// ---- per-component telemetry -------------------------------------------

TEST(ComponentTelemetry, FanOutsAreAttributedPerComponent) {
  ComponentFixture f(sim::make_saxpy(2'000), {.charge_costs = false});
  EventSet& spanning = f.new_set();
  ASSERT_TRUE(spanning.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(spanning.add_named("mem::L2_MISSES").ok());

  ASSERT_TRUE(spanning.start().ok());
  f.machine().run(500);
  std::vector<long long> values(2, 0);
  ASSERT_TRUE(spanning.read(values).ok());
  ASSERT_TRUE(spanning.read(values).ok());
  ASSERT_TRUE(spanning.stop(values).ok());

  // A cpu-only set afterwards: its operations land on component 0 only.
  EventSet& cpu_only = f.new_set();
  ASSERT_TRUE(cpu_only.add_preset(Preset::kTotCyc).ok());
  ASSERT_TRUE(cpu_only.start().ok());
  ASSERT_TRUE(cpu_only.stop().ok());

  const TelemetrySnapshot snap = f.library().telemetry_snapshot();
  EXPECT_EQ(snap.num_components, 3u);
  using CC = ComponentCounter;
  EXPECT_EQ(snap.component_value(0, CC::kStarts), 2u);
  EXPECT_EQ(snap.component_value(f.mem_id, CC::kStarts), 1u);
  EXPECT_EQ(snap.component_value(f.net_id, CC::kStarts), 0u);
  EXPECT_EQ(snap.component_value(0, CC::kStops), 2u);
  EXPECT_EQ(snap.component_value(f.mem_id, CC::kStops), 1u);
  // Each spanning read snapshots both components once.
  EXPECT_EQ(snap.component_value(f.mem_id, CC::kReads),
            snap.component_value(0, CC::kReads));
  EXPECT_GE(snap.component_value(f.mem_id, CC::kReads), 2u);
  // The library-wide counter still counts *calls*, not fan-outs.
  EXPECT_EQ(snap.value(TelemetryCounter::kStarts), 2u);
}

// ---- fault decorator over a non-CPU component --------------------------

TEST(ComponentFault, DecoratedMemComponentRetriesTransients) {
  SimFixture f(sim::make_saxpy(4'000), pmu::sim_x86(),
               {.charge_costs = false});
  FaultPlan plan;
  plan.at(FaultSite::kRead).fail_times = 2;
  auto wrapped = std::make_unique<FaultInjectingSubstrate>(
      std::make_unique<MemBandwidthSubstrate>(*f.machine), plan);
  FaultInjectingSubstrate* fault = wrapped.get();
  const auto mem_id =
      f.library->register_component("mem", "faulty uncore",
                                    std::move(wrapped));
  ASSERT_TRUE(mem_id.ok());
  // The decorator forwards the component's identity surface intact.
  EXPECT_EQ(f.library->event_from_name("mem::BANDWIDTH_RD")
                .value()
                .component,
            mem_id.value());

  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> values(2, -1);
  // Both scripted read transients hit the mem slice and are absorbed by
  // the library's bounded retry; the values come back exact.
  ASSERT_TRUE(set.stop(values).ok());
  EXPECT_EQ(values[1],
            static_cast<long long>(f.machine->l2().stats().misses));
  EXPECT_EQ(fault->injected_count(FaultSite::kRead), 2u);
  EXPECT_GE(f.library->telemetry_snapshot().value(
                TelemetryCounter::kRetryAttempts),
            2u);
}

TEST(ComponentFault, PermanentFaultOnMemSliceSurfacesWithoutDegrading) {
  SimFixture f(sim::make_saxpy(1'000), pmu::sim_x86());
  FaultPlan plan;
  plan.at(FaultSite::kStart).fail_times = 1 << 20;
  plan.at(FaultSite::kStart).error = Error::kNoSupport;  // permanent
  auto wrapped = std::make_unique<FaultInjectingSubstrate>(
      std::make_unique<MemBandwidthSubstrate>(*f.machine), plan);
  FaultInjectingSubstrate* fault = wrapped.get();
  ASSERT_TRUE(
      f.library->register_component("mem", "x", std::move(wrapped)).ok());

  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());
  // The mem slice's start fails permanently: the whole spanning start
  // unwinds (the cpu slice is stopped again) and the injected code
  // surfaces unchanged.
  EXPECT_EQ(set.start().error(), Error::kNoSupport);
  EXPECT_FALSE(set.running());

  // Healing the substrate makes the same set start cleanly: nothing was
  // left half-started by the unwind.
  fault->set_enabled(false);
  ASSERT_TRUE(set.start().ok());
  ASSERT_TRUE(set.stop().ok());
}

// ---- threads spanning components ---------------------------------------

TEST(ComponentThreading, PerThreadSpanningSetsCountIndependently) {
  // Two ring ranks, each on its own machine and thread, each driving a
  // per-thread EventSet spanning cpu:: + mem:: + net::.  Exercises the
  // lazily-created per-thread non-CPU contexts under TSan.
  constexpr std::size_t kRanks = 2;
  constexpr std::int64_t kIters = 12;
  constexpr std::int64_t kChunkWords = 4;

  std::vector<sim::Workload> workloads;
  std::vector<std::unique_ptr<sim::Machine>> machines;
  for (std::size_t r = 0; r < kRanks; ++r) {
    workloads.push_back(
        sim::make_ring_rank(r, kRanks, kIters, 40, kChunkWords));
    machines.push_back(std::make_unique<sim::Machine>(
        workloads.back().program, pmu::sim_x86().machine));
    if (workloads.back().setup) workloads.back().setup(*machines.back());
  }
  sim::CommWorld world({machines[0].get(), machines[1].get()});

  auto sub = std::make_unique<SimSubstrate>(
      *machines[0], pmu::sim_x86(),
      SimSubstrateOptions{.charge_costs = false});
  SimSubstrate* cpu = sub.get();
  Library library(std::move(sub));
  auto mem_sub = std::make_unique<MemBandwidthSubstrate>(*machines[0]);
  MemBandwidthSubstrate* mem = mem_sub.get();
  ASSERT_TRUE(
      library.register_component("mem", "x", std::move(mem_sub)).ok());
  auto net_sub = std::make_unique<NetworkSubstrate>(world);
  NetworkSubstrate* net = net_sub.get();
  ASSERT_TRUE(
      library.register_component("net", "x", std::move(net_sub)).ok());

  std::vector<EventSet*> sets(kRanks, nullptr);
  for (std::size_t r = 0; r < kRanks; ++r) {
    auto handle = library.create_event_set();
    ASSERT_TRUE(handle.ok());
    sets[r] = library.event_set(handle.value()).value();
    ASSERT_TRUE(sets[r]->add_preset(Preset::kTotIns).ok());
    ASSERT_TRUE(sets[r]->add_named("mem::L2_ACCESSES").ok());
    ASSERT_TRUE(sets[r]->add_named("net::MSG_SENT").ok());
    ASSERT_TRUE(sets[r]->add_named("net::MSG_RECV").ok());
  }

  // gtest assertions are main-thread-only; workers record outcomes.
  std::vector<std::vector<long long>> got(
      kRanks, std::vector<long long>(4, -1));
  std::vector<unsigned char> clean(kRanks, 0);
  const bool halted = world.run_threaded(
      10'000'000,
      [&](std::size_t rank) {
        cpu->bind_thread_machine(*machines[rank]);
        mem->bind_thread_machine(*machines[rank]);
        net->bind_thread_rank(rank);
        clean[rank] = sets[rank]->start().ok();
      },
      [&](std::size_t rank) {
        if (clean[rank]) {
          clean[rank] = sets[rank]->stop(got[rank]).ok();
        }
        cpu->unbind_thread_machine();
        mem->unbind_thread_machine();
        net->unbind_thread_rank();
      });
  ASSERT_TRUE(halted);

  for (std::size_t r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(clean[r]) << "rank " << r;
    // Each thread observed exactly its own rank's traffic.
    EXPECT_EQ(got[r][0],
              static_cast<long long>(machines[r]->retired()))
        << "rank " << r;
    EXPECT_GT(got[r][1], 0) << "rank " << r;
    EXPECT_EQ(got[r][2], static_cast<long long>(world.stats(r).sends))
        << "rank " << r;
    EXPECT_EQ(got[r][2], kIters) << "rank " << r;
    EXPECT_EQ(got[r][3], static_cast<long long>(world.stats(r).recvs))
        << "rank " << r;
  }
}

TEST(ComponentThreading, DisableRacesRunningSpanningSet) {
  // set_component_enabled is a soft disable: it must be safe to flip
  // concurrently with a running spanning set, existing sets keep
  // counting through every toggle, and re-enabling restores adds.
  ComponentFixture f(sim::make_saxpy(500'000), {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::L2_ACCESSES").ok());
  ASSERT_TRUE(set.start().ok());

  std::atomic<bool> stop_toggling{false};
  std::thread toggler([&] {
    int i = 0;
    while (!stop_toggling.load(std::memory_order_acquire)) {
      (void)f.library().set_component_enabled(f.mem_id, ++i % 2 == 0);
    }
    (void)f.library().set_component_enabled(f.mem_id, true);
  });

  std::vector<long long> v(2, 0);
  for (int i = 0; i < 300; ++i) {
    f.machine().run(200);
    ASSERT_TRUE(set.read(v).ok());
  }
  stop_toggling.store(true, std::memory_order_release);
  toggler.join();

  // The set survived every toggle; the component ends re-enabled.
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_GT(v[0], 0);
  ASSERT_TRUE(f.library().component_info(f.mem_id).value().enabled);
  EventSet& fresh = f.new_set();
  EXPECT_TRUE(fresh.add_named("mem::L2_MISSES").ok());
}

}  // namespace
}  // namespace papirepro::papi
