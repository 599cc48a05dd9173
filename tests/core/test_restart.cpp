// Restart without reprogramming: an EventSet programs its thread's
// counter contexts when its programming changes, and a stop()+start()
// on a thread whose contexts already hold that programming only re-arms,
// resets and enables them.  The fault decorator (with an empty plan)
// counts the program() calls; everything that changes the programming
// must bring one back, and a restarted set must observe exactly what a
// reprogrammed one does on every platform.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/eventset.h"
#include "core/library.h"
#include "core/profile.h"
#include "substrate/component_substrates.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::FaultFixture;
using papirepro::test::SimFixture;

constexpr std::int64_t kEndless = std::int64_t{1} << 40;

/// Starts and stops `set`; returns the program() calls that made.
std::uint64_t restart(FaultFixture& f, EventSet& set) {
  const std::uint64_t before = f.fault->call_count(FaultSite::kProgram);
  EXPECT_TRUE(set.start().ok());
  EXPECT_TRUE(set.stop().ok());
  return f.fault->call_count(FaultSite::kProgram) - before;
}

TEST(Restart, ProgramsOnlyWhenTheProgrammingChanges) {
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), FaultPlan{});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  EXPECT_EQ(restart(f, set), 1u);  // the first start
  for (int i = 0; i < 10; ++i) EXPECT_EQ(restart(f, set), 0u) << i;

  ASSERT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(restart(f, set), 0u);
  ASSERT_TRUE(set.remove_event(EventId::preset(Preset::kTotCyc)).ok());
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(restart(f, set), 0u);
  ASSERT_TRUE(set.set_domain(domain::kUser).ok());
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(restart(f, set), 0u);

  // Another set programmed this thread's context in between.
  EventSet& other = f.new_set();
  ASSERT_TRUE(other.add_preset(Preset::kFmaIns).ok());
  EXPECT_EQ(restart(f, other), 1u);
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(restart(f, set), 0u);

  // Unregistering frees the thread's slot and contexts; the next start
  // registers again into that slot, with fresh contexts to program.
  ASSERT_TRUE(f.library->unregister_thread().ok());
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(f.library->num_threads(), 1u);
  EXPECT_EQ(restart(f, set), 0u);
}

TEST(Restart, EstimationToggleReprograms) {
  // set_estimation moves sim-alpha's allocation generation: what
  // program() accepts may have changed, so the next start programs.
  FaultFixture f(sim::make_saxpy(100), pmu::sim_alpha(), FaultPlan{});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(restart(f, set), 0u);
  ASSERT_TRUE(f.substrate->set_estimation(true).ok());
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(restart(f, set), 0u);
}

TEST(Restart, EstimationOffRefusesASampledEventOnRestart) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_alpha());
  ASSERT_TRUE(f.substrate->set_estimation(true).ok());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PME_FMA").ok());
  ASSERT_TRUE(set.start().ok());
  ASSERT_TRUE(set.stop().ok());
  ASSERT_TRUE(f.substrate->set_estimation(false).ok());
  EXPECT_EQ(set.start().error(), Error::kNoSupport);
  EXPECT_FALSE(set.running());
  ASSERT_TRUE(f.substrate->set_estimation(true).ok());
  EXPECT_TRUE(set.start().ok());
  EXPECT_TRUE(set.stop().ok());
}

TEST(Restart, MultiplexedSetProgramsEveryStart) {
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), FaultPlan{});
  EventSet& mux = f.new_set();
  ASSERT_TRUE(mux.enable_multiplex(10'000).ok());
  for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                           "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_L1_DCA"}) {
    ASSERT_TRUE(mux.add_named(name).ok()) << name;
  }
  ASSERT_GE(mux.num_mux_groups(), 2u);
  // No instruction runs between start and stop, so no slice rotates:
  // each start programs exactly its first group.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(restart(f, mux), 1u) << i;

  // A direct set after a multiplexed one finds no tag to trust.
  EventSet& direct = f.new_set();
  ASSERT_TRUE(direct.add_preset(Preset::kTotIns).ok());
  EXPECT_EQ(restart(f, direct), 1u);
  EXPECT_EQ(restart(f, direct), 0u);
  EXPECT_EQ(restart(f, mux), 1u);
  EXPECT_EQ(restart(f, direct), 1u);
}

TEST(Restart, FailedStartReprogramsNextTime) {
  // A start that fails after programming leaves no tag behind.
  FaultPlan plan;
  plan.at(FaultSite::kStart) = {/*fail_times=*/1, 0.0, Error::kConflict,
                                /*fail_after=*/1};
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
  ASSERT_TRUE(f.library->set_retry_policy({1, 0}).ok());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(set.start().error(), Error::kConflict);  // the scripted fault
  EXPECT_EQ(restart(f, set), 1u);
  EXPECT_EQ(restart(f, set), 0u);
}

/// What one set observed over kRounds start/run/read_ex/run/stop rounds.
struct Observed {
  std::vector<long long> counts;     ///< read_ex() and stop() values
  std::vector<std::uint32_t> flags;  ///< read_ex() flags
  /// Synchronous deliveries: event, observed PC, precise PC, has_precise.
  std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, bool>>
      overflows;
  std::vector<std::uint32_t> histogram;  ///< async profil buckets
  std::uint64_t programs = 0;
};

struct Variant {
  const pmu::PlatformDescription* platform;
  std::uint32_t width_bits = 64;
  bool with_mem = false;
  bool async_profil = false;
};

constexpr int kRounds = 5;
constexpr std::uint64_t kChunk = 12'000;

/// Runs the rounds once.  With `reprogram`, a second set starts and
/// stops before every round, so the observed set programs every time;
/// without, it programs only at its first start.
Observed observe(const Variant& v, bool reprogram) {
  FaultPlan plan;
  plan.counter_width_bits = v.width_bits;
  FaultFixture f(sim::make_saxpy(50'000), *v.platform, plan,
                 {.charge_costs = false});
  if (v.with_mem) {
    EXPECT_TRUE(f.library
                    ->register_component(
                        "mem", "uncore counters",
                        std::make_unique<MemBandwidthSubstrate>(*f.machine))
                    .ok());
  }
  Observed o;
  ProfileBuffer buffer(sim::kTextBase, 4096);
  EventSet& set = f.new_set();
  EXPECT_TRUE(set.add_preset(Preset::kTotIns).ok());
  EXPECT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  // L1 misses are a physical counter everywhere but sim-alpha (whose
  // PME events are sampled) and EAR-capable on sim-ia64.
  const bool l1 = set.add_preset(Preset::kL1Dcm).ok();
  EventSet& other = f.new_set();
  EXPECT_TRUE(other.add_preset(Preset::kTotCyc).ok());
  if (v.with_mem) {
    EXPECT_TRUE(set.add_named("mem::BANDWIDTH_RD").ok());
    EXPECT_TRUE(set.add_named("mem::L2_ACCESSES").ok());
    EXPECT_TRUE(other.add_named("mem::L2_MISSES").ok());
  }
  if (v.async_profil) {
    EXPECT_TRUE(f.library->configure_sampling({.async = true}).ok());
    EXPECT_TRUE(
        set.profil(buffer, EventId::preset(Preset::kTotIns), 499).ok());
  } else {
    const auto record = [&o](EventSet&, const OverflowEvent& e) {
      o.overflows.emplace_back(e.event.code(), e.pc_observed, e.pc_precise,
                               e.has_precise);
    };
    EXPECT_TRUE(
        set.set_overflow(EventId::preset(Preset::kTotIns), 997, record)
            .ok());
    if (l1) {
      EXPECT_TRUE(
          set.set_overflow(EventId::preset(Preset::kL1Dcm), 53, record)
              .ok());
    }
  }

  std::vector<long long> values(set.num_events());
  std::vector<std::uint32_t> flags(set.num_events());
  for (int r = 0; r < kRounds; ++r) {
    if (reprogram) {
      EXPECT_TRUE(other.start().ok());
      EXPECT_TRUE(other.stop().ok());
    }
    EXPECT_TRUE(set.start().ok());
    f.machine->run(kChunk);
    EXPECT_TRUE(set.read_ex(values, flags).ok());
    o.counts.insert(o.counts.end(), values.begin(), values.end());
    o.flags.insert(o.flags.end(), flags.begin(), flags.end());
    f.machine->run(kChunk);
    EXPECT_TRUE(set.stop(values).ok());
    o.counts.insert(o.counts.end(), values.begin(), values.end());
  }
  o.histogram = buffer.buckets();
  o.programs = f.fault->call_count(FaultSite::kProgram);
  return o;
}

void expect_restart_matches_reprogram(const Variant& v) {
  SCOPED_TRACE(v.platform->name);
  const Observed restarted = observe(v, /*reprogram=*/false);
  const Observed reprogrammed = observe(v, /*reprogram=*/true);
  EXPECT_EQ(restarted.programs, 1u);
  EXPECT_EQ(reprogrammed.programs, 2u * kRounds);
  EXPECT_EQ(restarted.counts, reprogrammed.counts);
  EXPECT_EQ(restarted.flags, reprogrammed.flags);
  EXPECT_EQ(restarted.overflows, reprogrammed.overflows);
  EXPECT_EQ(restarted.histogram, reprogrammed.histogram);
  if (v.async_profil) {
    std::uint64_t samples = 0;
    for (const std::uint32_t b : restarted.histogram) samples += b;
    EXPECT_GT(samples, 0u);
  } else {
    EXPECT_FALSE(restarted.overflows.empty());
  }
}

TEST(Restart, MatchesReprogramOnEveryPlatform) {
  for (const pmu::PlatformDescription* p : pmu::all_platforms()) {
    expect_restart_matches_reprogram({.platform = p});
  }
}

TEST(Restart, MatchesReprogramWithAsyncProfil) {
  for (const pmu::PlatformDescription* p : pmu::all_platforms()) {
    expect_restart_matches_reprogram({.platform = p, .async_profil = true});
  }
}

TEST(Restart, MatchesReprogramForACpuPlusMemSet) {
  expect_restart_matches_reprogram(
      {.platform = &pmu::sim_x86(), .with_mem = true});
}

TEST(Restart, MatchesReprogramOnNarrowCounters) {
  // 16-bit cycle counters wrap inside every round; reads come often
  // enough for the fold to stay exact.
  for (const std::uint32_t width : {24u, 16u}) {
    expect_restart_matches_reprogram(
        {.platform = &pmu::sim_x86(), .width_bits = width});
  }
}

TEST(Restart, ThreadReusingAnUnregisteredSlotCountsExactly) {
  SimFixture f(sim::make_empty_loop(kEndless), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  // Each thread counts 1000 instructions, then gives its slot back;
  // the second thread registers into the freed slot.
  const auto count_once = [&] {
    long long v[1] = {-1};
    std::thread t([&] {
      if (!set.start().ok()) return;
      f.machine->run(1000);
      if (!set.stop(v).ok()) v[0] = -2;
      if (!f.library->unregister_thread().ok()) v[0] = -3;
    });
    t.join();
    return v[0];
  };
  EXPECT_EQ(count_once(), 1000);
  EXPECT_EQ(f.library->num_threads(), 0u);
  EXPECT_EQ(count_once(), 1000);
}

// --- what a restart still does -----------------------------------------
// A restart skips bookkeeping that was repeated or never needed: its
// publications reuse the clock reads it makes for overhead attribution,
// its raw and value buffers are resized rather than zeroed (only the
// folds restart from zero), and its health bracket reaches each
// component through its slice.  These pin it to what a set that did
// all of that produces.

/// A cpu+mem set {PAPI_TOT_INS, PAPI_TOT_CYC, mem::BANDWIDTH_RD} on
/// sim-x86 running saxpy.
struct CpuMemRig {
  SimFixture f;
  std::uint32_t mem = 0;
  EventSet* set = nullptr;

  explicit CpuMemRig(bool charge_costs)
      : f(sim::make_saxpy(1'000'000), pmu::sim_x86(),
          {.charge_costs = charge_costs}) {
    mem = f.library
              ->register_component(
                  "mem", "uncore counters",
                  std::make_unique<MemBandwidthSubstrate>(*f.machine))
              .value();
    set = &f.new_set();
    EXPECT_TRUE(set->add_preset(Preset::kTotIns).ok());
    EXPECT_TRUE(set->add_preset(Preset::kTotCyc).ok());
    EXPECT_TRUE(set->add_named("mem::BANDWIDTH_RD").ok());
  }
};

TEST(Restart, EachRestartCountsOneStartAndOneStopPerComponent) {
  CpuMemRig rig(/*charge_costs=*/false);
  EventSet& set = *rig.set;
  ASSERT_TRUE(set.start().ok());
  TelemetrySnapshot before = rig.f.library->telemetry_snapshot();
  for (int r = 0; r < 5; ++r) {
    rig.f.machine->run(kChunk);
    ASSERT_TRUE(set.stop().ok());
    ASSERT_TRUE(set.start().ok());
    const TelemetrySnapshot after = rig.f.library->telemetry_snapshot();
    const auto delta = [&](TelemetryCounter c) {
      return after.value(c) - before.value(c);
    };
    EXPECT_EQ(delta(TelemetryCounter::kStarts), 1u) << r;
    EXPECT_EQ(delta(TelemetryCounter::kStops), 1u) << r;
    EXPECT_EQ(delta(TelemetryCounter::kReads), 0u) << r;
    for (const std::uint32_t c : {0u, rig.mem}) {
      const auto cdelta = [&](ComponentCounter cc) {
        return after.component_value(c, cc) - before.component_value(c, cc);
      };
      EXPECT_EQ(cdelta(ComponentCounter::kStarts), 1u) << c << " " << r;
      EXPECT_EQ(cdelta(ComponentCounter::kStops), 1u) << c << " " << r;
      EXPECT_EQ(cdelta(ComponentCounter::kReads), 0u) << c << " " << r;
    }
    before = after;
  }
  ASSERT_TRUE(set.stop().ok());
}

TEST(Restart, PublicationsCarryTheStartAndStopClocks) {
  // Costs on: start() and stop() advance the machine's clock, and their
  // publications must carry the clock as each call left it.
  CpuMemRig rig(/*charge_costs=*/true);
  EventSet& set = *rig.set;
  std::vector<SnapshotEntry> entries;
  std::vector<long long> values;
  // Polls from another thread, as a collector does, and returns the
  // set's entry and values.
  const auto poll = [&](std::vector<long long>& got) {
    std::thread t([&] { (void)rig.f.library->snapshot_all(entries, values); });
    t.join();
    for (const SnapshotEntry& e : entries) {
      if (e.handle != set.handle()) continue;
      got.assign(values.begin() + e.first_value,
                 values.begin() + e.first_value + e.num_values);
      return e;
    }
    ADD_FAILURE() << "the set is missing from the snapshot";
    return SnapshotEntry{};
  };
  std::vector<long long> finals(set.num_events());
  std::vector<long long> got;
  for (int r = 0; r < 4; ++r) {
    const std::uint64_t idle = rig.f.machine->cycles();
    ASSERT_TRUE(set.start().ok());
    const std::uint64_t started = rig.f.machine->cycles();
    EXPECT_GT(started, idle) << r;  // the start's costs were charged
    SnapshotEntry e = poll(got);
    EXPECT_EQ(e.status, Error::kOk) << r;
    EXPECT_NE(e.flags & read_flag::kPublished, 0u) << r;
    EXPECT_EQ(got, std::vector<long long>(set.num_events(), 0)) << r;
    EXPECT_EQ(e.pub_cycles, started) << r;

    rig.f.machine->run(kChunk);
    ASSERT_TRUE(set.stop(finals).ok());
    const std::uint64_t stopped = rig.f.machine->cycles();
    EXPECT_GT(finals[0], 0) << r;
    e = poll(got);
    EXPECT_EQ(e.status, Error::kOk) << r;
    EXPECT_NE(e.flags & read_flag::kPublished, 0u) << r;
    EXPECT_EQ(got, finals) << r;
    EXPECT_EQ(e.pub_cycles, stopped) << r;
  }
}

/// Two rounds on a fresh machine: {PAPI_TOT_INS, PAPI_TOT_CYC}, then
/// {PAPI_TOT_INS, PAPI_LD_INS}, which has as many natives.  With
/// `reuse` the second round swaps one preset in the first round's set
/// and restarts it; without, a new set counts it.  Returns the second
/// round's read_ex() values and flags and its stop() values.
std::vector<long long> count_after_swap(bool reuse) {
  SimFixture f(sim::make_saxpy(50'000), pmu::sim_x86(),
               {.charge_costs = false});
  EXPECT_FALSE(f.substrate->preset_mapping(Preset::kTotCyc).value().derived());
  EXPECT_FALSE(f.substrate->preset_mapping(Preset::kLdIns).value().derived());
  EventSet* set = &f.new_set();
  EXPECT_TRUE(set->add_preset(Preset::kTotIns).ok());
  EXPECT_TRUE(set->add_preset(Preset::kTotCyc).ok());
  EXPECT_TRUE(set->start().ok());
  f.machine->run(kChunk);
  EXPECT_TRUE(set->stop().ok());
  if (reuse) {
    EXPECT_TRUE(set->remove_event(EventId::preset(Preset::kTotCyc)).ok());
  } else {
    set = &f.new_set();
    EXPECT_TRUE(set->add_preset(Preset::kTotIns).ok());
  }
  EXPECT_TRUE(set->add_preset(Preset::kLdIns).ok());

  std::vector<long long> out;
  std::vector<long long> v(2);
  std::vector<std::uint32_t> flags(2);
  const std::uint64_t ins = f.machine->retired();
  EXPECT_TRUE(set->start().ok());
  f.machine->run(kChunk);
  EXPECT_TRUE(set->read_ex(v, flags).ok());
  EXPECT_EQ(v[0], static_cast<long long>(f.machine->retired() - ins));
  out.insert(out.end(), v.begin(), v.end());
  out.insert(out.end(), flags.begin(), flags.end());
  f.machine->run(kChunk);
  EXPECT_TRUE(set->stop(v).ok());
  EXPECT_EQ(v[0], static_cast<long long>(f.machine->retired() - ins));
  EXPECT_GT(v[1], 0);
  out.insert(out.end(), v.begin(), v.end());
  return out;
}

TEST(Restart, SwappedMembershipWithTheSameNativeCountCountsExactly) {
  EXPECT_EQ(count_after_swap(/*reuse=*/true), count_after_swap(false));
}

/// Three rounds of a six-event multiplexed set on a fresh machine, each
/// by restarting one set (`restart`) or by a new set per round; returns
/// every round's stop() values.
std::vector<long long> mux_rounds(bool restart) {
  SimFixture f(sim::make_saxpy(400'000), pmu::sim_x86(),
               {.charge_costs = false});
  std::vector<long long> out;
  EventSet* set = nullptr;
  for (int r = 0; r < 3; ++r) {
    if (set == nullptr || !restart) {
      set = &f.new_set();
      EXPECT_TRUE(set->enable_multiplex(10'000).ok());
      for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                               "PAPI_TOT_INS", "PAPI_BR_INS",
                               "PAPI_L1_DCA"}) {
        EXPECT_TRUE(set->add_named(name).ok()) << name;
      }
      EXPECT_GE(set->num_mux_groups(), 2u);
    }
    std::vector<long long> v(set->num_events());
    EXPECT_TRUE(set->start().ok());
    f.machine->run(200'000);
    EXPECT_TRUE(set->stop(v).ok());
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

TEST(Restart, MultiplexedRestartCountsLikeANewSet) {
  // A multiplexed set reprograms on every start, and its estimates
  // start from zero although its raw buffer keeps the last run's.
  const std::vector<long long> restarted = mux_rounds(/*restart=*/true);
  EXPECT_EQ(restarted, mux_rounds(false));
  for (const long long v : restarted) EXPECT_GT(v, 0);
}

TEST(Restart, RestartAllocatesNothingAfterWarmUp) {
  CpuMemRig rig(/*charge_costs=*/false);
  EventSet& set = *rig.set;
  std::vector<long long> v(set.num_events());
  ASSERT_TRUE(set.start().ok());
  const auto restart_once = [&] {
    rig.f.machine->run(64);
    EXPECT_TRUE(set.stop(v).ok());
    EXPECT_TRUE(set.start().ok());
  };
  for (int i = 0; i < 64; ++i) restart_once();
  papirepro::test::AllocationGuard guard;
  for (int i = 0; i < 1000; ++i) restart_once();
  EXPECT_EQ(guard.delta(), 0u);
  ASSERT_TRUE(set.stop().ok());
}

// Under TSan in CI (the Threading.* filter): the tag lives in each
// thread's own registry slot, so eight threads restarting their own
// sets never share it.
TEST(Threading, RestartsAlternatingTwoSetsCountExactly) {
  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 1000;
  std::vector<sim::Workload> workloads;
  std::vector<std::unique_ptr<sim::Machine>> machines;
  for (int t = 0; t < kThreads; ++t) {
    workloads.push_back(sim::make_empty_loop(kEndless));
    machines.push_back(std::make_unique<sim::Machine>(
        workloads.back().program, pmu::sim_x86().machine));
  }
  auto sim_sub = std::make_unique<SimSubstrate>(
      *machines[0], pmu::sim_x86(),
      SimSubstrateOptions{.charge_costs = false});
  SimSubstrate* substrate = sim_sub.get();
  auto fault_sub = std::make_unique<FaultInjectingSubstrate>(
      std::move(sim_sub), FaultPlan{});
  FaultInjectingSubstrate* fault = fault_sub.get();
  Library library(std::move(fault_sub));

  // gtest assertions are main-thread-only; workers count mismatches
  // and the program() calls they expect: one whenever the set differs
  // from the one last started on the thread.
  std::vector<int> wrong(kThreads, -1);
  std::vector<std::uint64_t> expected_programs(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::Machine& m = *machines[t];
      substrate->bind_thread_machine(m);
      EventSet* sets[2] = {nullptr, nullptr};
      for (EventSet*& s : sets) {
        auto handle = library.create_event_set();
        if (!handle.ok()) return;
        s = library.event_set(handle.value()).value();
        if (!s->add_preset(Preset::kTotIns).ok()) return;
      }
      if (!sets[1]->add_preset(Preset::kTotCyc).ok()) return;
      int mismatches = 0;
      const EventSet* last = nullptr;
      for (int r = 0; r < kRoundsPerThread; ++r) {
        // a, a, b: the second start of `a` restarts without program().
        EventSet& s = *sets[r % 3 == 2 ? 1 : 0];
        if (&s != last) ++expected_programs[t];
        last = &s;
        const std::uint64_t ins = m.retired();
        const std::uint64_t cyc = m.cycles();
        if (!s.start().ok()) return;
        m.run(64 + static_cast<std::uint64_t>(r % 7));
        long long v[2] = {0, 0};
        if (!s.stop(v).ok()) return;
        const auto ran = [](std::uint64_t now, std::uint64_t before) {
          return static_cast<long long>(now - before);
        };
        if (v[0] != ran(m.retired(), ins)) ++mismatches;
        if (&s == sets[1] && v[1] != ran(m.cycles(), cyc)) ++mismatches;
      }
      wrong[t] = library.unregister_thread().ok() ? mismatches : -1;
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t programs = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0) << "thread " << t;
    programs += expected_programs[t];
  }
  EXPECT_EQ(programs, kThreads * 667u);  // 334 of `a`, 333 of `b`
  EXPECT_EQ(fault->call_count(FaultSite::kProgram), programs);
}

}  // namespace
}  // namespace papirepro::papi
