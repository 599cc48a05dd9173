// Component health monitor: the circuit breaker between the retry layer
// and the substrates.  Covers the state machine in isolation, the
// fail-fast quarantine path (no retry/backoff burned against a dead
// component), partial-failure reads over a spanning EventSet (healthy
// slices keep delivering while a quarantined slice reports last latched
// values), the non-monotonic-counter sanity guard, and the lazy
// probe-on-next-op recovery back to Healthy.  Fault schedules come from
// the deterministic FaultInjectingSubstrate, so every transition in
// these tests happens at an exact operation number.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/health.h"
#include "core/library.h"
#include "substrate/component_substrates.h"
#include "substrate/fault_substrate.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::AllocationGuard;
using papirepro::test::FaultFixture;
using papirepro::test::SimFixture;

// ---- state machine in isolation ----------------------------------------

TEST(HealthStateMachine, ConsecutiveExhaustionsTripAndProbeRecovers) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  HealthMonitor m;
  m.bind(nullptr, f.substrate, 5);
  HealthPolicy p;
  p.max_consecutive_exhaustions = 2;
  p.window_min_ops = 0;  // isolate the consecutive-streak condition
  p.probe_cooldown_usec = 0;
  p.probe_cooldown_max_usec = 0;
  p.probation_successes = 2;
  m.set_policy(p);

  EXPECT_EQ(m.state(), HealthState::kHealthy);
  EXPECT_TRUE(m.admit().ok());

  m.record(Error::kConflict);  // first retry-exhausted transient
  EXPECT_EQ(m.state(), HealthState::kDegraded);
  EXPECT_TRUE(m.admit().ok());  // Degraded still admits

  m.record(Error::kConflict);  // second: streak reaches the trip point
  EXPECT_EQ(m.state(), HealthState::kQuarantined);
  EXPECT_EQ(m.snapshot().quarantines, 1u);
  EXPECT_EQ(m.snapshot().last_error, Error::kConflict);

  // Cool-down of zero: the next admit flips straight to Probation.
  EXPECT_TRUE(m.admit().ok());
  EXPECT_EQ(m.state(), HealthState::kProbation);
  m.record(Error::kOk);  // probe 1 of 2
  EXPECT_EQ(m.state(), HealthState::kProbation);
  EXPECT_TRUE(m.admit().ok());
  m.record(Error::kOk);  // probe 2 of 2: back in service
  EXPECT_EQ(m.state(), HealthState::kHealthy);
  const ComponentHealth h = m.snapshot();
  EXPECT_EQ(h.consecutive_exhaustions, 0u);
  EXPECT_EQ(h.window_ops, 0u);
  EXPECT_GE(h.probes, 2u);
  // Healthy -> Degraded -> Quarantined -> Probation -> Healthy.
  EXPECT_EQ(h.transitions, 4u);
}

TEST(HealthStateMachine, WindowFailureRateTripsWithoutAStreak) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  HealthMonitor m;
  m.bind(nullptr, f.substrate, 1);
  HealthPolicy p;
  p.max_consecutive_exhaustions = 1000;  // streak condition out of play
  p.window_min_ops = 8;
  p.failure_rate_threshold = 0.5;
  p.probe_cooldown_usec = 0;
  p.probe_cooldown_max_usec = 0;
  m.set_policy(p);

  // Alternating outcomes: the streak never exceeds one, but once eight
  // ops are in the window at half failures, the rate condition trips.
  m.record(Error::kConflict);
  m.record(Error::kOk);
  m.record(Error::kConflict);
  m.record(Error::kOk);
  m.record(Error::kConflict);
  m.record(Error::kOk);
  m.record(Error::kOk);
  EXPECT_EQ(m.state(), HealthState::kDegraded);
  m.record(Error::kConflict);  // op 8: 4/8 = 0.5 >= threshold
  EXPECT_EQ(m.state(), HealthState::kQuarantined);
}

TEST(HealthStateMachine, DeterministicErrorsNeverTripTheBreaker) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  HealthMonitor m;
  m.bind(nullptr, f.substrate, 0);
  HealthPolicy p;
  p.max_consecutive_exhaustions = 1;
  m.set_policy(p);
  // Non-transient outcomes (bad arguments, unsupported features) say
  // nothing about substrate health: no state change, however many.
  for (int i = 0; i < 20; ++i) {
    m.record(Error::kInvalid);
    m.record(Error::kNoSupport);
  }
  EXPECT_EQ(m.state(), HealthState::kHealthy);
  EXPECT_EQ(m.snapshot().last_error, Error::kNoSupport);
}

TEST(HealthStateMachine, DisabledPolicyAdmitsEverything) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  HealthMonitor m;
  m.bind(nullptr, f.substrate, 0);
  HealthPolicy p;
  p.enabled = false;
  p.max_consecutive_exhaustions = 1;
  m.set_policy(p);
  for (int i = 0; i < 10; ++i) m.record(Error::kConflict);
  EXPECT_EQ(m.state(), HealthState::kHealthy);
  EXPECT_TRUE(m.admit().ok());
}

TEST(HealthStateMachine, DegradedDrainsBackToHealthyOnCleanWindow) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  HealthMonitor m;
  m.bind(nullptr, f.substrate, 0);
  HealthPolicy p;
  p.max_consecutive_exhaustions = 4;
  p.window_min_ops = 4;
  p.failure_rate_threshold = 0.9;
  m.set_policy(p);
  m.record(Error::kConflict);
  EXPECT_EQ(m.state(), HealthState::kDegraded);
  // The last window_min_ops operations must all succeed to recover.
  m.record(Error::kOk);
  m.record(Error::kOk);
  m.record(Error::kOk);
  EXPECT_EQ(m.state(), HealthState::kDegraded);
  m.record(Error::kOk);
  EXPECT_EQ(m.state(), HealthState::kHealthy);
}

TEST(HealthStateMachine, ForceHealthyReopensImmediately) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  HealthMonitor m;
  m.bind(nullptr, f.substrate, 0);
  HealthPolicy p;
  p.max_consecutive_exhaustions = 1;
  p.probe_cooldown_usec = 1'000'000;
  p.probe_cooldown_max_usec = 1'000'000;
  m.set_policy(p);
  m.record(Error::kConflict);
  ASSERT_EQ(m.state(), HealthState::kQuarantined);
  m.force_healthy();
  EXPECT_EQ(m.state(), HealthState::kHealthy);
  EXPECT_TRUE(m.admit().ok());
  EXPECT_EQ(m.snapshot().cooldown_usec, 0u);
}

// ---- policy plumbing ----------------------------------------------------

TEST(HealthPolicyApi, LibraryValidatesAndAppliesPolicy) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  HealthPolicy p;
  p.failure_rate_threshold = 1.5;
  EXPECT_EQ(f.library->set_health_policy(p).error(), Error::kInvalid);
  p.failure_rate_threshold = -0.1;
  EXPECT_EQ(f.library->set_health_policy(p).error(), Error::kInvalid);
  p = HealthPolicy{};
  p.max_consecutive_exhaustions = 0;
  EXPECT_EQ(f.library->set_health_policy(p).error(), Error::kInvalid);
  p = HealthPolicy{};
  p.probation_successes = 0;
  EXPECT_EQ(f.library->set_health_policy(p).error(), Error::kInvalid);
  p = HealthPolicy{};
  p.probe_cooldown_usec = 100;
  p.probe_cooldown_max_usec = 50;  // cap below the base
  EXPECT_EQ(f.library->set_health_policy(p).error(), Error::kInvalid);

  p = HealthPolicy{};
  p.max_consecutive_exhaustions = 7;
  p.window_min_ops = 32;
  ASSERT_TRUE(f.library->set_health_policy(p).ok());
  const HealthPolicy got = f.library->health_policy();
  EXPECT_EQ(got.max_consecutive_exhaustions, 7u);
  EXPECT_EQ(got.window_min_ops, 32u);

  EXPECT_EQ(f.library->component_health(99).error(), Error::kNoComponent);
  const auto health = f.library->component_health(0);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().state, HealthState::kHealthy);
}

TEST(HealthPolicyApi, LateRegisteredComponentInheritsLibraryPolicy) {
  SimFixture f(sim::make_saxpy(4'000), pmu::sim_x86(),
               {.charge_costs = false});
  HealthPolicy p;
  p.max_consecutive_exhaustions = 1;  // hair trigger
  p.probe_cooldown_usec = 1'000'000;
  ASSERT_TRUE(f.library->set_health_policy(p).ok());

  // Registered *after* the policy change: the component must inherit it.
  FaultPlan plan;
  plan.at(FaultSite::kRead).fail_times = 1 << 20;
  auto wrapped = std::make_unique<FaultInjectingSubstrate>(
      std::make_unique<MemBandwidthSubstrate>(*f.machine), plan);
  const auto mem_id =
      f.library->register_component("mem", "x", std::move(wrapped));
  ASSERT_TRUE(mem_id.ok());

  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run(500);
  long long v[1] = {0};
  // One retry-exhausted read is enough under the inherited policy.
  EXPECT_FALSE(set.read({v, 1}).ok());
  EXPECT_EQ(f.library->component_health(mem_id.value()).value().state,
            HealthState::kQuarantined);
}

// ---- fail-fast: quarantine short-circuits the retry ladder --------------

TEST(HealthFailFast, QuarantinedComponentSkipsRetriesAndBackoff) {
  FaultPlan plan;
  plan.at(FaultSite::kRead).fail_times = 1 << 20;  // hard down
  FaultFixture f(sim::make_saxpy(8'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  HealthPolicy p;
  p.max_consecutive_exhaustions = 2;
  p.probe_cooldown_usec = 1'000'000'000;  // effectively forever in sim time
  p.probe_cooldown_max_usec = 1'000'000'000;
  ASSERT_TRUE(f.library->set_health_policy(p).ok());

  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run(500);

  long long v[1] = {0};
  // Two reads exhaust their retry budgets (3 attempts each) and trip the
  // breaker; the original transient code surfaces both times.
  EXPECT_EQ(set.read({v, 1}).error(), Error::kConflict);
  EXPECT_EQ(set.read({v, 1}).error(), Error::kConflict);
  ASSERT_EQ(f.library->component_health(0).value().state,
            HealthState::kQuarantined);

  const std::uint64_t retries_at_trip =
      f.library->telemetry_snapshot().value(
          TelemetryCounter::kRetryAttempts);
  const std::uint64_t consults_at_trip =
      f.fault->call_count(FaultSite::kRead);

  // Fail-fast phase: rejected before the retry wrapper, so neither the
  // retry telemetry nor the substrate's call count moves — the op never
  // sleeps in backoff and never touches the dead component.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(set.read({v, 1}).error(), Error::kComponentQuarantined);
  }
  const TelemetrySnapshot snap = f.library->telemetry_snapshot();
  EXPECT_EQ(snap.value(TelemetryCounter::kRetryAttempts),
            retries_at_trip);
  EXPECT_EQ(f.fault->call_count(FaultSite::kRead), consults_at_trip);
  EXPECT_EQ(snap.value(TelemetryCounter::kHealthFailFasts), 5u);
  EXPECT_GE(snap.value(TelemetryCounter::kHealthTransitions), 2u);

  const ComponentHealth h = f.library->component_health(0).value();
  EXPECT_EQ(h.fail_fasts, 5u);
  EXPECT_EQ(h.quarantines, 1u);
  EXPECT_EQ(h.last_error, Error::kConflict);
}

// ---- spanning sets: partial-failure reads and end-to-end recovery -------

/// SimFixture plus a mem component whose substrate is wrapped in the
/// fault decorator: cpu:: is always healthy, mem:: fails on schedule.
struct FaultyMemFixture {
  SimFixture sim;
  FaultInjectingSubstrate* fault = nullptr;  // owned by library
  std::uint32_t mem_id = 0;

  FaultyMemFixture(std::int64_t n, const FaultPlan& plan)
      : sim(sim::make_saxpy(n), pmu::sim_x86(), {.charge_costs = false}) {
    auto wrapped = std::make_unique<FaultInjectingSubstrate>(
        std::make_unique<MemBandwidthSubstrate>(*sim.machine), plan);
    fault = wrapped.get();
    mem_id = sim.library
                 ->register_component("mem", "faulty uncore",
                                      std::move(wrapped))
                 .value();
  }
  Library& library() { return *sim.library; }
};

TEST(HealthFailFast, QuarantinedReadExMakesNoAllocations) {
  FaultPlan plan;
  plan.at(FaultSite::kRead).fail_times = 1 << 20;  // mem hard down
  FaultyMemFixture f(8'000, plan);
  HealthPolicy p;
  p.max_consecutive_exhaustions = 1;
  p.probe_cooldown_usec = 1'000'000'000'000ULL;  // never re-probe
  p.probe_cooldown_max_usec = p.probe_cooldown_usec;
  ASSERT_TRUE(f.library().set_health_policy(p).ok());

  EventSet& set = f.sim.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::BANDWIDTH_RD").ok());
  ASSERT_TRUE(set.start().ok());
  std::vector<long long> v(2, 0);
  std::vector<std::uint32_t> flags(2, 0);
  // One exhausted read trips the breaker.
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  ASSERT_EQ(f.library().component_health(f.mem_id).value().state,
            HealthState::kQuarantined);

  int failed = 0;
  AllocationGuard guard;
  for (int i = 0; i < 1000; ++i) failed += !set.read_ex(v, flags).ok();
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(flags[0], read_flag::kValid);
  EXPECT_EQ(flags[1], read_flag::kStale | read_flag::kQuarantined);
}

TEST(HealthRecovery, SpanningSetReadsThroughOutageAndSelfHeals) {
  FaultPlan plan;
  // Deterministic outage: the first mem read passes (latching good
  // values), the next six fail — exactly two retry-exhausted read ops
  // under the default 3-attempt budget — then the substrate recovers.
  plan.at(FaultSite::kRead).fail_after = 1;
  plan.at(FaultSite::kRead).fail_times = 6;
  FaultyMemFixture f(200'000, plan);

  HealthPolicy p;
  p.max_consecutive_exhaustions = 2;
  p.probe_cooldown_usec = 1;  // sim clock: frozen unless the machine runs
  p.probe_cooldown_max_usec = 1;
  p.probation_successes = 1;
  ASSERT_TRUE(f.library().set_health_policy(p).ok());

  EventSet& set = f.sim.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());
  ASSERT_TRUE(set.start().ok());

  std::vector<long long> v(2, -1);
  std::vector<std::uint32_t> flags(2, 99);

  // Read 1: everything healthy and fresh.
  f.sim.machine->run(3'000);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[0], read_flag::kValid);
  EXPECT_EQ(flags[1], read_flag::kValid);
  const long long cpu_1 = v[0];
  const long long mem_latched = v[1];
  EXPECT_GT(cpu_1, 0);

  // Read 2: mem slice exhausts its retries; the call still succeeds,
  // cpu delivers fresh values, mem reports the latched reading as stale.
  f.sim.machine->run(3'000);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[0], read_flag::kValid);
  EXPECT_GT(v[0], cpu_1);
  EXPECT_EQ(flags[1], read_flag::kStale);
  EXPECT_EQ(v[1], mem_latched);
  EXPECT_EQ(f.library().component_health(f.mem_id).value().state,
            HealthState::kDegraded);

  // Read 3: second exhaustion trips the breaker.
  f.sim.machine->run(3'000);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[1], read_flag::kStale);
  EXPECT_EQ(v[1], mem_latched);
  ASSERT_EQ(f.library().component_health(f.mem_id).value().state,
            HealthState::kQuarantined);

  // Read 4, inside the cool-down (the sim clock has not advanced since
  // the trip): mem fails fast without consulting the substrate, and the
  // flags say both "stale" and "quarantined".
  const std::uint64_t consults =
      f.fault->call_count(FaultSite::kRead);
  const std::uint64_t retries = f.library().telemetry_snapshot().value(
      TelemetryCounter::kRetryAttempts);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[0], read_flag::kValid);
  EXPECT_GT(v[0], 0);
  EXPECT_EQ(flags[1], read_flag::kStale | read_flag::kQuarantined);
  EXPECT_EQ(v[1], mem_latched);
  EXPECT_EQ(f.fault->call_count(FaultSite::kRead), consults);
  EXPECT_EQ(f.library().telemetry_snapshot().value(
                TelemetryCounter::kRetryAttempts),
            retries);
  EXPECT_GE(f.library().component_health(f.mem_id).value().fail_fasts,
            1u);

  // Advance simulated time past the cool-down.  Read 5 is admitted as a
  // probe; the fault script is exhausted, the probe succeeds, and the
  // component returns to Healthy in the same call.
  f.sim.machine->run(60'000);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[0], read_flag::kValid);
  EXPECT_EQ(flags[1], read_flag::kValid);
  EXPECT_GE(v[1], mem_latched);  // fresh reading again
  const ComponentHealth h =
      f.library().component_health(f.mem_id).value();
  EXPECT_EQ(h.state, HealthState::kHealthy);
  EXPECT_EQ(h.quarantines, 1u);
  EXPECT_GE(h.probes, 1u);
  EXPECT_GE(f.library().telemetry_snapshot().value(
                TelemetryCounter::kHealthProbes),
            1u);

  // Back in service end to end: plain read() works again.
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.stop(v).ok());
}

TEST(HealthRecovery, LegacyReadStillFailsWholeCallOnQuarantine) {
  // The classic all-or-nothing read() contract is unchanged: once the
  // mem component is quarantined, read() surfaces the health error
  // instead of silently delivering partial data.
  FaultPlan plan;
  plan.at(FaultSite::kRead).fail_times = 1 << 20;
  FaultyMemFixture f(20'000, plan);
  HealthPolicy p;
  p.max_consecutive_exhaustions = 1;
  p.probe_cooldown_usec = 1'000'000'000;
  p.probe_cooldown_max_usec = 1'000'000'000;
  ASSERT_TRUE(f.library().set_health_policy(p).ok());

  EventSet& set = f.sim.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_named("mem::L2_MISSES").ok());
  ASSERT_TRUE(set.start().ok());
  f.sim.machine->run(1'000);
  std::vector<long long> v(2, 0);
  EXPECT_EQ(set.read(v).error(), Error::kConflict);  // trips here
  EXPECT_EQ(set.read(v).error(), Error::kComponentQuarantined);

  // read_ex on the same set still serves the cpu slice.
  std::vector<std::uint32_t> flags(2, 0);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[0], read_flag::kValid);
  EXPECT_EQ(flags[1], read_flag::kStale | read_flag::kQuarantined);
}

TEST(HealthRecovery, ReadExValidatesSizesAndState) {
  SimFixture f(sim::make_saxpy(1'000), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  std::vector<long long> v;
  std::vector<std::uint32_t> flags(1, 0);
  EXPECT_EQ(set.read_ex(v, flags).error(), Error::kInvalid);  // out short
  v.resize(1);
  flags.clear();
  EXPECT_EQ(set.read_ex(v, flags).error(), Error::kInvalid);  // flags short
  flags.resize(1);
  EXPECT_EQ(set.read_ex(v, flags).error(), Error::kNotRunning);

  // After a clean run, post-stop read_ex returns the frozen snapshot
  // with valid flags.
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop(v).ok());
  const long long frozen = v[0];
  v[0] = -1;
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(v[0], frozen);
  EXPECT_EQ(flags[0], read_flag::kValid);
}

// ---- counter sanity guard ----------------------------------------------

TEST(HealthSanityGuard, NonMonotonicDeltaLatchesAndFlagsSuspect) {
  FaultPlan plan;
  // After two good reads, one read reports values rewound far below the
  // running total — an impossible backwards delta.
  plan.read_rewind_after = 2;
  plan.read_rewind_times = 1;
  plan.read_rewind_delta = 1'000'000'000ULL;
  FaultFixture f(sim::make_saxpy(50'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});

  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.start().ok());

  std::vector<long long> v(1, 0);
  std::vector<std::uint32_t> flags(1, 0);
  f.machine->run(2'000);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[0], read_flag::kValid);
  f.machine->run(2'000);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[0], read_flag::kValid);
  const long long last_good = v[0];
  EXPECT_GT(last_good, 0);

  // The rewound read: the fold path refuses to move backwards — the
  // value holds at the last good reading and the event is flagged.
  f.machine->run(2'000);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(v[0], last_good);
  EXPECT_EQ(flags[0], read_flag::kSuspect);
  EXPECT_GE(f.library->telemetry_snapshot().value(
                TelemetryCounter::kSanityFaults),
            1u);

  // The counter comes back: values resume advancing, but the suspect
  // flag is sticky — totals crossed a discontinuity.
  f.machine->run(2'000);
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_GT(v[0], last_good);
  EXPECT_EQ(flags[0], read_flag::kSuspect);

  // reset() clears the verdict along with the counts.
  ASSERT_TRUE(set.reset().ok());
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_EQ(flags[0], read_flag::kValid);
  ASSERT_TRUE(set.stop().ok());
}

}  // namespace
}  // namespace papirepro::papi
