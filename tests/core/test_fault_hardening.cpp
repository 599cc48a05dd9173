// Retry/degradation hardening of the portable layers, exercised against
// the FaultInjectingSubstrate.  This is the fault matrix of the issue's
// acceptance criteria: (a) scripted transient program() failures are
// retried and the run completes with correct counts, (b) a permanent
// fault surfaces the original substrate error code — never a retry
// artifact, (c) narrow-counter wraparound runs produce the same totals
// as full-width runs, and everything is deterministic given the plan
// seed.  The environment variable PAPIREPRO_FAULT_SEEDS (used by the CI
// fault-matrix job) widens the seeded tests across N extra seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/eventset.h"
#include "core/library.h"
#include "pmu/platform.h"
#include "substrate/component_substrates.h"
#include "substrate/fault_substrate.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::FaultFixture;

/// Seeds for the seed-sweep tests: always the baseline seed, plus
/// PAPIREPRO_FAULT_SEEDS derived ones when the CI matrix asks for them.
std::vector<std::uint64_t> fault_seeds() {
  std::vector<std::uint64_t> seeds = {0x5eedfa17ULL};
  if (const char* env = std::getenv("PAPIREPRO_FAULT_SEEDS")) {
    const int extra = std::atoi(env);
    for (int i = 1; i <= extra; ++i) {
      seeds.push_back(0x5eedfa17ULL + 0x9e3779b9ULL * i);
    }
  }
  return seeds;
}

TEST(FaultHardening, RetryPolicyValidation) {
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), FaultPlan{});
  EXPECT_EQ(f.library->set_retry_policy({0, 0}).error(), Error::kInvalid);
  EXPECT_EQ(f.library->set_retry_policy({-3, 0}).error(), Error::kInvalid);
  ASSERT_TRUE(f.library->set_retry_policy({5, 10}).ok());
  EXPECT_EQ(f.library->retry_policy().max_attempts, 5);
  EXPECT_EQ(f.library->retry_policy().backoff_base_usec, 10u);
}

TEST(FaultHardening, TransientErrorsClassified) {
  EXPECT_TRUE(is_transient(Error::kConflict));
  EXPECT_TRUE(is_transient(Error::kNoCounters));
  EXPECT_TRUE(is_transient(Error::kSystem));
  EXPECT_FALSE(is_transient(Error::kInvalid));
  EXPECT_FALSE(is_transient(Error::kNoSupport));
  EXPECT_FALSE(is_transient(Error::kOk));
}

// Acceptance (a): scripted transient program() failure is retried and
// the run succeeds with correct counts.
TEST(FaultHardening, TransientProgramFaultRetriedToCorrectCounts) {
  FaultPlan plan;
  plan.at(FaultSite::kProgram) = {/*fail_times=*/2, 0.0, Error::kConflict};
  FaultFixture f(sim::make_saxpy(2000), pmu::sim_x86(), plan);
  // Default policy: 3 attempts — exactly enough for a fail-twice script.
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  EXPECT_EQ(f.fault->injected_count(FaultSite::kProgram), 2u);
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_EQ(static_cast<std::uint64_t>(v[0]), f.machine->retired());
  EXPECT_EQ(set.degradations(), 0u);  // recovered fully, not degraded
}

TEST(FaultHardening, TransientCreateContextFaultRetried) {
  FaultPlan plan;
  plan.at(FaultSite::kCreateContext) = {2, 0.0, Error::kNoCounters};
  FaultFixture f(sim::make_saxpy(2000), pmu::sim_x86(), plan);
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());  // first start also registers the thread
  EXPECT_EQ(f.fault->injected_count(FaultSite::kCreateContext), 2u);
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_EQ(static_cast<std::uint64_t>(v[0]), f.machine->retired());
}

TEST(FaultHardening, ScriptedReadFaultRetriedToExactValue) {
  FaultPlan plan;
  plan.at(FaultSite::kRead) = {2, 0.0, Error::kSystem};
  FaultFixture f(sim::make_saxpy(2000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.read(v).ok());  // absorbed both scripted read faults
  EXPECT_EQ(f.fault->injected_count(FaultSite::kRead), 2u);
  EXPECT_EQ(static_cast<std::uint64_t>(v[0]), f.machine->retired());
  ASSERT_TRUE(set.stop().ok());
}

// Acceptance (b): when the fault is permanent, the caller sees the
// original substrate error code — not a retry artifact.
TEST(FaultHardening, ExhaustedRetriesSurfaceOriginalTransientCode) {
  FaultPlan plan;
  plan.at(FaultSite::kProgram) = {/*fail_times=*/1000, 0.0,
                                  Error::kNoCounters};
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  const Status started = set.start();
  EXPECT_EQ(started.error(), Error::kNoCounters);
  EXPECT_FALSE(set.running());
  // The retry budget (3 attempts) was spent before giving up.
  EXPECT_EQ(f.fault->injected_count(FaultSite::kProgram), 3u);
}

TEST(FaultHardening, PermanentFaultNotRetried) {
  // kNoSupport is not transient: exactly one attempt, original code out.
  FaultPlan plan;
  plan.at(FaultSite::kProgram) = {1000, 0.0, Error::kNoSupport};
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  EXPECT_EQ(set.start().error(), Error::kNoSupport);
  EXPECT_EQ(f.fault->call_count(FaultSite::kProgram), 1u);
}

TEST(FaultHardening, RetriesDisabledByPolicy) {
  FaultPlan plan;
  plan.at(FaultSite::kProgram) = {1, 0.0, Error::kConflict};
  FaultFixture f(sim::make_saxpy(2000), pmu::sim_x86(), plan);
  ASSERT_TRUE(f.library->set_retry_policy({1, 0}).ok());  // no retries
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  EXPECT_EQ(set.start().error(), Error::kConflict);
  // The transient has passed; the same call now succeeds — proving the
  // first failure really was surfaced rather than absorbed.
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.stop(v).ok());
  EXPECT_EQ(static_cast<std::uint64_t>(v[0]), f.machine->retired());
}

// Satellite regression: a create_context() failure during implicit
// registration must not leak a half-registered thread slot.
TEST(FaultHardening, ThreadSlotReleasedOnCreateContextFailure) {
  FaultPlan plan;
  plan.at(FaultSite::kCreateContext) = {1, 0.0, Error::kNoCounters};
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
  ASSERT_TRUE(f.library->set_retry_policy({1, 0}).ok());  // no retries
  EXPECT_EQ(f.library->register_thread().error(), Error::kNoCounters);
  // The failed registration left no ghost slot behind...
  EXPECT_EQ(f.library->num_threads(), 0u);
  // ...so the next attempt can claim the thread cleanly.
  ASSERT_TRUE(f.library->register_thread().ok());
  EXPECT_EQ(f.library->num_threads(), 1u);
  ASSERT_TRUE(f.library->unregister_thread().ok());
  EXPECT_EQ(f.library->num_threads(), 0u);
}

// Acceptance (c): a 32-bit-counter run yields the same totals as the
// 64-bit run of the same workload.
TEST(FaultHardening, ThirtyTwoBitCountersMatchFullWidth) {
  auto totals = [](std::uint32_t width) {
    FaultPlan plan;
    plan.counter_width_bits = width;
    FaultFixture f(sim::make_matmul(24), pmu::sim_x86(), plan,
                   {.charge_costs = false});
    EventSet& set = f.new_set();
    EXPECT_TRUE(set.add_named("PAPI_TOT_INS").ok());
    EXPECT_TRUE(set.add_named("PAPI_L1_DCM").ok());
    EXPECT_TRUE(set.start().ok());
    f.machine->run();
    std::vector<long long> v(2);
    EXPECT_TRUE(set.stop(v).ok());
    return v;
  };
  EXPECT_EQ(totals(32), totals(64));
}

TEST(FaultHardening, NarrowCountersFoldAcrossWraps) {
  // 18-bit counters wrap every 262144 counts; saxpy(150k) retires ~1M
  // instructions, so the raw register wraps several times.  Folding the
  // deltas of periodic reads must recover the exact 64-bit totals.
  auto totals = [](std::uint32_t width) {
    FaultPlan plan;
    plan.counter_width_bits = width;
    FaultFixture f(sim::make_saxpy(150'000), pmu::sim_x86(), plan,
                   {.charge_costs = false});
    EventSet& set = f.new_set();
    EXPECT_TRUE(set.add_named("PAPI_TOT_INS").ok());
    EXPECT_TRUE(set.start().ok());
    std::vector<long long> v(1);
    // Read every 100k instructions — far under one wrap period of
    // deltas, far over the register capacity in total.
    while (!f.machine->halted()) {
      f.machine->run(100'000);
      EXPECT_TRUE(set.read(v).ok());
    }
    EXPECT_TRUE(set.stop(v).ok());
    EXPECT_EQ(static_cast<std::uint64_t>(v[0]), f.machine->retired());
    return v;
  };
  const auto narrow = totals(18);
  const auto wide = totals(64);
  EXPECT_EQ(narrow, wide);
  EXPECT_GT(narrow[0], 1 << 18);  // the register really did wrap
}

TEST(FaultHardening, ResetClearsFoldingState) {
  FaultPlan plan;
  plan.counter_width_bits = 20;
  FaultFixture f(sim::make_saxpy(100'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run(200'000);
  const std::uint64_t before_reset = f.machine->retired();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.reset().ok());
  f.machine->run(100'000);
  ASSERT_TRUE(set.read(v).ok());
  EXPECT_EQ(static_cast<std::uint64_t>(v[0]),
            f.machine->retired() - before_reset);
  ASSERT_TRUE(set.stop().ok());
}

// Degradation ladder rung 2: multiplex without a timer service falls
// back to sequential slices rotated by read(), loudly flagged.
TEST(FaultHardening, MuxTimerFailureDegradesToSequentialSlices) {
  FaultPlan plan;
  plan.at(FaultSite::kAddTimer) = {1000, 0.0, Error::kNoSupport};
  FaultFixture f(sim::make_saxpy(400'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.enable_multiplex(/*slice_cycles=*/20'000).ok());
  for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                           "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_L1_DCA"}) {
    ASSERT_TRUE(set.add_named(name).ok()) << name;
  }
  ASSERT_TRUE(set.start().ok());
  EXPECT_EQ(set.degradations() & degradation::kMuxSequential,
            degradation::kMuxSequential);
  // Reads drive the rotation the dead timer no longer provides.
  std::vector<long long> v(set.num_events());
  while (!f.machine->halted()) {
    f.machine->run(30'000);
    ASSERT_TRUE(set.read(v).ok());
  }
  ASSERT_TRUE(set.stop(v).ok());
  // Estimates converge despite the dead timer (looser than the timer
  // path: rotation cadence follows the read loop).
  const double n = 400'000;
  EXPECT_NEAR(static_cast<double>(v[0]), n, 0.20 * n);          // FMA
  EXPECT_NEAR(static_cast<double>(v[1]), 2 * n, 0.20 * 2 * n);  // LD
  EXPECT_NEAR(static_cast<double>(v[4]), n, 0.20 * n);          // BR
}

TEST(FaultHardening, MuxTimerHealthyMeansNoDegradationFlag) {
  FaultFixture f(sim::make_saxpy(100'000), pmu::sim_x86(), FaultPlan{},
                 {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.enable_multiplex(20'000).ok());
  ASSERT_TRUE(set.add_named("PAPI_FMA_INS").ok());
  ASSERT_TRUE(set.add_named("PAPI_LD_INS").ok());
  ASSERT_TRUE(set.add_named("PAPI_SR_INS").ok());
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.add_named("PAPI_BR_INS").ok());
  ASSERT_TRUE(set.start().ok());
  EXPECT_EQ(set.degradations(), 0u);
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());
}

TEST(FaultHardening, MuxSurvivesDroppedTimerSlices) {
  // A lossy timer (every other firing swallowed) stretches slices but
  // must not corrupt estimates — active-cycle scaling absorbs it.
  FaultPlan plan;
  plan.timer_drop_probability = 0.5;
  FaultFixture f(sim::make_saxpy(400'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.enable_multiplex(10'000).ok());
  for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                           "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_L1_DCA"}) {
    ASSERT_TRUE(set.add_named(name).ok()) << name;
  }
  ASSERT_TRUE(set.start().ok());
  EXPECT_EQ(set.degradations(), 0u);  // timer armed fine, just lossy
  f.machine->run();
  std::vector<long long> v(set.num_events());
  ASSERT_TRUE(set.stop(v).ok());
  const double n = 400'000;
  EXPECT_NEAR(static_cast<double>(v[0]), n, 0.15 * n);  // FMA
  EXPECT_NEAR(static_cast<double>(v[4]), n, 0.15 * n);  // BR
}

// Acceptance: all of it is deterministic — the same plan seed produces
// bit-identical counts, call outcomes and injection traces across
// independent runs.  With 0.2 odds per attempt and 3 attempts, about
// 0.8 % of reads exhaust their retries, and so does a start() now and
// then (its first program() is scripted to fail: 2 of the first 201
// seeds); each such call fails, and only such calls may.
TEST(FaultHardening, FaultyRunsDeterministicPerSeed) {
  for (const std::uint64_t seed : fault_seeds()) {
    auto run_once = [seed] {
      FaultPlan plan;
      plan.seed = seed;
      plan.at(FaultSite::kProgram) = {1, /*probability=*/0.2,
                                      Error::kConflict};
      plan.at(FaultSite::kRead) = {0, /*probability=*/0.2, Error::kSystem};
      plan.counter_width_bits = 24;
      FaultFixture f(sim::make_saxpy(50'000), pmu::sim_x86(), plan,
                     {.charge_costs = false});
      EventSet& set = f.new_set();
      EXPECT_TRUE(set.add_named("PAPI_TOT_INS").ok());
      EXPECT_TRUE(set.add_named("PAPI_L1_DCA").ok());
      // Every call's status, then the values it left in `v`.
      std::vector<long long> out;
      std::uint64_t failed = 0;
      const auto note = [&](Status s) {
        out.push_back(static_cast<long long>(s.error()));
        failed += s.ok() ? 0 : 1;
        return s.ok();
      };
      std::vector<long long> v(2);
      if (note(set.start())) {
        while (!f.machine->halted()) {
          f.machine->run(20'000);
          note(set.read(v));
          out.insert(out.end(), v.begin(), v.end());
        }
        note(set.stop(v));
        out.insert(out.end(), v.begin(), v.end());
      }
      EXPECT_EQ(f.library->telemetry_snapshot().value(
                    TelemetryCounter::kRetryExhaustions),
                failed)
          << "seed " << seed;
      out.push_back(static_cast<long long>(
          f.fault->injected_count(FaultSite::kProgram)));
      out.push_back(static_cast<long long>(
          f.fault->injected_count(FaultSite::kRead)));
      return out;
    };
    EXPECT_EQ(run_once(), run_once()) << "seed " << seed;
  }
}

// Probabilistic faults under retry: whatever the seed injects on the
// read path, the retry layer must keep totals exact (reads are
// idempotent, so a retried read loses nothing).
TEST(FaultHardening, ProbabilisticReadFaultsNeverCorruptTotals) {
  for (const std::uint64_t seed : fault_seeds()) {
    FaultPlan plan;
    plan.seed = seed;
    plan.at(FaultSite::kRead) = {0, /*probability=*/0.3, Error::kSystem};
    FaultFixture f(sim::make_saxpy(50'000), pmu::sim_x86(), plan,
                   {.charge_costs = false});
    ASSERT_TRUE(f.library->set_retry_policy({10, 0}).ok());
    EventSet& set = f.new_set();
    ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
    ASSERT_TRUE(set.start().ok());
    std::vector<long long> v(1);
    while (!f.machine->halted()) {
      f.machine->run(10'000);
      ASSERT_TRUE(set.read(v).ok());
    }
    ASSERT_TRUE(set.stop(v).ok());
    EXPECT_EQ(static_cast<std::uint64_t>(v[0]), f.machine->retired())
        << "seed " << seed;
    EXPECT_GT(f.fault->injected_count(FaultSite::kRead), 0u);
  }
}

/// A cpu+mem set (TOT_INS, mem::L2_MISSES) with both components behind
/// fault decorators, retries on and a health policy that never
/// quarantines.  Built with injection off, so start()'s own reset is
/// not under test; fault() turns it on.
struct ConservationRig {
  FaultFixture f;
  FaultInjectingSubstrate* mem = nullptr;  // owned by library
  EventSet* set = nullptr;
  std::uint64_t retired_at_start = 0;
  std::uint64_t misses_at_start = 0;

  ConservationRig(const FaultPlan& cpu_plan, const FaultPlan& mem_plan)
      : f(sim::make_saxpy(60'000), pmu::sim_x86(), cpu_plan,
          {.charge_costs = false}) {
    auto wrapped = std::make_unique<FaultInjectingSubstrate>(
        std::make_unique<MemBandwidthSubstrate>(*f.machine), mem_plan);
    mem = wrapped.get();
    EXPECT_TRUE(f.library
                    ->register_component("mem", "faulty uncore",
                                         std::move(wrapped))
                    .ok());
    HealthPolicy never;
    never.max_consecutive_exhaustions = ~0u;
    never.window_min_ops = 0;  // no failure-rate trip either
    EXPECT_TRUE(f.library->set_health_policy(never).ok());
    EXPECT_TRUE(f.library->set_retry_policy({3, 0}).ok());
    set = &f.new_set();
    EXPECT_TRUE(set->add_named("PAPI_TOT_INS").ok());
    EXPECT_TRUE(set->add_named("mem::L2_MISSES").ok());
    fault(false);
    retired_at_start = f.machine->retired();
    misses_at_start = f.machine->l2().stats().misses;
    EXPECT_TRUE(set->start().ok());
    fault(true);
  }

  void fault(bool enabled) {
    f.fault->set_enabled(enabled);
    mem->set_enabled(enabled);
  }

  /// Stops fault-free (a failing final read would serve latched
  /// values) and checks that `sum` plus stop()'s finals are the
  /// machine's totals since start().
  void expect_conserved(std::vector<long long> sum) {
    fault(false);
    std::vector<long long> finals(2, -1);
    ASSERT_TRUE(set->stop(finals).ok());
    EXPECT_EQ(sum[0] + finals[0],
              static_cast<long long>(f.machine->retired() -
                                     retired_at_start));
    EXPECT_EQ(sum[1] + finals[1],
              static_cast<long long>(f.machine->l2().stats().misses -
                                     misses_at_start));
  }
};

// Conservation under faults: an accum either zeroes a slice and returns
// its values or leaves it counting from its old zero point, so the
// values every accum adds, plus stop()'s finals, are the machine's
// totals exactly — whichever reads and resets fail, and whether an
// accum fails before the cpu slice, or after it at the mem slice.
TEST(FaultHardening, AccumConservesCountsUnderReadAndResetFaults) {
  for (const std::uint64_t seed : fault_seeds()) {
    SCOPED_TRACE(seed);
    FaultPlan plan;
    plan.seed = seed;
    plan.at(FaultSite::kRead) = {0, /*probability=*/0.25, Error::kSystem};
    plan.at(FaultSite::kReset) = {0, /*probability=*/0.25, Error::kSystem};
    FaultPlan mem_plan = plan;
    mem_plan.seed = seed ^ 0x3e3e3e3eULL;
    ConservationRig rig(plan, mem_plan);
    std::vector<long long> sum(2, 0);
    std::vector<long long> v(2);
    int failed_accums = 0;
    while (!rig.f.machine->halted()) {
      rig.f.machine->run(1'500);
      (void)rig.set->read(v);  // reads between accums draw faults too
      failed_accums += !rig.set->accum(sum).ok();
    }
    rig.expect_conserved(sum);
    EXPECT_GT(failed_accums, 0);
    EXPECT_GT(rig.f.fault->injected_count(FaultSite::kReset), 0u);
    EXPECT_GT(rig.mem->injected_count(FaultSite::kReset), 0u);
  }
}

// The scripted case: the mem slice's reset fails for good after its
// read succeeded, once the cpu slice was zeroed.  The cpu values go into
// `inout`, the mem values do not, and the cpu slice counts on from the
// accum with trusted folds.
TEST(FaultHardening, AccumKeepsTheZeroedSliceWhenALaterSliceFails) {
  FaultPlan mem_plan;
  // The first accum's reset passes; the second accum's three attempts
  // fail (start()'s reset ran with injection off).
  mem_plan.at(FaultSite::kReset) = {
      .fail_times = 3, .error = Error::kSystem, .fail_after = 1};
  ConservationRig rig(FaultPlan{}, mem_plan);
  sim::Machine& m = *rig.f.machine;
  std::vector<long long> sum(2, 0);
  m.run(10'000);
  ASSERT_TRUE(rig.set->accum(sum).ok());
  const long long misses_at_accum =
      static_cast<long long>(m.l2().stats().misses);
  m.run(10'000);
  EXPECT_EQ(rig.set->accum(sum).error(), Error::kSystem);
  EXPECT_EQ(rig.mem->injected_count(FaultSite::kReset), 3u);
  const auto retired = [&] {
    return static_cast<long long>(m.retired() - rig.retired_at_start);
  };
  EXPECT_EQ(sum[0], retired());
  EXPECT_EQ(sum[1], misses_at_accum - static_cast<long long>(
                                          rig.misses_at_start));

  m.run(2'000);
  std::vector<long long> v(2, -1);
  std::vector<std::uint32_t> flags(2, ~0u);
  ASSERT_TRUE(rig.set->read_ex(v, flags).ok());
  EXPECT_EQ(v[0], retired() - sum[0]);
  EXPECT_EQ(v[1],
            static_cast<long long>(m.l2().stats().misses) - misses_at_accum);
  EXPECT_EQ(flags, std::vector<std::uint32_t>(2, read_flag::kValid));
  ASSERT_TRUE(rig.set->accum(sum).ok());
  m.run();
  rig.expect_conserved(sum);
}

}  // namespace
}  // namespace papirepro::papi
