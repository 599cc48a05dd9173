// The one EventSet read pipeline: read(), read_ex(), accum(), stop()
// and reads of a stopped set all run the same pass over the set's
// component slices, whatever the set's shape.  This table pins that
// merge for every shape — direct, cpu+mem spanning, 24-bit folded,
// timer-multiplexed and sequential-multiplexed — with tracing off and
// on: the calls return the same values and flags either way, each call
// bumps exactly its own telemetry, and none of them allocates.
#include <algorithm>
#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "core/eventset.h"
#include "substrate/component_substrates.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::AllocationGuard;
using papirepro::test::FaultFixture;

struct Shape {
  const char* name;
  FaultPlan plan;
  bool spanning = false;  ///< adds mem::L2_MISSES: a cpu+mem set
  bool multiplex = false;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  out.push_back({.name = "direct"});
  out.push_back({.name = "cpu+mem spanning", .spanning = true});
  Shape folded{.name = "24-bit folded"};
  folded.plan.counter_width_bits = 24;
  out.push_back(folded);
  out.push_back({.name = "timer-multiplexed", .multiplex = true});
  // No timer service: slices rotate on every read-shaped call instead.
  Shape sequential{.name = "sequential-multiplexed", .multiplex = true};
  sequential.plan.at(FaultSite::kAddTimer).fail_times = 1'000;
  out.push_back(sequential);
  return out;
}

/// One shape on a fresh machine: the set is built but not started.
struct Rig {
  FaultFixture f;
  EventSet* set = nullptr;
  std::vector<std::uint32_t> components;  ///< the set's slices, ascending

  Rig(const Shape& shape, bool tracing)
      : f(sim::make_saxpy(60'000), pmu::sim_x86(), shape.plan,
          {.charge_costs = false}) {
    components.push_back(0);
    if (shape.spanning) {
      components.push_back(
          f.library
              ->register_component(
                  "mem", "uncore counters",
                  std::make_unique<MemBandwidthSubstrate>(*f.machine))
              .value());
    }
    if (tracing) {
      EXPECT_TRUE(f.library->set_trace(true).ok());
    }
    set = &f.new_set();
    if (shape.multiplex) {
      EXPECT_TRUE(set->enable_multiplex(/*slice_cycles=*/20'000).ok());
      for (const char* name :
           {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS", "PAPI_TOT_INS",
            "PAPI_BR_INS", "PAPI_L1_DCA"}) {
        EXPECT_TRUE(set->add_named(name).ok()) << name;
      }
    } else {
      EXPECT_TRUE(set->add_preset(Preset::kTotIns).ok());
      EXPECT_TRUE(set->add_named(shape.spanning ? "mem::L2_MISSES"
                                                : "PAPI_TOT_CYC")
                      .ok());
    }
  }
};

/// What one call did: its status, outputs, heap allocations, and the
/// telemetry it bumped (deltas).
struct Call {
  Status status;
  std::vector<long long> values;
  std::vector<std::uint32_t> flags;
  std::uint64_t allocations = 0;
  std::uint64_t reads = 0, accums = 0, resets = 0, stops = 0;
  std::uint64_t trace_records = 0, rotations = 0;
  std::array<std::uint64_t, kTelemetryMaxComponents> component_reads{};
};

template <typename Op>
Call measure(Rig& rig, Op&& op) {
  Call c;
  c.values.assign(rig.set->num_events(), 0);
  c.flags.assign(rig.set->num_events(), 0);
  const TelemetrySnapshot before = rig.f.library->telemetry_snapshot();
  {
    AllocationGuard guard;
    c.status = op(c);
    c.allocations = guard.delta();
  }
  const TelemetrySnapshot after = rig.f.library->telemetry_snapshot();
  const auto delta = [&](TelemetryCounter counter) {
    return after.value(counter) - before.value(counter);
  };
  c.reads = delta(TelemetryCounter::kReads);
  c.accums = delta(TelemetryCounter::kAccums);
  c.resets = delta(TelemetryCounter::kResets);
  c.stops = delta(TelemetryCounter::kStops);
  c.trace_records = delta(TelemetryCounter::kTraceRecords);
  c.rotations = delta(TelemetryCounter::kMuxRotations);
  for (std::size_t comp = 0; comp < kTelemetryMaxComponents; ++comp) {
    c.component_reads[comp] =
        after.component_value(comp, ComponentCounter::kReads) -
        before.component_value(comp, ComponentCounter::kReads);
  }
  return c;
}

/// Every read-shaped call once, on a warmed-up set: read, read_ex and
/// accum while running, then stop, then read and read_ex of the
/// stopped set.
std::vector<Call> run_calls(Rig& rig) {
  EventSet& set = *rig.set;
  std::vector<long long> v(set.num_events());
  std::vector<std::uint32_t> flags(set.num_events());
  // Warm-up cycle: registers this thread's telemetry slab and trace
  // ring, sizes the substrate's scratch for every mux group, and takes
  // the first stop() through its caches.
  EXPECT_TRUE(set.start().ok());
  rig.f.machine->run(2'000);
  EXPECT_TRUE(set.read(v).ok());
  EXPECT_TRUE(set.read_ex(v, flags).ok());
  EXPECT_TRUE(set.accum(v).ok());
  EXPECT_TRUE(set.stop(v).ok());
  EXPECT_TRUE(set.read(v).ok());

  EXPECT_TRUE(set.start().ok());
  std::vector<Call> calls;
  const auto step = [&](auto&& op) {
    rig.f.machine->run(5'000);
    calls.push_back(measure(rig, op));
  };
  step([&](Call& c) { return set.read(c.values); });
  step([&](Call& c) { return set.read_ex(c.values, c.flags); });
  step([&](Call& c) { return set.accum(c.values); });
  step([&](Call& c) { return set.stop(c.values); });
  step([&](Call& c) { return set.read(c.values); });
  step([&](Call& c) { return set.read_ex(c.values, c.flags); });
  return calls;
}

enum CallIndex { kRead, kReadEx, kAccum, kStop, kReadStopped, kReadExStopped };

void expect_telemetry(const Rig& rig, const Call& c, CallIndex which,
                      bool tracing) {
  const bool live = which <= kAccum;
  const bool counted = which != kStop;
  EXPECT_EQ(c.reads, counted ? 1u : 0u);
  EXPECT_EQ(c.accums, which == kAccum ? 1u : 0u);
  EXPECT_EQ(c.resets, which == kAccum ? 1u : 0u);
  EXPECT_EQ(c.stops, which == kStop ? 1u : 0u);
  for (std::size_t comp = 0; comp < kTelemetryMaxComponents; ++comp) {
    const bool spanned =
        std::find(rig.components.begin(), rig.components.end(), comp) !=
        rig.components.end();
    EXPECT_EQ(c.component_reads[comp], live && spanned ? 1u : 0u)
        << "component " << comp;
  }
  // A traced live pass records one read span (plus a rotate span for a
  // sequential slice rotation it drives); stop() records its instant.
  std::uint64_t traced = 0;
  if (tracing && live) traced = 1 + c.rotations;
  if (tracing && which == kStop) traced = 1;
  EXPECT_EQ(c.trace_records, traced);
}

TEST(ReadPipeline, EveryShapeAgreesTracedAndUntraced) {
  constexpr const char* kCallNames[] = {
      "read", "read_ex", "accum", "stop", "read stopped", "read_ex stopped"};
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    Rig untraced_rig(shape, /*tracing=*/false);
    Rig traced_rig(shape, /*tracing=*/true);
    const std::vector<Call> untraced = run_calls(untraced_rig);
    const std::vector<Call> traced = run_calls(traced_rig);
    ASSERT_EQ(untraced.size(), traced.size());
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      SCOPED_TRACE(kCallNames[i]);
      const auto which = static_cast<CallIndex>(i);
      EXPECT_TRUE(untraced[i].status.ok());
      EXPECT_TRUE(traced[i].status.ok());
      EXPECT_EQ(untraced[i].values, traced[i].values);
      EXPECT_EQ(untraced[i].flags, traced[i].flags);
      EXPECT_EQ(untraced[i].allocations, 0u);
      EXPECT_EQ(traced[i].allocations, 0u);
      expect_telemetry(untraced_rig, untraced[i], which, false);
      expect_telemetry(traced_rig, traced[i], which, true);
    }
    // The stopped set serves exactly stop()'s totals, all valid.
    EXPECT_EQ(untraced[kReadStopped].values, untraced[kStop].values);
    EXPECT_EQ(untraced[kReadExStopped].values, untraced[kStop].values);
    for (const std::uint32_t f : untraced[kReadExStopped].flags) {
      EXPECT_EQ(f, read_flag::kValid);
    }
    EXPECT_TRUE(std::any_of(untraced[kStop].values.begin(),
                            untraced[kStop].values.end(),
                            [](long long x) { return x > 0; }));
  }
}

TEST(ReadPipeline, MuxReadFaultsQuarantineTheCpuComponent) {
  // The open multiplex slice is read through the same health bracket as
  // every other slice, so read faults that exhaust their retries count
  // against component 0 and trip its breaker.
  FaultPlan plan;
  plan.at(FaultSite::kRead).fail_times = 1 << 20;  // hard down
  FaultFixture f(sim::make_saxpy(20'000), pmu::sim_x86(), plan,
                 {.charge_costs = false});
  HealthPolicy p;
  p.max_consecutive_exhaustions = 2;
  p.probe_cooldown_usec = 1'000'000'000;  // effectively forever
  p.probe_cooldown_max_usec = 1'000'000'000;
  ASSERT_TRUE(f.library->set_health_policy(p).ok());

  EventSet& set = f.new_set();
  ASSERT_TRUE(set.enable_multiplex(/*slice_cycles=*/20'000).ok());
  for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                           "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_L1_DCA"}) {
    ASSERT_TRUE(set.add_named(name).ok()) << name;
  }
  ASSERT_TRUE(set.start().ok());
  f.machine->run(1'000);

  std::vector<long long> v(set.num_events());
  EXPECT_EQ(set.read(v).error(), Error::kConflict);
  EXPECT_EQ(set.read(v).error(), Error::kConflict);
  EXPECT_EQ(f.library->component_health(0).value().state,
            HealthState::kQuarantined);
  EXPECT_EQ(set.read(v).error(), Error::kComponentQuarantined);

  // read_ex() still answers, from the latched estimates, flagged.
  std::vector<std::uint32_t> flags(set.num_events());
  ASSERT_TRUE(set.read_ex(v, flags).ok());
  for (const std::uint32_t flag : flags) {
    EXPECT_EQ(flag, read_flag::kStale | read_flag::kQuarantined);
  }
  EXPECT_EQ(set.stop().error(), Error::kComponentQuarantined);
}

}  // namespace
}  // namespace papirepro::papi
