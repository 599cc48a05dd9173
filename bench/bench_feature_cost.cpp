// Feature cost: what each switchable layer adds to the direct read, in
// one table timed on one clock.  Every row is one library over sim-x86
// (cost charging off) with a started {PAPI_TOT_INS, PAPI_TOT_CYC} set,
// except the two cpu+mem read_ex rows; each variant flips exactly one
// switch against the default library:
//
//   telemetry_off        telemetry().set_enabled(false)
//   trace_on             set_trace(true)
//   health_off           HealthPolicy::enabled = false
//   decorator_disabled   FaultInjectingSubstrate wrapped, injection off
//                        (one relaxed atomic load per call)
//   decorator_injecting  the same with injection on and an all-zero plan
//                        (a mutex-guarded consult per call)
//
// plus what the health breaker buys: read_ex over a healthy cpu+mem set,
// and over one whose mem component is quarantined (the fail-fast path
// the breaker substitutes for a full retry ladder).
//
// Gates (nonzero exit):
//   TL1  default read <= telemetry_off x 1.03 + 4 ns, trace_on <=
//        telemetry_off x 1.10 + 4 ns, 0 allocations per row;
//   HO1  default read <= health_off x 1.05 + 0.5 ns, every row ran,
//        0 allocations per row.
// The absolute slack keeps nanosecond jitter on a ~20 ns call from
// tripping the relative budgets.  The decorator rows are report-only:
// on an Intel Xeon with 4 vCPUs (Release) the disabled decorator added
// 6.2-9.8 % to read() (20 runs) and 3.5-12.9 % to a ~110 ns
// stop()+start() that does not reprogram (15 runs), the injecting one
// 45-56 % and 28.5-34.9 %.
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/health.h"
#include "substrate/component_substrates.h"

using namespace papirepro;

namespace {

constexpr double kRunSeconds = 2.0;
constexpr int kCalls = 256;  // read() calls per batch
constexpr int kPairs = 32;   // stop()+start() pairs per batch
constexpr double kTelemetryBudget = 1.03;
constexpr double kTraceBudget = 1.10;
constexpr double kTelemetrySlackNs = 4.0;
constexpr double kHealthBudget = 1.05;
constexpr double kHealthSlackNs = 0.5;

/// One library variant with its started set.
struct Scenario {
  const char* layer;
  const char* name;
  bench::Rig rig;
  papi::EventSet* set = nullptr;
  std::vector<long long> v;
  std::vector<std::uint32_t> flags;  ///< non-empty: the row times read_ex
  bench::Timed read, start_stop;
  bool ok = false;  ///< set-up succeeded

  Scenario(const char* l, const char* n, const papi::FaultPlan* plan = nullptr)
      : layer(l),
        name(n),
        rig(sim::make_empty_loop(10), pmu::sim_x86(), {.charge_costs = false},
            plan) {}

  /// Creates the set over `events` and starts it.
  void start(std::initializer_list<const char*> events, bool read_ex = false) {
    set = &rig.new_set();
    ok = true;
    for (const char* e : events) ok = ok && set->add_named(e).ok();
    ok = ok && set->start().ok();
    v.assign(set->num_events(), 0);
    if (read_ex) flags.assign(set->num_events(), 0);
  }

  void time_read(bench::Round& r) {
    if (flags.empty()) {
      r.time(read, kCalls, [&] {
        for (int i = 0; i < kCalls; ++i) (void)set->read(v);
      });
    } else {
      r.time(read, kCalls, [&] {
        for (int i = 0; i < kCalls; ++i) (void)set->read_ex(v, flags);
      });
    }
  }
  void time_start_stop(bench::Round& r) {
    r.time(start_stop, kPairs, [&] {
      for (int i = 0; i < kPairs; ++i) {
        (void)set->stop();
        (void)set->start();
      }
    });
  }
};

double pct_over(double base, double value) {
  return 100.0 * (value - base) / base;
}

}  // namespace

int main() {
  std::printf("host ns and heap allocations per call after start() "
              "(sim-x86, cost charging off)\n");
  bench::Results results("feature_cost");
  const auto direct = {"PAPI_TOT_INS", "PAPI_TOT_CYC"};
  const auto spanning = {"PAPI_TOT_INS", "mem::BANDWIDTH_RD"};

  Scenario on("core.eventset", "default");
  Scenario telemetry_off("core.telemetry", "telemetry_off");
  telemetry_off.rig.library->telemetry().set_enabled(false);
  Scenario trace_on("core.telemetry", "trace_on");
  const bool traced = trace_on.rig.library->set_trace(true).ok();
  Scenario health_off("core.health", "health_off");
  papi::HealthPolicy no_health = health_off.rig.library->health_policy();
  no_health.enabled = false;
  (void)health_off.rig.library->set_health_policy(no_health);
  const papi::FaultPlan no_faults;
  Scenario decorated("substrate.fault", "decorator_disabled", &no_faults);
  decorated.rig.fault->set_enabled(false);
  Scenario injecting("substrate.fault", "decorator_injecting", &no_faults);
  Scenario* plain[] = {&on, &telemetry_off, &trace_on, &health_off,
                       &decorated, &injecting};
  for (Scenario* s : plain) s->start(direct);
  trace_on.ok = trace_on.ok && traced;

  // read_ex over cpu+mem with everything healthy: the partial-read entry
  // point's own steady-state cost, flag computation included.
  Scenario healthy("core.health", "read_ex_spanning");
  (void)healthy.rig.library->register_component(
      "mem", "uncore",
      std::make_unique<papi::MemBandwidthSubstrate>(*healthy.rig.machine));
  healthy.start(spanning, /*read_ex=*/true);

  // The same set with mem hard down behind the fault decorator; one
  // exhausted read_ex trips the breaker, and the cool-down never ends.
  Scenario quarantined("core.health", "quarantined_fail_fast");
  papi::FaultPlan down;
  down.at(papi::FaultSite::kRead).fail_times = 1 << 30;
  const auto mem_id = quarantined.rig.library->register_component(
      "mem", "faulty uncore",
      std::make_unique<papi::FaultInjectingSubstrate>(
          std::make_unique<papi::MemBandwidthSubstrate>(
              *quarantined.rig.machine),
          down));
  papi::HealthPolicy trip_once;
  trip_once.max_consecutive_exhaustions = 1;
  trip_once.probe_cooldown_usec = 1'000'000'000'000ULL;
  trip_once.probe_cooldown_max_usec = trip_once.probe_cooldown_usec;
  (void)quarantined.rig.library->set_health_policy(trip_once);
  quarantined.start(spanning, /*read_ex=*/true);
  (void)quarantined.set->read_ex(quarantined.v, quarantined.flags);
  quarantined.ok =
      quarantined.ok && mem_id.ok() &&
      quarantined.rig.library->component_health(mem_id.value()).value().state ==
          papi::HealthState::kQuarantined;

  Scenario* with_restart[] = {&on, &decorated, &injecting};
  bench::run_interleaved(kRunSeconds, [&](bench::Round& r) {
    for (Scenario* s : plain) s->time_read(r);
    healthy.time_read(r);
    quarantined.time_read(r);
    for (Scenario* s : with_restart) s->time_start_stop(r);
  });

  for (Scenario* s : plain) results.timed(s->layer, s->name, "read", s->read);
  results.timed("core.health", healthy.name, "read_ex", healthy.read);
  results.timed("core.health", quarantined.name, "read_ex", quarantined.read);
  const double on_ns = on.read.median();
  const double tel_off_ns = telemetry_off.read.median();
  const double health_off_ns = health_off.read.median();
  results.row("core.telemetry", "telemetry_on_vs_off", "read_ratio",
              on_ns / tel_off_ns, "ratio");
  results.row("core.telemetry", "trace_on_vs_off", "read_ratio",
              trace_on.read.median() / tel_off_ns, "ratio");
  results.row("core.health", "health_on_vs_off", "read_overhead_pct",
              pct_over(health_off_ns, on_ns), "%");
  for (Scenario* s : with_restart) {
    results.timed(s->layer, s->name, "start_stop", s->start_stop);
  }
  for (Scenario* s : {&decorated, &injecting}) {
    results.row(s->layer, s->name, "read_vs_default_pct",
                pct_over(on_ns, s->read.median()), "%");
    results.row(s->layer, s->name, "start_stop_vs_default_pct",
                pct_over(on.start_stop.median(), s->start_stop.median()), "%");
  }

  results.gate("TL1 telemetry on read_ns", on_ns,
               tel_off_ns * kTelemetryBudget + kTelemetrySlackNs);
  results.gate("TL1 trace on read_ns", trace_on.read.median(),
               tel_off_ns * kTraceBudget + kTelemetrySlackNs);
  results.gate("HO1 health on read_ns", on_ns,
               health_off_ns * kHealthBudget + kHealthSlackNs);
  int not_run = 0;
  for (const Scenario* s :
       {&on, &telemetry_off, &trace_on, &health_off, &healthy, &quarantined}) {
    not_run += !s->ok || s->read.ns.size() == 0;
    results.gate(std::string("TL1/HO1 allocs ") + s->name,
                 s->read.allocs_per_call(), 0);
  }
  results.gate("TL1/HO1 rows not run", not_run, 0);
  return results.finish();
}
