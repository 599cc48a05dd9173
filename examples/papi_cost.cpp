// papi_cost: the classic PAPI utility that measures what the measurement
// itself costs.  For the simulated substrates the cost is the charged
// simulated cycles per call (the E3/E9 cost model, observable through
// the machine's overhead accounting); for the real perf_event substrate
// it is wall nanoseconds per call.
#include <chrono>
#include <cstdio>
#include <memory>

#include "core/library.h"
#include "sim/kernels.h"
#include "substrate/perf_event_substrate.h"
#include "substrate/sim_substrate.h"

using namespace papirepro;

namespace {

void sim_costs() {
  std::printf("simulated substrates (cycles charged per call):\n\n");
  std::printf("%-12s %10s %10s %10s %12s\n", "substrate", "read",
              "start", "stop", "read+pollute");
  for (const pmu::PlatformDescription* p : pmu::all_platforms()) {
    sim::Workload w = sim::make_empty_loop(10);
    sim::Machine machine(w.program, p->machine);
    papi::SimSubstrate sub(machine, *p);
    auto cyc = sub.native_by_name(
        p->find_event("CPU_CLK_UNHALTED") != nullptr ? "CPU_CLK_UNHALTED"
        : p->name == "sim-power3"                    ? "PM_CYC"
        : p->name == "sim-ia64"                      ? "CPU_CYCLES"
        : p->name == "sim-alpha"                     ? "CYCLES"
                                                     : "EV5_CYCLES");
    if (!cyc.ok()) continue;
    auto ctx = sub.create_context();
    if (!ctx.ok()) continue;
    const pmu::NativeEventCode events[] = {cyc.value()};
    std::uint32_t counters[] = {0};
    (void)ctx.value()->program(events, counters);

    auto cost_of = [&machine](auto&& fn) {
      const std::uint64_t before = machine.overhead_cycles();
      fn();
      return machine.overhead_cycles() - before;
    };
    std::uint64_t out[1];
    const std::uint64_t start_cost =
        cost_of([&] { (void)ctx.value()->start(); });
    const std::uint64_t read_cost =
        cost_of([&] { (void)ctx.value()->read(out); });
    const std::uint64_t stop_cost =
        cost_of([&] { (void)ctx.value()->stop(); });
    std::printf("%-12s %10llu %10llu %10llu %12u\n", p->name.c_str(),
                static_cast<unsigned long long>(read_cost),
                static_cast<unsigned long long>(start_cost),
                static_cast<unsigned long long>(stop_cost),
                p->costs.read_pollute_lines);
  }
}

void perf_costs() {
  papi::PerfEventSubstrate sub;
  if (!sub.available()) {
    std::printf("\nperf_event: unavailable in this environment\n");
    return;
  }
  auto code = sub.native_by_name("PERF_COUNT_SW_TASK_CLOCK");
  auto ctx = sub.create_context();
  if (!ctx.ok()) return;
  const pmu::NativeEventCode events[] = {code.value()};
  std::uint32_t counters[] = {0};
  if (!ctx.value()->program(events, counters).ok() ||
      !ctx.value()->start().ok()) {
    return;
  }

  constexpr int kIters = 100'000;
  std::uint64_t out[1];
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) (void)ctx.value()->read(out);
  const auto t1 = std::chrono::steady_clock::now();
  (void)ctx.value()->stop();

  constexpr int kPairs = 20'000;
  const auto t2 = std::chrono::steady_clock::now();
  for (int i = 0; i < kPairs; ++i) {
    (void)ctx.value()->start();
    (void)ctx.value()->stop();
  }
  const auto t3 = std::chrono::steady_clock::now();

  const double read_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
  const double pair_ns =
      std::chrono::duration<double, std::nano>(t3 - t2).count() / kPairs;
  std::printf("\nperf_event substrate (real wall time per call):\n");
  std::printf("  read (1 sw event):   %8.0f ns\n", read_ns);
  std::printf("  start+stop pair:     %8.0f ns\n", pair_ns);

  // The same kernel interface under an EventSet: its first start() opens
  // one fd per event, and a restart only resets and enables them again.
  // A read is one read(2) per fd, and so are an accum and a reset: each
  // moves the fd's software base instead of resetting it in the kernel.
  papi::Library library(std::make_unique<papi::PerfEventSubstrate>());
  papi::EventSet* set =
      library.event_set(library.create_event_set().value()).value();
  for (const char* name :
       {"PERF_COUNT_SW_TASK_CLOCK", "PERF_COUNT_SW_PAGE_FAULTS",
        "PERF_COUNT_SW_CONTEXT_SWITCHES"}) {
    if (!set->add_named(name).ok()) return;
  }
  if (!set->start().ok()) return;
  const auto per_call = [](auto&& op, int calls) {
    const auto begin = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) op();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(end - begin).count() /
           calls;
  };
  const double restart_ns = per_call(
      [&] {
        (void)set->stop();
        (void)set->start();
      },
      5'000);
  long long values[3] = {0, 0, 0};
  constexpr int kCalls = 20'000;
  const double read_ns_3 = per_call([&] { (void)set->read(values); }, kCalls);
  const double accum_ns = per_call([&] { (void)set->accum(values); }, kCalls);
  const double reset_ns = per_call([&] { (void)set->reset(); }, kCalls);
  (void)set->stop();
  std::printf("  EventSet stop()+start() (3 sw events): %8.0f ns\n",
              restart_ns);
  std::printf("  EventSet read() (3 sw events):         %8.0f ns\n",
              read_ns_3);
  std::printf("  EventSet accum() (3 sw events):        %8.0f ns\n",
              accum_ns);
  std::printf("  EventSet reset() (3 sw events):        %8.0f ns\n",
              reset_ns);
}

}  // namespace

int main() {
  std::printf("papi_cost: the price of reading the counters\n\n");
  sim_costs();
  perf_costs();
  std::printf("\nThe x86/power3/ia64/alpha reads are system calls "
              "(thousands of cycles);\nthe T3E read is a register move — "
              "the spread behind the paper's overhead\nfindings.\n");
  return 0;
}
