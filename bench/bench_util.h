// Shared helpers of the bench binaries: bench_experiments (every
// number EXPERIMENTS.md quotes) and the gated benches (RH1, FC1, SP1,
// AG1).
//
// All of them time on the benchmark's own harness
// (perfbench/src/harness.cpp, linked as papirepro_bench_harness): its
// steady_clock batches, calibration scaling, per-thread allocation
// counter, context-switch check and Samples.  This header adds only the
// interleaving driver and the one BENCH_*.json writer.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/eventset.h"
#include "core/library.h"
#include "harness.h"
#include "sim/kernels.h"
#include "substrate/fault_substrate.h"
#include "substrate/sim_substrate.h"

namespace papirepro::bench {

/// Machine + substrate + library over a workload.  With a fault plan the
/// sim substrate sits behind a FaultInjectingSubstrate running it.
struct Rig {
  sim::Workload workload;
  std::unique_ptr<sim::Machine> machine;
  papi::SimSubstrate* substrate = nullptr;         // owned by library
  papi::FaultInjectingSubstrate* fault = nullptr;  // owned by library
  std::unique_ptr<papi::Library> library;

  Rig(sim::Workload w, const pmu::PlatformDescription& platform,
      papi::SimSubstrateOptions options = {},
      const papi::FaultPlan* plan = nullptr)
      : workload(std::move(w)) {
    machine = std::make_unique<sim::Machine>(workload.program,
                                             platform.machine);
    if (workload.setup) workload.setup(*machine);
    auto sub = std::make_unique<papi::SimSubstrate>(*machine, platform,
                                                    options);
    substrate = sub.get();
    if (plan == nullptr) {
      library = std::make_unique<papi::Library>(std::move(sub));
      return;
    }
    auto wrapped = std::make_unique<papi::FaultInjectingSubstrate>(
        std::move(sub), *plan);
    fault = wrapped.get();
    library = std::make_unique<papi::Library>(std::move(wrapped));
  }

  papi::EventSet& new_set() {
    auto handle = library->create_event_set();
    return *library->event_set(handle.value()).value();
  }

  double overhead_fraction() const {
    return machine->cycles() == 0
               ? 0.0
               : static_cast<double>(machine->overhead_cycles()) /
                     static_cast<double>(machine->cycles());
  }
};

inline double rel_error(double measured, double expected) {
  if (expected == 0) return measured == 0 ? 0.0 : 1.0;
  return std::abs(measured - expected) / expected;
}

// --- interleaved timing ------------------------------------------------------

/// One timed operation: host ns per call of every clean steady-state
/// batch, and the heap allocations its steady-state calls made.
struct Timed {
  perfbench::Samples ns;
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;

  /// NaN when no clean batch was kept (allocs_per_call(): no steady
  /// call ran), so every gate on the row fails.
  double median() const {
    return ns.size() == 0 ? std::nan("") : ns.median();
  }
  double allocs_per_call() const {
    return calls == 0 ? std::nan("")
                      : static_cast<double>(allocs) / static_cast<double>(calls);
  }
};

/// The batches one interleaving round has timed so far.
class Round {
 public:
  /// Times one batch: `fn` makes `calls` calls of `row`'s operation.
  /// Batches may nest (a whole poll around its stages).
  template <typename Fn>
  void time(Timed& row, int calls, Fn&& fn) {
    const std::uint64_t a0 = perfbench::thread_allocs();
    const std::int64_t t0 = perfbench::now_ns();
    fn();
    const std::int64_t t1 = perfbench::now_ns();
    batches_.push_back({&row, calls, static_cast<double>(t1 - t0) / calls,
                        perfbench::thread_allocs() - a0});
  }

  /// Adds the round's batches to their rows and starts a new round.  A
  /// steady round counts calls and allocations; a clean one (no context
  /// switch) also adds its timings, scaled by the calibration `cal`.
  void commit(bool steady, bool clean, double cal) {
    if (steady) {
      for (const Batch& b : batches_) {
        b.row->calls += static_cast<std::uint64_t>(b.calls);
        b.row->allocs += b.allocs;
        if (clean) b.row->ns.add(perfbench::at_ref_speed(b.ns, cal));
      }
    }
    batches_.clear();
  }

 private:
  struct Batch {
    Timed* row;
    int calls;
    double ns;
    std::uint64_t allocs;
  };
  std::vector<Batch> batches_;
};

/// Rounds before any timing or allocation counts: they fill the rows'
/// buffers and caches.
inline constexpr int kWarmupRounds = 8;

/// Runs `round` until `seconds` have passed (after kWarmupRounds).  Each
/// round times one batch of every row, so the rows a gate compares meet
/// the same host conditions batch by batch.  A round during which the
/// thread was switched out adds no timings.  A scaled round first runs
/// perfbench's calibration batch and scales each batch to its reference
/// speed; threaded rows pass scaled = false, because the calibration
/// batch's one shared atomic would contend across their threads.
template <typename RoundFn>
void run_interleaved(double seconds, RoundFn&& round, bool scaled = true) {
  Round r;
  const std::int64_t deadline =
      perfbench::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (int i = 0; i < kWarmupRounds || perfbench::now_ns() < deadline; ++i) {
    const std::uint64_t switches = perfbench::thread_switches();
    const double cal = scaled ? perfbench::calib_batch_ns() : 0.0;
    round(r);
    r.commit(i >= kWarmupRounds,
             perfbench::thread_switches() == switches, cal);
  }
}

// --- results -------------------------------------------------------------

/// The clock rule of every host-timed row.
inline constexpr const char* kClockRule =
    "steady_clock batch medians at calibration reference speed; "
    "threaded rows unscaled";

/// One bench's rows and gates.  finish() prints them, writes
/// BENCH_<bench>.json in the working directory and returns the exit
/// code, nonzero when any gate failed.  JSON schema:
/// {bench, clock, rows: [{layer, scenario, metric, value, unit}],
///  gates: [{name, value, budget, pass}]}.
class Results {
 public:
  explicit Results(std::string bench, std::string clock = kClockRule)
      : bench_(std::move(bench)), clock_(std::move(clock)) {}

  void row(std::string layer, std::string scenario, std::string metric,
           double value, std::string unit) {
    rows_.push_back({std::move(layer), std::move(scenario),
                     std::move(metric), value, std::move(unit)});
  }
  /// Rows `<op>_ns` and `<op>_allocs` (per call) of one timed operation.
  void timed(const std::string& layer, const std::string& scenario,
             const std::string& op, const Timed& t) {
    row(layer, scenario, op + "_ns", t.median(), "ns");
    row(layer, scenario, op + "_allocs", t.allocs_per_call(), "count");
  }

  /// A gate that passes when value <= budget.
  void gate(std::string name, double value, double budget) {
    gate(std::move(name), value, budget, value <= budget);
  }
  void gate(std::string name, double value, double budget, bool pass) {
    gates_.push_back({std::move(name), value, budget, pass});
  }

  int finish() const {
    std::printf("\n%-20s %-24s %-26s %12s %s\n", "layer", "scenario",
                "metric", "value", "unit");
    for (const Row& r : rows_) {
      std::printf("%-20s %-24s %-26s %12s %s\n", r.layer.c_str(),
                  r.scenario.c_str(), r.metric.c_str(),
                  number(r.value).c_str(), r.unit.c_str());
    }
    bool ok = true;
    std::printf("\n");
    for (const Gate& g : gates_) {
      ok = ok && g.pass;
      std::printf("gate %-40s %12s  budget %12s  %s\n", g.name.c_str(),
                  number(g.value).c_str(), number(g.budget).c_str(),
                  g.pass ? "ok" : "FAIL");
    }
    const std::string path = "BENCH_" + bench_ + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"clock\": \"%s\",\n"
                   "  \"rows\": [\n", bench_.c_str(), clock_.c_str());
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const Row& r = rows_[i];
        std::fprintf(f,
                     "    {\"layer\": \"%s\", \"scenario\": \"%s\", "
                     "\"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\"}%s\n",
                     r.layer.c_str(), r.scenario.c_str(), r.metric.c_str(),
                     number(r.value).c_str(), r.unit.c_str(),
                     i + 1 < rows_.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"gates\": [\n");
      for (std::size_t i = 0; i < gates_.size(); ++i) {
        const Gate& g = gates_[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"value\": %s, \"budget\": %s, "
                     "\"pass\": %s}%s\n",
                     g.name.c_str(), number(g.value).c_str(),
                     number(g.budget).c_str(), g.pass ? "true" : "false",
                     i + 1 < gates_.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("\nJSON written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
    std::printf("%s\n", ok ? "all gates pass" : "GATE FAILED");
    return ok ? 0 : 1;
  }

 private:
  struct Row {
    std::string layer, scenario, metric;
    double value;
    std::string unit;
  };
  struct Gate {
    std::string name;
    double value, budget;
    bool pass;
  };

  /// Integers and values from 1000 up print whole, smaller ones to 4
  /// significant digits; JSON has no NaN or infinity.
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf,
                  v == std::floor(v) || std::fabs(v) >= 1000 ? "%.0f" : "%.4g",
                  v);
    return buf;
  }

  std::string bench_, clock_;
  std::vector<Row> rows_;
  std::vector<Gate> gates_;
};

}  // namespace papirepro::bench
