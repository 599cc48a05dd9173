// The paper's experiments, E1–E12 and the design-knob ablations (ABL),
// in one binary.  Every number they report is a row: layer = experiment
// id, scenario = platform and parameters.  Simulated rows (fixed seeds,
// simulated time, so bit-identical on every build) go to
// BENCH_experiments.json, which is committed and which CI regenerates and
// diffs; host timings and /proc readings go to BENCH_experiments_host.json.
// EXPERIMENTS.md quotes the rows.  Run from the repo root:
//   ./build/bench/bench_experiments
// Relative errors are rows in parts per million and shares in percent, so
// the rows keep every digit the paper-style tables printed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/allocator.h"
#include "core/highlevel.h"
#include "substrate/host_substrate.h"
#include "substrate/preset_maps.h"
#include "tools/calibrate.h"
#include "tools/dynaprof.h"
#include "tools/memprof.h"
#include "tools/perfometer.h"
#include "tools/vprof.h"

using namespace papirepro;
using bench::Results;
using bench::Rig;

namespace {

using namespace std::string_literals;
using std::to_string;

double ppm(double rel_error) { return 1e6 * rel_error; }

/// Keeps `v`, and the call that produced it, inside a timed loop.
template <typename T>
void keep(T v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

constexpr papi::SimSubstrateOptions kCostsOff{.charge_costs = false};

/// The rows of one scenario of one experiment.
struct Rows {
  Results& out;
  std::string layer, scenario;
  void operator()(const std::string& metric, double value,
                  const char* unit) const {
    out.row(layer, scenario, metric, value, unit);
  }
};

/// Runs `rig` to completion counting each of `presets` that a new set,
/// multiplexed when `slice_cycles` > 0, accepts; NaN for the others.
std::vector<double> count_run(Rig& rig,
                              const std::vector<papi::Preset>& presets,
                              std::uint64_t slice_cycles = 0) {
  papi::EventSet& set = rig.new_set();
  if (slice_cycles > 0) (void)set.enable_multiplex(slice_cycles);
  std::vector<std::size_t> added;
  for (std::size_t i = 0; i < presets.size(); ++i) {
    if (set.add_preset(presets[i]).ok()) added.push_back(i);
  }
  std::vector<double> counts(presets.size(), NAN);
  if (added.empty()) return counts;
  std::vector<long long> v(added.size());
  (void)set.start();
  rig.machine->run();
  (void)set.stop(v);
  for (std::size_t k = 0; k < added.size(); ++k) counts[added[k]] = v[k];
  return counts;
}

/// Runs `rig` to completion while profiling the PC at every `threshold`
/// occurrences of `preset`.
std::unique_ptr<papi::ProfileBuffer> profile(Rig& rig, papi::Preset preset,
                                             std::uint64_t threshold,
                                             bool prefer_precise = true) {
  papi::EventSet& set = rig.new_set();
  (void)set.add_preset(preset);
  auto buf = std::make_unique<papi::ProfileBuffer>(
      sim::kTextBase, rig.workload.program.size() * sim::kInstrBytes);
  (void)set.profil(*buf, papi::EventId::preset(preset), threshold,
                   prefer_precise);
  (void)set.start();
  rig.machine->run();
  (void)set.stop();
  return buf;
}

// E11: the PAPI 3 memory-utilization extensions (Section 5's wish list):
// node memory, per-process resident/peak, page accounting — on the host
// substrate (real /proc data) and the simulated substrates (touched-page
// accounting), with a growth check that the per-process numbers track
// allocations.  Then "location of memory used by an object (e.g., array
// or structure)": per-object attribution of the naive matmul's cache
// traffic, where the column-strided B array takes the blame.  main() runs
// it first, while the process is small, so the growth check reads the
// 64 MiB it allocates.
void e11_memory(Results& out, Results& host_out) {
  const auto info_rows = [](const Rows& row, const papi::MemoryInfo& info) {
    row("total", info.total_bytes, "bytes");
    row("available", info.available_bytes, "bytes");
    row("resident", info.process_resident_bytes, "bytes");
    row("peak", info.process_peak_bytes, "bytes");
    row("pages", info.page_faults, "count");
  };
  papi::HostSubstrate host;
  const papi::MemoryInfo before = host.memory_info().value();
  info_rows({host_out, "E11", "host"}, before);
  std::vector<char> hog(64 * 1024 * 1024, 1);
  for (std::size_t i = 0; i < hog.size(); i += 4096) hog[i] = 2;
  const papi::MemoryInfo after = host.memory_info().value();
  const auto kib = [](std::uint64_t from, std::uint64_t to) {
    return std::trunc((double(to) - double(from)) / 1024);
  };
  const Rows growth{host_out, "E11", "host/touch_64MiB"};
  growth("resident_growth", kib(before.process_resident_bytes,
                                after.process_resident_bytes), "KiB");
  growth("peak_growth",
         kib(before.process_peak_bytes, after.process_peak_bytes), "KiB");

  for (std::int64_t n : {1'000LL, 100'000LL}) {
    Rig rig(sim::make_saxpy(n), pmu::sim_x86());
    rig.machine->run();
    info_rows({out, "E11", "sim-x86/saxpy_n" + to_string(n)},
              rig.library->memory_info().value());
  }

  sim::Workload w = sim::make_matmul(64);
  sim::MachineConfig config = pmu::sim_x86().machine;
  config.l1d = {.size_bytes = 8 * 1024, .line_bytes = 64,
                .associativity = 2, .miss_latency = 8};
  sim::Machine machine(w.program, config);
  w.setup(machine);
  tools::MemoryProfiler prof(machine, w.regions);
  machine.run();
  for (const tools::RegionStats& rs : prof.stats()) {
    if (rs.accesses == 0 && rs.region.name == "<other>") continue;
    const Rows row{out, "E11",
                   "sim-x86_l1d_8KiB/matmul_64/" + rs.region.name};
    row("bytes", rs.region.bytes, "bytes");
    row("accesses", rs.accesses, "count");
    row("l1_misses", rs.l1_misses, "count");
    row("l2_misses", rs.l2_misses, "count");
    row("tlb_misses", rs.tlb_misses, "count");
    row("l1_miss_rate", 100.0 * rs.l1_miss_rate(), "%");
  }
}

// E1 (Figure 1): the layered architecture's payoff — one portable
// program, five substrates.  The preset-availability matrix (the `avail`
// utility's table) and the same measurement taken through the same code
// on every platform model.  Shape to reproduce: deterministic events
// agree exactly everywhere; availability differs per platform; the alpha
// substrate needs its sampling mode for most events.
void e1_portability(Results& out) {
  // FP_OPS runs on its own: it cannot co-schedule with LD/SR on
  // 4-counter machines.
  const std::vector<papi::Preset> runs[] = {
      {papi::Preset::kTotIns, papi::Preset::kLdIns, papi::Preset::kSrIns},
      {papi::Preset::kFpOps}};
  for (const pmu::PlatformDescription* p : pmu::all_platforms()) {
    out.row("E1", p->name, "counters", p->num_counters, "count");
    const Rows avail{out, "E1", p->name + "/avail"};
    for (std::size_t i = 0; i < papi::kNumPresets; ++i) {
      const auto preset = static_cast<papi::Preset>(i);
      const auto mapping = papi::map_preset(*p, preset);
      avail(std::string(papi::preset_name(preset)),
            !mapping.ok() ? 0 : mapping.value().derived() ? 2 : 1,
            "0 none, 1 native, 2 derived");
    }
    const Rows row{out, "E1", p->name + "/stream_triad_n50000"};
    for (const std::vector<papi::Preset>& run : runs) {
      Rig rig(sim::make_stream_triad(50'000), *p);
      if (p->sampling.has_profileme) {
        (void)rig.substrate->set_estimation(true);
      }
      const std::vector<double> counts = count_run(rig, run);
      for (std::size_t i = 0; i < run.size(); ++i) {
        row(std::string(papi::preset_name(run[i])), counts[i], "count");
      }
    }
  }
  const Rows expected{out, "E1", "expected/stream_triad_n50000"};
  expected("PAPI_LD_INS", 100'000, "count");
  expected("PAPI_SR_INS", 50'000, "count");
  expected("PAPI_FP_OPS", 100'000, "count");
}

// E2 (Figure 2): perfometer's real-time FLOPS trace.  The paper's
// screenshot shows the FLOP rate of a running code oscillating between
// bursts and quiet phases; the multiphase program (FP burst -> memory
// walk -> branchy integer, repeated) regenerates it.  The ASCII chart is
// the figure.  Shape to reproduce: clear alternation between near-peak
// and near-zero FLOPS.
void e2_perfometer(Results& out) {
  Rig rig(sim::make_multiphase(6, 25'000), pmu::sim_x86(), kCostsOff);
  tools::Perfometer meter(*rig.library,
                          papi::EventId::preset(papi::Preset::kFpOps),
                          /*interval_cycles=*/8'000);
  if (!meter.start().ok()) return;
  rig.machine->run();
  (void)meter.stop();
  std::printf("\nE2 (Fig. 2), perfometer FLOPS trace:\n%s\n",
              meter.render_ascii(72, 12).c_str());

  double peak = 0;
  for (const auto& p : meter.trace()) peak = std::max(peak, p.rate_per_sec);
  std::size_t burst = 0, quiet = 0;
  for (const auto& p : meter.trace()) {
    if (p.rate_per_sec > 0.5 * peak) ++burst;
    if (p.rate_per_sec < 0.05 * peak) ++quiet;
  }
  const Rows row{out, "E2", "sim-x86/multiphase_6x25000"};
  row("samples", meter.trace().size(), "count");
  row("peak_rate", peak, "FLOP/s");
  row("above_50pct_of_peak", burst, "intervals");
  row("below_5pct_of_peak", quiet, "intervals");
  row("alternation_reproduced", burst > 5 && quiet > 5, "bool");
}

/// One calibrate run's rows: every preset the kernel declares.
void calibration_rows(const Rows& row,
                      const std::vector<tools::CalibrationRow>& rows) {
  for (const tools::CalibrationRow& r : rows) {
    row(r.event + ".expected", r.expected, "count");
    row(r.event + ".measured", r.measured, "count");
    row(r.event + ".rel_err", ppm(r.rel_error), "ppm");
    row(r.event + ".overhead", r.overhead_cycles, "cycles");
    row(r.event + ".overhead_pct", 100 * r.overhead_fraction, "%");
  }
}

// E3: "Test runs of the PAPI calibrate utility on this substrate have
// shown that event counts converge to the expected value ... while
// incurring only one to two percent overhead, as compared to up to 30
// percent on other substrates that use direct counting."
//
// The direct-counting side, with the calibrate tool on saxpy(200000):
// substrates reading the counters at a realistic per-interval rate pay
// tens of percent in system-call and cache-pollution cycles.  Whole-run
// counting is cheap everywhere; the T3E's register-level reads cost a
// few cycles, so even its finest-grained direct counting stays nearly
// free.  The sampling side is E8's n = 200000 and 1000000 rows: the
// sim-alpha DADD substrate estimates the same counts from ProfileMe
// samples at ~1-2 % overhead.
void e3_overhead(Results& out) {
  constexpr std::int64_t n = 200'000;
  const struct {
    const pmu::PlatformDescription& platform;
    std::uint64_t read_interval;  // 0: one start/stop around the run
  } runs[] = {{pmu::sim_x86(), 0},       {pmu::sim_power3(), 0},
              {pmu::sim_x86(), 50'000},  {pmu::sim_x86(), 20'000},
              {pmu::sim_x86(), 10'000},  {pmu::sim_t3e(), 10'000}};
  for (const auto& run : runs) {
    tools::CalibrationOptions options;
    options.read_interval_cycles = run.read_interval;
    const std::string mode = run.read_interval == 0
        ? "/whole_run" : "/read_every_" + to_string(run.read_interval);
    calibration_rows({out, "E3", run.platform.name + mode},
                     tools::calibrate_workload(sim::make_saxpy(n),
                                               run.platform, options)
                         .value());
  }
}

/// Six events multiplexed on sim-x86's 4 counters over saxpy(n).  E4
/// and ablation (a) share this runner.
struct MuxRun {
  std::int64_t n = 0;
  std::vector<double> values;  ///< FMA, LD, SR, BR, L1_DCA, TOT_INS
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  double overhead = 0;  ///< overhead cycles / cycles

  /// Largest relative error against the kernel's exact counts, with
  /// TOT_INS measured against `tot_ins`.
  double worst_rel_err(double tot_ins) const {
    const double expected[] = {double(n),     double(2 * n), double(n),
                               double(n),     double(3 * n), tot_ins};
    double worst = 0;
    for (std::size_t i = 0; i < std::size(expected); ++i) {
      worst = std::max(worst, bench::rel_error(values[i], expected[i]));
    }
    return worst;
  }
};

MuxRun run_mux(std::int64_t n, std::uint64_t slice_cycles,
               const papi::SimSubstrateOptions& options) {
  using papi::Preset;
  Rig rig(sim::make_saxpy(n), pmu::sim_x86(), options);
  std::vector<double> values =
      count_run(rig,
                {Preset::kFmaIns, Preset::kLdIns, Preset::kSrIns,
                 Preset::kBrIns, Preset::kL1Dca, Preset::kTotIns},
                slice_cycles);
  return {n, std::move(values), rig.machine->cycles(),
          rig.machine->retired(), rig.overhead_fraction()};
}

// E4: multiplexing accuracy vs run length.  "Erroneous results can
// occur when the runtime is insufficient to permit the estimated counter
// values to converge to their expected values" — the error must fall
// from catastrophic to percent-level as the run grows.  6 events on 4
// counters, a fixed 200k-cycle slice (a fixed timer, as in real PAPI).
void e4_multiplex(Results& out) {
  for (std::int64_t n :
       {1'000LL, 5'000LL, 20'000LL, 100'000LL, 400'000LL, 1'500'000LL}) {
    const MuxRun r = run_mux(n, 200'000, kCostsOff);
    const Rows row{out, "E4",
                   "sim-x86/saxpy_n" + to_string(n) + "/slice_200000"};
    row("instructions", 8 * n + 5, "count");
    // TOT_INS against the machine's own retirement count.
    row("worst_rel_err", ppm(r.worst_rel_err(r.retired)), "ppm");
    row("zero_events", std::count(r.values.begin(), r.values.end() - 1, 0),
        "count");
  }
}

// E5: counter allocation as bipartite matching (Section 5).  Compares
// the optimal matcher (PAPI 2.3's contribution) against naive first-fit
// on random constraint instances and on the platform-derived cases, and
// times the solver, which runs at PAPI_add_event time.  Shape to
// reproduce: the optimal matcher always places >= as many events, with a
// measurable win on constrained instances, at microsecond-scale cost.
void e5_allocator(Results& out, Results& host_out) {
  const struct {
    const char* name;
    papi::AllocationResult (*solve)(const papi::AllocationInstance&);
  } kSolvers[] = {{"optimal", papi::solve_max_cardinality},
                  {"first_fit", papi::solve_greedy_first_fit}};
  Xoshiro256 rng(20030407);
  for (const auto& [events, counters] :
       {std::pair{3, 2}, {4, 4}, {6, 4}, {8, 4}, {8, 8}, {12, 8}}) {
    constexpr int kTrials = 1000;
    double full[2] = {}, mapped[2] = {};
    const std::uint32_t full_mask = (1u << counters) - 1;
    for (int t = 0; t < kTrials; ++t) {
      papi::AllocationInstance inst;
      inst.num_counters = static_cast<std::uint32_t>(counters);
      for (int e = 0; e < events; ++e) {
        // Sparse masks (1-3 allowed counters) model real constraints.
        std::uint32_t mask = 0;
        const int k = 1 + static_cast<int>(rng.next_below(3));
        for (int j = 0; j < k; ++j) {
          mask |= 1u << rng.next_below(static_cast<std::uint64_t>(counters));
        }
        inst.allowed.push_back(mask & full_mask);
      }
      for (int k = 0; k < 2; ++k) {
        const papi::AllocationResult a = kSolvers[k].solve(inst);
        full[k] += a.complete();
        mapped[k] += a.mapped_count;
      }
    }
    const Rows row{out, "E5", "random_" + to_string(events) + "x" +
                                  to_string(counters) + "/1000_trials"};
    for (int k = 0; k < 2; ++k) {
      row(kSolvers[k].name + "_full"s, 100.0 * full[k] / kTrials, "%");
      row(kSolvers[k].name + "_mapped"s, mapped[k] / kTrials, "events");
    }
  }

  const struct {
    const char* name;
    std::vector<const char*> events;
  } cases[] = {
      {"cache_trio", {"L1D_MISS", "L2_MISS", "DTLB_MISS"}},
      {"mixed_fp_mem",
       {"FP_OPS_RETIRED", "L1D_MISS", "BR_INS_RETIRED", "L2_MISS"}},
      {"overcommitted_low_counters",
       {"L1D_MISS", "L1D_ACCESS", "LD_RETIRED"}},
  };
  for (const auto& c : cases) {
    papi::AllocationInstance inst;
    inst.num_counters = pmu::sim_x86().num_counters;
    for (const char* name : c.events) {
      inst.allowed.push_back(pmu::sim_x86().find_event(name)->counter_mask);
    }
    const Rows row{out, "E5", "sim-x86/"s + c.name};
    row("events", c.events.size(), "count");
    for (const auto& solver : kSolvers) {
      row(solver.name + "_mapped"s, solver.solve(inst).mapped_count, "count");
    }
  }

  Xoshiro256 timing_rng(7);
  papi::AllocationInstance inst;
  inst.num_counters = 8;
  for (int e = 0; e < 12; ++e) {
    inst.allowed.push_back(static_cast<std::uint32_t>(timing_rng.next()) &
                           0xff);
  }
  out.row("E5", "random_12x8/timed", "optimal_mapped",
          papi::solve_max_cardinality(inst).mapped_count, "count");
  bench::Timed solve;
  bench::run_interleaved(0.5, [&](bench::Round& r) {
    r.time(solve, 4, [&] {
      for (int i = 0; i < 4; ++i) {
        keep(papi::solve_max_cardinality(inst).mapped_count);
      }
    });
  });
  host_out.timed("E5", "random_12x8/timed", "solve", solve);
}

/// An L1-miss profile of pointer_chase(1024 nodes, `iters`), whose
/// misses all come from one load instruction.  E6 and ablation (c)
/// share this profiler.
constexpr std::int64_t kChaseLoad = 3;

tools::AttributionAccuracy profile_chase(
    const pmu::PlatformDescription& platform, std::int64_t iters,
    bool prefer_precise) {
  Rig rig(sim::make_pointer_chase(1024, iters, 17), platform, kCostsOff);
  return tools::attribution_accuracy(
      *profile(rig, papi::Preset::kL1Dcm, 400, prefer_precise),
      rig.workload.program, kChaseLoad);
}

void accuracy_rows(const Rows& row, const tools::AttributionAccuracy& acc) {
  row("samples", acc.total_samples, "count");
  row("exact", 100 * acc.exact, "%");
  row("same_line", 100 * acc.same_line, "%");
  row("same_function", 100 * acc.same_function, "%");
}

// E6: profiling attribution accuracy.  "On out-of-order processors, the
// program counter may yield an address that is several instructions or
// even basic blocks removed from the true address ... DCPI has very low
// overhead and identifies the exact address of an instruction ... A
// similar capability exists on the Itanium ... where Event Address
// Registers (EARs) accurately identify the instruction and data
// addresses."
//
// Profiles L1 D-cache misses of the pointer chase on every platform and
// reports the share of samples attributed to the correct instruction /
// source line / function.
void e6_attribution(Results& out) {
  constexpr std::int64_t kIters = 120'000;
  accuracy_rows({out, "E6", "sim-x86/interrupt_ooo_skid"},
                profile_chase(pmu::sim_x86(), kIters, true));
  accuracy_rows({out, "E6", "sim-power3/interrupt_skid_2"},
                profile_chase(pmu::sim_power3(), kIters, true));
  accuracy_rows({out, "E6", "sim-ia64/interrupt_no_ear"},
                profile_chase(pmu::sim_ia64(), kIters, false));
  accuracy_rows({out, "E6", "sim-ia64/ear_precise"},
                profile_chase(pmu::sim_ia64(), kIters, true));

  // sim-alpha: DCPI-style profiling straight from the ProfileMe sample
  // buffer, no overflow interrupts involved.
  Rig rig(sim::make_pointer_chase(1024, kIters, 17), pmu::sim_alpha(),
          {.sample_period = 256, .charge_costs = false});
  (void)rig.substrate->set_estimation(true);
  papi::EventSet& set = rig.new_set();
  (void)set.add_named("PME_L1D_MISS");
  (void)set.start();
  rig.machine->run();
  papi::ProfileBuffer buf(sim::kTextBase,
                          rig.workload.program.size() * sim::kInstrBytes);
  if (const pmu::ProfileMeEngine* engine = rig.substrate->sampling_engine()) {
    for (const auto& s : engine->samples()) {
      if (s.weights[0] > 0) buf.record(s.pc);  // samples that missed L1D
    }
  }
  (void)set.stop();
  accuracy_rows({out, "E6", "sim-alpha/profileme_samples"},
                tools::attribution_accuracy(buf, rig.workload.program,
                                            kChaseLoad));
}

// E7: the POWER3 FP-count discrepancy and PAPI_flops normalization.
// "a discrepancy in the number of floating point instructions was
// resolved when it was discovered that extra rounding instructions were
// being introduced ... and were being included as floating point
// instructions", and "the PAPI flops call ... sometimes entails
// multiplying the measured counts by a factor of two to count
// floating-point multiply-add instructions as two floating point
// operations and/or subtracting counts for miscellaneous types of
// floating point instructions."  fcvt_mixed(n) is n fadds plus n
// double->single converts (n true FLOPs); saxpy(n) is n FMAs (2n).
void e7_flops(Results& out) {
  constexpr std::int64_t n = 100'000;
  const struct {
    const char* name;
    sim::Workload workload;
    long long true_flops;
  } kernels[] = {{"fcvt_mixed", sim::make_fcvt_mixed(n), n},
                 {"saxpy", sim::make_saxpy(n), 2 * n}};
  for (const pmu::PlatformDescription* p :
       {&pmu::sim_power3(), &pmu::sim_x86(), &pmu::sim_ia64()}) {
    for (const auto& k : kernels) {
      const Rows row{out, "E7", p->name + "/" + k.name + "_n" + to_string(n)};
      // One preset per run: FP_INS and FP_OPS need three high-counter
      // natives together, which a 4-counter machine cannot co-schedule.
      for (papi::Preset preset :
           {papi::Preset::kFpIns, papi::Preset::kFpOps}) {
        Rig rig(k.workload, *p, kCostsOff);
        row(std::string(papi::preset_name(preset)),
            count_run(rig, {preset})[0], "count");
      }
      Rig rig(k.workload, *p, kCostsOff);
      papi::HighLevel hl(*rig.library);
      double flops = NAN;
      if (hl.flops().ok()) {
        rig.machine->run();
        auto info = hl.flops();
        if (info.ok()) flops = info.value().flops;
      }
      row("PAPI_flops", flops, "count");
      row("true_flops", k.true_flops, "count");
    }
  }
}

// E8: "event counts converge to the expected value, given a long enough
// run time to obtain sufficient samples" — the calibrate utility on the
// DADD/ProfileMe substrate, swept over run length.  Error falls roughly
// as 1/sqrt(samples); overhead stays pinned at the per-sample hardware
// cost (~1-2 %).
void e8_convergence(Results& out) {
  tools::CalibrationOptions options;
  options.use_estimation = true;
  for (std::int64_t n : {500LL, 2'000LL, 10'000LL, 50'000LL, 200'000LL,
                         1'000'000LL, 4'000'000LL}) {
    calibration_rows({out, "E8", "sim-alpha/estimation_n" + to_string(n)},
                     tools::calibrate_workload(sim::make_saxpy(n),
                                               pmu::sim_alpha(), options)
                         .value());
  }
}

// E9: "the overhead of library calls to read the hardware counters can
// be excessive if the routines are called frequently — for example, on
// entry and exit of a small subroutine or basic block within a tight
// loop.  Unacceptable overhead has caused some tool developers to reduce
// the number of calls through statistical sampling techniques."
//
// Sweeps dynaprof entry/exit probing of a leaf called 20000 times over
// its body size (the smaller the function, the worse the relative cost),
// then profiles the same workload by overflow sampling instead.
void e9_granularity(Results& out) {
  for (int body : {1, 2, 4, 16, 64, 256}) {
    // Probes count PAPI_TOT_CYC, dynaprof's default metric.
    tools::DynaprofSession session(sim::make_tight_call(20'000, body),
                                   pmu::sim_x86(), {.functions = {"work"}});
    if (!session.run().ok()) return;
    const sim::Machine& m = session.machine();
    const Rows row{out, "E9", "sim-x86/dynaprof_body_" + to_string(body)};
    row("app_cycles", m.cycles() - m.overhead_cycles(), "cycles");
    row("probe_cycles", m.overhead_cycles(), "cycles");
    row("overhead", 100.0 * double(m.overhead_cycles()) / double(m.cycles()),
        "%");
  }
  // Thresholds well above the interrupt-handler cost (4500 cycles on
  // sim-x86); below that the handler's own cycles retrigger overflow — a
  // real interrupt-storm failure mode, but not the regime tools run in.
  for (std::uint64_t threshold : {20'000ULL, 100'000ULL, 500'000ULL}) {
    Rig rig(sim::make_tight_call(20'000, 2), pmu::sim_x86());
    const Rows row{out, "E9",
                   "sim-x86/overflow_threshold_" + to_string(threshold)};
    row("samples", profile(rig, papi::Preset::kTotCyc, threshold)
                       ->total_samples(), "count");
    row("probe_cycles", rig.machine->overhead_cycles(), "cycles");
    row("overhead", 100.0 * rig.overhead_fraction(), "%");
  }
}

// E10: "One of the most popular features of PAPI has proven to be the
// portable timing routines.  Using the lowest overhead and most accurate
// timers available on a given platform..."  Times each portable timer
// on the host substrate, and the simulated clock, on the harness; the
// per-platform simulated-cycle cost of each counter interface call is
// the model behind E3 and E9.
void e10_timers(Results& out, Results& host_out) {
  for (const pmu::PlatformDescription* p : pmu::all_platforms()) {
    const Rows row{out, "E10", p->name};
    row("read", p->costs.read_cost_cycles, "cycles");
    row("start_stop", p->costs.start_stop_cost_cycles, "cycles");
    row("overflow_handler", p->costs.overflow_handler_cost_cycles, "cycles");
    row("per_sample", p->costs.sample_cost_cycles, "cycles");
  }

  papi::HostSubstrate host;
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine machine(w.program, pmu::sim_x86().machine);
  papi::SimSubstrate sim_clock(machine, pmu::sim_x86());
  bench::Timed real_usec, real_cycles, virt_usec, memory_info, sim_usec;
  const auto batch = [](bench::Round& r, bench::Timed& row, int calls,
                        const auto& call) {
    r.time(row, calls, [&] {
      for (int i = 0; i < calls; ++i) keep(call());
    });
  };
  bench::run_interleaved(1.0, [&](bench::Round& r) {
    batch(r, real_usec, 64, [&] { return host.real_usec(); });
    batch(r, real_cycles, 128, [&] { return host.real_cycles(); });
    batch(r, virt_usec, 16, [&] { return host.virt_usec(); });
    batch(r, memory_info, 1, [&] { return host.memory_info().ok(); });
    batch(r, sim_usec, 1024, [&] { return sim_clock.real_usec(); });
  });
  host_out.timed("E10", "host", "real_usec", real_usec);
  host_out.timed("E10", "host", "real_cycles", real_cycles);
  host_out.timed("E10", "host", "virt_usec", virt_usec);
  host_out.timed("E10", "host", "memory_info", memory_info);
  host_out.timed("E10", "sim-x86", "real_usec", sim_usec);
}

// E12: the TAU-style configuration, "up to 25 metrics may be specified
// and a separate profile generated for each": every preset sim-x86 maps,
// multiplexed on its 4 counters over matmul(64), with the FMA count
// checked against 64^3 and TOT_INS against the machine's retirement
// count.
void e12_many_metrics(Results& out) {
  Rig rig(sim::make_matmul(64), pmu::sim_x86(), kCostsOff);
  papi::EventSet& set = rig.new_set();
  (void)set.enable_multiplex(30'000);
  std::vector<papi::Preset> added;
  for (papi::Preset p : rig.library->available_presets()) {
    if (set.add_preset(p).ok()) added.push_back(p);
  }
  (void)set.start();
  rig.machine->run();
  std::vector<long long> v(added.size());
  (void)set.stop(v);
  const Rows row{out, "E12", "sim-x86/matmul_64/slice_30000"};
  row("metrics", added.size(), "count");
  row("counters", rig.library->num_counters(), "count");
  row("mux_groups", set.num_mux_groups(), "count");
  for (std::size_t i = 0; i < added.size(); ++i) {
    const std::string name(papi::preset_name(added[i]));
    row(name, v[i], "count");
    const double expected =
        added[i] == papi::Preset::kFmaIns   ? 64.0 * 64 * 64
        : added[i] == papi::Preset::kTotIns ? rig.machine->retired()
                                            : NAN;
    if (std::isnan(expected)) continue;
    row(name + ".expected", expected, "count");
    row(name + ".rel_err", ppm(bench::rel_error(v[i], expected)), "ppm");
  }
}

// Ablations over the design knobs DESIGN.md calls out.  Each sweep
// isolates one knob and shows the tradeoff the default sits on.
void ablations(Results& out) {
  // (a) Multiplex slice length: short slices burn cycles on start/stop
  // switches; long slices starve groups of samples on short runs.
  // Slices below the ~11k-cycle switch cost degenerate into an interrupt
  // storm (rotation per instruction), so the sweep starts just above it.
  for (std::uint64_t slice :
       {15'000ULL, 40'000ULL, 160'000ULL, 640'000ULL, 2'560'000ULL}) {
    const MuxRun r = run_mux(300'000, slice, {});
    const Rows row{out, "ABL",
                   "sim-x86/saxpy_n300000/slice_" + to_string(slice)};
    row("rotations", r.cycles / slice, "count");
    row("worst_rel_err", ppm(r.worst_rel_err(8 * 300'000 + 5)), "ppm");
    row("switch_overhead", 100 * r.overhead, "%");
  }

  // (b) ProfileMe sampling period: denser sampling buys accuracy with
  // overhead; the default (512) sits at the paper's 1-2 % point.
  for (std::uint64_t period :
       {64ULL, 128ULL, 256ULL, 512ULL, 2'048ULL, 8'192ULL}) {
    constexpr std::int64_t n = 400'000;
    Rig rig(sim::make_saxpy(n), pmu::sim_alpha(), {.sample_period = period});
    (void)rig.substrate->set_estimation(true);
    const double v = count_run(rig, {papi::Preset::kFpOps})[0];
    const pmu::ProfileMeEngine* engine = rig.substrate->sampling_engine();
    const Rows row{out, "ABL",
                   "sim-alpha/saxpy_n400000/period_" + to_string(period)};
    row("samples", engine != nullptr ? engine->samples_taken() : 0, "count");
    row("PAPI_FP_OPS.rel_err", ppm(bench::rel_error(v, 2.0 * n)), "ppm");
    row("overhead", 100 * rig.overhead_fraction(), "%");
  }

  // (c) Skid depth: attribution degrades from exact to a uniform smear
  // as the out-of-order window deepens — why the paper pushes
  // EAR/ProfileMe.
  const struct {
    const char* name;
    sim::SkidModel skid;
  } skids[] = {
      {"precise", sim::SkidModel::precise()},
      {"fixed_2", sim::SkidModel::fixed_skid(2)},
      {"fixed_6", sim::SkidModel::fixed_skid(6)},
      {"ooo_cap_8", sim::SkidModel::out_of_order(0.3, 8, 1)},
      {"ooo_cap_24", sim::SkidModel::out_of_order(0.3, 24, 3)},
      {"ooo_cap_64", sim::SkidModel::out_of_order(0.3, 64, 8)},
  };
  for (const auto& c : skids) {
    pmu::PlatformDescription platform = pmu::sim_x86();
    platform.skid = c.skid;
    accuracy_rows({out, "ABL", "sim-x86/skid_"s + c.name},
                  profile_chase(platform, 100'000, true));
  }
}

}  // namespace

int main() {
  Results out("experiments", "simulated; deterministic");
  Results host_out("experiments_host");
  e11_memory(out, host_out);
  e1_portability(out);
  e2_perfometer(out);
  e3_overhead(out);
  e4_multiplex(out);
  e5_allocator(out, host_out);
  e6_attribution(out);
  e7_flops(out);
  e8_convergence(out);
  e9_granularity(out);
  e10_timers(out, host_out);
  e12_many_metrics(out);
  ablations(out);
  return out.finish() | host_out.finish();
}
