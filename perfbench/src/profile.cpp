// profile: the paper's direct-counting vs sampling finding, on sim-x86
// with costs charged, over make_multiphase.  One episode runs two ranks:
//
//   counting rank (this thread): a TAU-style profiler runs its machine in
//     seeded region lengths and calls accum() at every region boundary on
//     8 presets multiplexed on 4 counters (20k-cycle slices);
//   sampling rank (second thread): the same program under an async
//     profil() on PAPI_TOT_CYC, feeding the library's aggregator thread.
//     It needs its own thread: overflow is refused on a multiplexed set
//     and a thread runs one set at a time.
//
// The first kExactEpisodes episodes fix the exact metrics (overhead
// ratios, multiplexing error, call counts); later episodes replay the
// same episode inputs, must reproduce those values exactly, and add host
// timing samples until the budget ends.
//
// The library always runs behind the substrate-boundary probe here: the
// output check needs the overflow deliveries counted at that boundary,
// and every probed call is thousands of simulated cycles long.  The traced
// run also times the probed calls.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/library.h"
#include "core/profile.h"
#include "harness.h"
#include "sim/kernels.h"
#include "substrate/sim_substrate.h"

namespace perfbench {

namespace papi = papirepro::papi;
namespace pmu = papirepro::pmu;
namespace sim = papirepro::sim;

namespace {

constexpr std::uint64_t kSliceCycles = 20'000;
constexpr std::uint64_t kProfilThreshold = 20'000;  // TOT_CYC per sample
constexpr std::size_t kRingCapacity = 1u << 14;     // > samples per run
constexpr int kExactEpisodes = 96;

constexpr papi::Preset kMuxPresets[] = {
    papi::Preset::kTotIns, papi::Preset::kFpIns,  papi::Preset::kLdIns,
    papi::Preset::kSrIns,  papi::Preset::kBrIns,  papi::Preset::kBrMsp,
    papi::Preset::kTotCyc, papi::Preset::kL1Dcm};
constexpr std::size_t kNumMux = std::size(kMuxPresets);
/// Presets whose multiplexed totals are compared against the reference:
/// the non-zero instruction classes.  SR_INS counts 0 in this kernel, and
/// TOT_CYC / L1_DCM absorb the charged cost, so they have no costs-off
/// reference.
constexpr std::size_t kErrPresets[] = {0, 1, 2, 4, 5};

sim::Workload make_program(bool smoke) {
  return smoke ? sim::make_multiphase(10, 200) : sim::make_multiphase(16, 1000);
}

/// Costs-off, direct-counted totals of the program: two passes, because
/// FP_INS, BR_INS and BR_MSP compete for sim-x86's two high counters.
bool reference_counts(const sim::Workload& w, long long (&ref)[kNumMux]) {
  const std::vector<std::vector<std::size_t>> passes = {{0, 2, 1, 4}, {5}};
  for (const auto& pass : passes) {
    sim::Machine m(w.program, pmu::sim_x86().machine);
    w.setup(m);
    papi::Library lib(std::make_unique<papi::SimSubstrate>(
        m, pmu::sim_x86(), papi::SimSubstrateOptions{.charge_costs = false}));
    auto handle = lib.create_event_set();
    if (!handle.ok()) return false;
    papi::EventSet& set = *lib.event_set(handle.value()).value();
    for (const std::size_t i : pass) {
      if (!set.add_preset(kMuxPresets[i]).ok()) return false;
    }
    if (!set.start().ok()) return false;
    m.run();
    std::vector<long long> out(pass.size());
    if (!set.stop(out).ok()) return false;
    for (std::size_t k = 0; k < pass.size(); ++k) ref[pass[k]] = out[k];
  }
  return true;
}

/// What one episode produced.  The first block is exact (a function of
/// the episode inputs only); the rest is host timing.
struct Episode {
  std::uint64_t count_overhead = 0, count_cycles = 0;
  std::uint64_t sample_overhead = 0, sample_cycles = 0;
  long long totals[kNumMux] = {};
  double mux_err = 0;
  ProbeCounts count_calls, sample_calls;
  std::uint64_t rotations = 0, enqueued = 0, dropped = 0, dispatched = 0;
  std::uint64_t histogram = 0;

  double setup_s = 0;
  double run_self_s = 0;

  bool same_exact(const Episode& o) const {
    for (std::size_t i = 0; i < kNumMux; ++i) {
      if (totals[i] != o.totals[i]) return false;
    }
    return count_overhead == o.count_overhead &&
           count_cycles == o.count_cycles &&
           sample_overhead == o.sample_overhead &&
           sample_cycles == o.sample_cycles &&
           count_calls.read == o.count_calls.read &&
           sample_calls.overflows == o.sample_calls.overflows;
  }
};

/// Host timings, each scaled by the calibration batch run just before it.
struct Timing {
  Samples accum_ns, raw_accum_ns, substrate_accum_ns, calib;
  /// Simulated MIPS of every region / chunk of both ranks, each scaled by
  /// the calibration its thread ran just before it.  A per-region median
  /// shrugs off the hypervisor stealing a vCPU for a few milliseconds,
  /// which thread CPU time still counts.
  Samples region_mips;
  std::uint64_t accums = 0, allocs = 0, switched = 0;
};

/// The sampling rank: own thread, own machine, async profil on TOT_CYC.
struct SamplingRank {
  sim::Machine* machine = nullptr;
  papi::EventSet* set = nullptr;
  papi::SimSubstrate* sim = nullptr;
  ProbeCounts* probe = nullptr;
  std::atomic<bool> started{false};
  std::atomic<bool> go{false};
  bool start_ok = false, stop_ok = false;
  Samples chunk_mips;  ///< scaled by this thread's own calibration
  double run_ns = 0;  ///< scaled host ns in Machine::run minus probed calls

  void main(std::uint64_t seed) {
    sim->bind_thread_machine(*machine);
    set_thread_probe_counts(probe);
    start_ok = set->start().ok();
    started.store(true);
    while (!go.load()) std::this_thread::yield();
    Inputs in(seed, 0x5a3);
    while (start_ok && !machine->halted()) {
      const double cal = calib_batch_ns();
      const double c0 = thread_cpu_s();
      const std::int64_t i0 = probe->inside_ns;
      const std::int64_t t0 = now_ns();
      const sim::RunResult r = machine->run(in.between(50'000, 200'000));
      run_ns += at_ref_speed(static_cast<double>(now_ns() - t0), cal) -
                at_ref_speed(static_cast<double>(probe->inside_ns - i0), cal);
      const double cpu = thread_cpu_s() - c0;
      if (cpu > 0) {
        chunk_mips.add(static_cast<double>(r.instructions) /
                       at_ref_speed(cpu, cal) / 1e6);
      }
    }
    stop_ok = start_ok && set->stop().ok();  // drains the ring
    set_thread_probe_counts(nullptr);
    sim->unbind_thread_machine();
  }
};

Episode run_episode(const sim::Workload& w, const PhaseConfig& cfg,
                    std::uint64_t episode_seed, const long long (&ref)[kNumMux],
                    Timing& timing, Report& rep) {
  Episode ep;
  const pmu::PlatformDescription& x86 = pmu::sim_x86();
  const double setup_cal = calib_batch_ns();
  const std::int64_t setup_t0 = now_ns();
  sim::Machine count_m(w.program, x86.machine);
  w.setup(count_m);
  sim::Machine sample_m(w.program, x86.machine);
  w.setup(sample_m);
  auto owned = std::make_unique<papi::SimSubstrate>(count_m, x86);
  papi::SimSubstrate* simsub = owned.get();
  set_thread_probe_counts(&ep.count_calls);
  papi::Library lib(make_probe_substrate(std::move(owned), cfg.trace));
  (void)lib.configure_sampling(
      {.async = true, .ring_capacity = kRingCapacity});
  papi::ProfileBuffer histogram(sim::kTextBase, 1u << 16);

  auto counting_handle = lib.create_event_set();
  auto sampling_handle = lib.create_event_set();
  bool ok = counting_handle.ok() && sampling_handle.ok();
  papi::EventSet* counting =
      ok ? lib.event_set(counting_handle.value()).value() : nullptr;
  papi::EventSet* sampling =
      ok ? lib.event_set(sampling_handle.value()).value() : nullptr;
  ok = ok && counting->enable_multiplex(kSliceCycles).ok();
  for (const papi::Preset p : kMuxPresets) {
    ok = ok && counting->add_preset(p).ok();
  }
  const papi::EventId cyc = papi::EventId::preset(papi::Preset::kTotCyc);
  ok = ok && sampling->add_preset(papi::Preset::kTotCyc).ok() &&
       sampling->profil(histogram, cyc, kProfilThreshold).ok() &&
       counting->start().ok();
  rep.attempted += 1;
  rep.check(ok, "profile: both ranks' sets build and the counting set starts");
  if (!ok) {
    set_thread_probe_counts(nullptr);
    return ep;
  }
  SamplingRank sr;
  sr.machine = &sample_m;
  sr.set = sampling;
  sr.sim = simsub;
  sr.probe = &ep.sample_calls;
  std::thread sampler(&SamplingRank::main, &sr, episode_seed);
  while (!sr.started.load()) std::this_thread::yield();
  ep.setup_s =
      at_ref_speed(1e-9 * static_cast<double>(now_ns() - setup_t0), setup_cal);
  rep.check(sr.start_ok, "profile: the sampling set starts");
  sr.go.store(true);

  // --- counting rank: regions with accum() at every boundary -----------------
  Inputs in(episode_seed, 0xacc);
  long long acc[kNumMux] = {};
  double run_ns = 0;
  const std::uint64_t lo = cfg.smoke ? 2'000 : 10'000;
  const std::uint64_t hi = cfg.smoke ? 6'000 : 30'000;
  while (!count_m.halted()) {
    const double run_cal = calib_batch_ns();
    const double c0 = thread_cpu_s();
    std::int64_t i0 = ep.count_calls.inside_ns;
    const std::int64_t t0 = now_ns();
    const sim::RunResult r = count_m.run(in.between(lo, hi));
    run_ns += at_ref_speed(static_cast<double>(now_ns() - t0), run_cal) -
              at_ref_speed(static_cast<double>(ep.count_calls.inside_ns - i0),
                           run_cal);
    const double cpu = thread_cpu_s() - c0;
    if (cpu > 0) {
      timing.region_mips.add(static_cast<double>(r.instructions) /
                             at_ref_speed(cpu, run_cal) / 1e6);
    }

    const std::uint64_t sw = thread_switches();
    const double cal = calib_batch_ns();
    i0 = ep.count_calls.inside_ns;
    const std::uint64_t a0 = thread_allocs();
    const std::int64_t t1 = now_ns();
    const bool accum_ok = counting->accum(acc).ok();
    const std::int64_t t2 = now_ns();
    timing.allocs += thread_allocs() - a0;
    if (thread_switches() == sw) {
      timing.calib.add(cal);
      timing.accum_ns.add(at_ref_speed(static_cast<double>(t2 - t1), cal));
      timing.raw_accum_ns.add(static_cast<double>(t2 - t1));
      timing.substrate_accum_ns.add(at_ref_speed(
          static_cast<double>(ep.count_calls.inside_ns - i0), cal));
    } else {
      ++timing.switched;
    }
    ++timing.accums;
    rep.attempted += 1;
    if (!accum_ok) ++rep.failed;
  }
  rep.attempted += 1;
  if (!counting->stop().ok()) ++rep.failed;
  sampler.join();
  rep.attempted += 2;
  if (!sr.stop_ok) ++rep.failed;
  set_thread_probe_counts(nullptr);

  // --- exact results -----------------------------------------------------------
  ep.count_overhead = count_m.overhead_cycles();
  ep.count_cycles = count_m.cycles();
  ep.sample_overhead = sample_m.overhead_cycles();
  ep.sample_cycles = sample_m.cycles();
  for (std::size_t i = 0; i < kNumMux; ++i) ep.totals[i] = acc[i];
  for (const std::size_t i : kErrPresets) {
    const double err = std::fabs(static_cast<double>(acc[i] - ref[i])) /
                       static_cast<double>(ref[i]);
    ep.mux_err = std::max(ep.mux_err, err);
  }
  const papi::TelemetrySnapshot t = lib.telemetry_snapshot();
  ep.rotations = t.value(papi::TelemetryCounter::kMuxRotations);
  const papi::SamplingStats ss = lib.sampling_stats();
  ep.enqueued = ss.enqueued;
  ep.dropped = ss.dropped;
  ep.dispatched = ss.dispatched;
  ep.histogram = histogram.total_samples();
  rep.failed += ep.dropped;  // a lost sample is a failed op
  rep.check(ep.histogram + ep.dropped == ep.sample_calls.overflows,
            "profile: histogram + drops equal substrate overflow deliveries");

  timing.region_mips.absorb(sr.chunk_mips);
  ep.run_self_s = 1e-9 * (run_ns + sr.run_ns);
  return ep;
}

}  // namespace

void run_profile(const PhaseConfig& cfg, Report& rep) {
  const sim::Workload w = make_program(cfg.smoke);
  long long ref[kNumMux] = {};
  rep.attempted += 1;
  rep.check(reference_counts(w, ref), "profile: reference run counts");
  for (const std::size_t i : kErrPresets) {
    rep.check(ref[i] > 0, "profile: reference totals are non-zero");
  }

  const int exact_episodes = cfg.smoke ? 1 : kExactEpisodes;
  const double clock_before = clock_cost_ns();
  std::vector<Episode> exact;
  Timing timing;
  Samples setup, run_self;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg.budget_s * 1e9);
  for (int e = 0; e < exact_episodes || now_ns() < deadline; ++e) {
    const int slot = e % exact_episodes;
    const std::uint64_t episode_seed =
        cfg.seed * 1000003ULL + static_cast<std::uint64_t>(slot);
    Episode ep = run_episode(w, cfg, episode_seed, ref, timing, rep);
    setup.add(ep.setup_s);
    run_self.add(ep.run_self_s);
    if (e < exact_episodes) {
      exact.push_back(ep);
    } else {
      rep.check(ep.same_exact(exact[static_cast<std::size_t>(slot)]),
                "profile: a replayed episode reproduces its exact results");
    }
  }
  const double clock_ns = 0.5 * (clock_before + clock_cost_ns());
  rep.setup_s = setup.median();

  // Exact metrics over the fixed episodes.
  std::uint64_t c_over = 0, c_cyc = 0, s_over = 0, s_cyc = 0;
  std::uint64_t reads = 0, start_stops = 0, overflows = 0, rotations = 0;
  std::uint64_t enqueued = 0, dropped = 0, dispatched = 0;
  std::uint64_t count_reads = 0, count_start_stops = 0;
  double err_sum = 0;
  Samples errs;
  for (const Episode& ep : exact) {
    errs.add(ep.mux_err);
    c_over += ep.count_overhead;
    c_cyc += ep.count_cycles;
    s_over += ep.sample_overhead;
    s_cyc += ep.sample_cycles;
    count_reads += ep.count_calls.read;
    count_start_stops += ep.count_calls.start + ep.count_calls.stop;
    reads += ep.count_calls.read + ep.sample_calls.read;
    start_stops += ep.count_calls.start + ep.count_calls.stop +
                   ep.sample_calls.start + ep.sample_calls.stop;
    overflows += ep.sample_calls.overflows;
    rotations += ep.rotations;
    enqueued += ep.enqueued;
    dropped += ep.dropped;
    dispatched += ep.dispatched;
    err_sum += ep.mux_err;
  }
  const double count_pct =
      c_cyc == 0 ? 0.0 : 100.0 * static_cast<double>(c_over) / c_cyc;
  const double sample_pct =
      s_cyc == 0 ? 0.0 : 100.0 * static_cast<double>(s_over) / s_cyc;
  const double mux_err_pct =
      exact.empty() ? 0.0 : 100.0 * err_sum / static_cast<double>(exact.size());
  rep.metric("count_overhead_pct", count_pct, "%");
  rep.metric("sample_overhead_pct", sample_pct, "%");
  rep.metric("mux_err_pct", mux_err_pct, "%");
  rep.metric("sim_mips", timing.region_mips.median(), "MIPS");

  // Closure of the simulated overhead against the platform's cost model.
  const pmu::CostModel& costs = pmu::sim_x86().costs;
  const std::uint64_t read_cyc = reads * costs.read_cost_cycles;
  const std::uint64_t ss_cyc = start_stops * costs.start_stop_cost_cycles;
  const std::uint64_t ovf_cyc =
      overflows * costs.overflow_enqueue_cost_cycles;
  const std::uint64_t total = c_over + s_over;
  const std::uint64_t attributed = read_cyc + ss_cyc + ovf_cyc;
  const double unattributed =
      static_cast<double>(total) - static_cast<double>(attributed);
  rep.check(unattributed == 0,
            "profile: overhead cycles close against the substrate calls");

  std::printf("# profile: %zu episodes (%d exact), accum %.1f ns (n=%zu), "
              "sim %.2f MIPS (n=%zu), setup %.4f s\n",
              setup.size(), exact_episodes, timing.accum_ns.median(),
              timing.accum_ns.size(), timing.region_mips.median(),
              timing.region_mips.size(),
              rep.setup_s);
  std::printf("# profile: accum quartiles %.1f / %.1f / %.1f ns, p90 %.1f; "
              "unscaled host accum %.1f ns; %llu accums dropped for a context "
              "switch; mux err median %.4f %%\n",
              timing.accum_ns.quantile(0.25), timing.accum_ns.median(),
              timing.accum_ns.quantile(0.75), timing.accum_ns.quantile(0.9),
              timing.raw_accum_ns.median(),
              static_cast<unsigned long long>(timing.switched),
              100 * errs.median());
  std::printf("# profile: count overhead %.4f %%, sample overhead %.4f %%, "
              "mux err %.4f %% (mean of per-episode max), calib_ns %.0f, "
              "clock %.1f ns/call\n",
              count_pct, sample_pct, mux_err_pct, timing.calib.median(),
              clock_ns);
  if (!cfg.trace) return;

  const double sub_accum = timing.substrate_accum_ns.median();
  rep.layer_metric("profile.core.eventset.accum_self_ns",
                   timing.accum_ns.median() - sub_accum, "ns");
  rep.layer_metric("profile.substrate.accum_ns", sub_accum, "ns");
  rep.layer_metric("profile.core.multiplex.accum_ns", timing.accum_ns.median(),
                   "ns");
  rep.layer_metric("profile.substrate.reads", static_cast<double>(count_reads),
                   "count");
  rep.layer_metric("profile.substrate.start_stops",
                   static_cast<double>(count_start_stops), "count");
  rep.layer_metric("profile.substrate.overflows",
                   static_cast<double>(overflows), "count");
  rep.layer_metric("profile.sim.overhead_cycles.read",
                   static_cast<double>(read_cyc), "cycles");
  rep.layer_metric("profile.sim.overhead_cycles.start_stop",
                   static_cast<double>(ss_cyc), "cycles");
  rep.layer_metric("profile.sim.overhead_cycles.overflow",
                   static_cast<double>(ovf_cyc), "cycles");
  rep.layer_metric("profile.sim.overhead_cycles.unattributed", unattributed,
                   "cycles");
  rep.layer_metric("profile.core.multiplex.rotations",
                   static_cast<double>(rotations), "count");
  rep.layer_metric("profile.core.sampling.enqueued",
                   static_cast<double>(enqueued), "count");
  rep.layer_metric("profile.core.sampling.dropped",
                   static_cast<double>(dropped), "count");
  rep.layer_metric("profile.core.sampling.dispatched",
                   static_cast<double>(dispatched), "count");
  rep.layer_metric("profile.sim.run_self_s", run_self.median(), "s");
  rep.layer_metric("profile.core.allocs_per_op",
                   timing.accums == 0 ? 0.0
                                      : static_cast<double>(timing.allocs) /
                                            static_cast<double>(timing.accums),
                   "count");
  rep.layer_metric("profile.env.calib_ns", timing.calib.median(), "ns");
  rep.layer_metric("profile.env.clock_ns", clock_ns, "ns");
  std::printf("# profile ladder (ns/accum): substrate read+reset %.1f + "
              "core.eventset self %.1f = accum %.1f\n",
              sub_accum, timing.accum_ns.median() - sub_accum,
              timing.accum_ns.median());
  std::printf("# profile ladder (sim cycles, %d episodes, both ranks): read "
              "%llu + start/stop %llu + overflow %llu + unattributed %.0f = "
              "Machine::overhead_cycles %llu\n",
              exact_episodes, static_cast<unsigned long long>(read_cyc),
              static_cast<unsigned long long>(ss_cyc),
              static_cast<unsigned long long>(ovf_cyc), unattributed,
              static_cast<unsigned long long>(total));
}

}  // namespace perfbench
