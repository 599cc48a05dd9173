// selfmon: a tool's own counting thread (TAU, VProf, perfometer reading
// counters at region boundaries).  One thread on sim-x86 with costs off
// drives one running direct set {PAPI_TOT_INS, PAPI_TOT_CYC}: timed
// batches of read(), accum() and stop()+start() in a seeded order, with
// the machine advanced a seeded number of instructions between batches
// (untimed), so every batch reads counts that really changed.
//
// Output check: after every batch the values equal the machine's
// retired-instruction and cycle deltas since the last zero point, exactly.
//
// Traced run: a second library over the same machine routes its set
// through the substrate-boundary probe (call counts per op, and the
// probe's own cost as the traced-vs-untraced read difference), and
// standalone batches time the read ladder below EventSet::read:
// PmuModel::read x2 -> CounterContext::read -> EventSet::read.
#include <cstdio>
#include <vector>

#include "core/library.h"
#include "harness.h"
#include "sim/kernels.h"
#include "substrate/sim_substrate.h"

namespace perfbench {

namespace papi = papirepro::papi;
namespace pmu = papirepro::pmu;
namespace sim = papirepro::sim;

namespace {

constexpr std::int64_t kEndless = std::int64_t{1} << 50;
/// Iterations before allocations count as steady state.
constexpr std::uint64_t kWarmupIters = 64;

enum Op { kRead = 0, kAccum = 1, kRestart = 2 };

/// One library whose single set counts the phase's machine.
struct Counter {
  papi::SimSubstrate* sim = nullptr;  // owned by the library
  std::unique_ptr<papi::Library> library;
  papi::EventSet* set = nullptr;
  ProbeCounts probe;
  /// Machine counts at the set's last zero point (start / accum).
  std::uint64_t base_ins = 0;
  std::uint64_t base_cyc = 0;
};

/// Creates the library and its set and starts it; false on any failure.
bool make_counter(sim::Machine& machine, bool probed, Counter& c) {
  auto owned = std::make_unique<papi::SimSubstrate>(
      machine, pmu::sim_x86(), papi::SimSubstrateOptions{.charge_costs = false});
  c.sim = owned.get();
  std::unique_ptr<papi::Substrate> substrate = std::move(owned);
  if (probed) {
    set_thread_probe_counts(&c.probe);
    substrate = make_probe_substrate(std::move(substrate), /*timed=*/false);
  }
  c.library = std::make_unique<papi::Library>(std::move(substrate));
  auto handle = c.library->create_event_set();
  if (!handle.ok()) return false;
  c.set = c.library->event_set(handle.value()).value();
  if (!c.set->add_preset(papi::Preset::kTotIns).ok() ||
      !c.set->add_preset(papi::Preset::kTotCyc).ok() || !c.set->start().ok()) {
    return false;
  }
  c.base_ins = machine.retired();
  c.base_cyc = machine.cycles();
  set_thread_probe_counts(nullptr);
  return true;
}

constexpr int batch_size(Op op, bool smoke) {
  if (smoke) return 4;
  return op == kRestart ? 32 : 256;
}

/// Runs one timed batch of `op` on `c`, checks the values against the
/// machine, and returns host ns per op.
double run_batch(Op op, int n, Counter& c, const sim::Machine& m,
                 Report& rep) {
  long long v[2] = {0, 0};
  long long acc[2] = {0, 0};
  long long out[2] = {0, 0};
  std::uint64_t bad = 0;
  const std::int64_t t0 = now_ns();
  switch (op) {
    case kRead:
      for (int i = 0; i < n; ++i) bad += !c.set->read(v).ok();
      break;
    case kAccum:
      for (int i = 0; i < n; ++i) bad += !c.set->accum(acc).ok();
      break;
    case kRestart:
      for (int i = 0; i < n; ++i) {
        bad += !c.set->stop(i == 0 ? std::span<long long>(out)
                                   : std::span<long long>())
                    .ok();
        bad += !c.set->start().ok();
      }
      break;
  }
  const std::int64_t t1 = now_ns();
  rep.attempted += static_cast<std::uint64_t>(n);
  rep.failed += bad;

  const auto d_ins = static_cast<long long>(m.retired() - c.base_ins);
  const auto d_cyc = static_cast<long long>(m.cycles() - c.base_cyc);
  const long long* got = op == kRead ? v : op == kAccum ? acc : out;
  rep.check(got[0] == d_ins && got[1] == d_cyc,
            "selfmon: TOT_INS/TOT_CYC equal the machine deltas");
  if (op != kRead) {
    c.base_ins = m.retired();
    c.base_cyc = m.cycles();
  }
  return static_cast<double>(t1 - t0) / n;
}

/// Standalone ladder batches over a context from the same substrate.
struct Ladder {
  std::unique_ptr<papi::CounterContext> ctx;
  std::vector<pmu::NativeEventCode> natives;
  std::vector<std::uint32_t> assignment;
  Samples pmu_read, sub_read, sub_reset, sub_restart;

  bool init(papi::SimSubstrate& s) {
    for (const char* name : {"INST_RETIRED", "CPU_CLK_UNHALTED"}) {
      auto code = s.native_by_name(name);
      if (!code.ok()) return false;
      natives.push_back(code.value());
    }
    auto assign = s.allocate(natives, {});
    auto c = s.create_context();
    if (!assign.ok() || !c.ok()) return false;
    assignment = assign.value();
    ctx = std::move(c).value();
    return ctx->program(natives, assignment).ok() && ctx->start().ok();
  }

  /// One batch of each rung, scaled by the iteration's calibration.
  void run(int n, double cal) {
    std::uint64_t raw[2] = {0, 0};
    std::uint64_t sink = 0;
    const pmu::PmuModel& p = static_cast<papi::SimCounterContext&>(*ctx).pmu();
    auto per_op = [cal](std::int64_t t0, std::int64_t t1, int ops) {
      return at_ref_speed(static_cast<double>(t1 - t0) / ops, cal);
    };
    std::int64_t t0 = now_ns();
    for (int i = 0; i < 4 * n; ++i) {
      sink += p.read(assignment[0]).value() + p.read(assignment[1]).value();
    }
    std::int64_t t1 = now_ns();
    pmu_read.add(per_op(t0, t1, 4 * n));
    t0 = now_ns();
    for (int i = 0; i < n; ++i) (void)ctx->read(raw);
    t1 = now_ns();
    sub_read.add(per_op(t0, t1, n));
    t0 = now_ns();
    for (int i = 0; i < n; ++i) (void)ctx->reset_counts();
    t1 = now_ns();
    sub_reset.add(per_op(t0, t1, n));
    const int restarts = std::max(1, n / 8);
    t0 = now_ns();
    for (int i = 0; i < restarts; ++i) {
      (void)ctx->stop();
      (void)ctx->read(raw);
      (void)ctx->program(natives, assignment);
      (void)ctx->reset_counts();
      (void)ctx->start();
    }
    t1 = now_ns();
    sub_restart.add(per_op(t0, t1, restarts));
    if (sink + raw[0] == 1) std::fputs("", stderr);  // keep the reads
  }
};

}  // namespace

void run_selfmon(const PhaseConfig& cfg, Report& rep) {
  const int setup_reps = cfg.smoke ? 2 : 9;
  Inputs in(cfg.seed, 0x5e1f);
  sim::Workload w = sim::make_empty_loop(kEndless);

  // --- set-up, repeated; the last rig is kept for the timed loop -----------
  Samples setup;
  std::unique_ptr<sim::Machine> machine;
  Counter bare;
  for (int r = 0; r < setup_reps; ++r) {
    if (bare.set != nullptr) (void)bare.set->stop();
    bare = Counter{};
    machine.reset();
    const double cal = calib_batch_ns();
    const std::int64_t t0 = now_ns();
    machine = std::make_unique<sim::Machine>(w.program, pmu::sim_x86().machine);
    const bool ok = make_counter(*machine, /*probed=*/false, bare);
    setup.add(at_ref_speed(1e-9 * static_cast<double>(now_ns() - t0), cal));
    rep.attempted += 1;
    rep.check(ok, "selfmon: library, set creation and start succeed");
    if (!ok) return;
  }
  rep.setup_s = setup.median();

  Counter probed;
  Ladder ladder;
  if (cfg.trace) {
    rep.check(make_counter(*machine, /*probed=*/true, probed),
              "selfmon: probed library starts");
    rep.check(ladder.init(*bare.sim), "selfmon: ladder context programs");
  }

  // --- timed loop ------------------------------------------------------------
  // Every iteration: one calibration batch, then one timed batch (and in
  // the traced run its probed twin and, every 8th, the ladder), all
  // scaled by that calibration.
  Samples ns[3], raw_ns[3], traced_ns[3], calib;
  std::uint64_t ops = 0, allocs = 0, switched = 0;
  std::uint64_t probe_calls[3] = {0, 0, 0};
  std::uint64_t probed_ops[3] = {0, 0, 0};
  const double clock_before = clock_cost_ns();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg.budget_s * 1e9);
  for (std::uint64_t iter = 0; now_ns() < deadline; ++iter) {
    // Seeded op mix: half reads, 30 % accums, 20 % restarts.
    const std::uint64_t pick = in.between(0, 9);
    const Op op = pick < 5 ? kRead : pick < 8 ? kAccum : kRestart;
    const int n = batch_size(op, cfg.smoke);
    const std::uint64_t sw = thread_switches();
    const double cal = calib_batch_ns();
    const std::uint64_t a0 = thread_allocs();
    const double batch_ns = run_batch(op, n, bare, *machine, rep);
    if (iter >= kWarmupIters) {  // steady state: buffer capacity is warm
      allocs += thread_allocs() - a0;
      ops += static_cast<std::uint64_t>(n);
    }
    if (thread_switches() != sw) {
      ++switched;
    } else {
      calib.add(cal);
      ns[op].add(at_ref_speed(batch_ns, cal));
      raw_ns[op].add(batch_ns);
    }
    if (cfg.trace) {
      const std::uint64_t before = probed.probe.calls();
      traced_ns[op].add(
          at_ref_speed(run_batch(op, n, probed, *machine, rep), cal));
      probed_ops[op] += static_cast<std::uint64_t>(n);
      probe_calls[op] += probed.probe.calls() - before;
      if (iter % 8 == 0) ladder.run(cfg.smoke ? 4 : 256, cal);
    }
    machine->run(in.between(256, 4096));
  }
  const double clock_ns = 0.5 * (clock_before + clock_cost_ns());
  if (cfg.trace) (void)probed.set->stop();
  (void)bare.set->stop();

  const double read_ns = ns[kRead].median();
  const double accum_ns = ns[kAccum].median();
  const double restart_ns = ns[kRestart].median();
  rep.metric("read_ns", read_ns, "ns");
  rep.metric("read_ns_p90", ns[kRead].windowed_p90(), "ns");
  rep.metric("accum_ns", accum_ns, "ns");
  rep.metric("restart_ns", restart_ns, "ns");
  std::printf("# selfmon: read %.2f ns (p90 %.2f, n=%zu batches), accum %.2f "
              "ns (n=%zu), restart %.1f ns (n=%zu), setup %.6f s (n=%d)\n",
              read_ns, ns[kRead].windowed_p90(), ns[kRead].size(), accum_ns,
              ns[kAccum].size(), restart_ns, ns[kRestart].size(), rep.setup_s,
              setup_reps);
  std::printf("# selfmon: unscaled host ns: read %.2f, accum %.2f, restart "
              "%.1f; %llu batches dropped for a context switch\n",
              raw_ns[kRead].median(), raw_ns[kAccum].median(),
              raw_ns[kRestart].median(),
              static_cast<unsigned long long>(switched));
  std::printf("# selfmon: calib_ns %.0f (n=%zu), clock %.1f ns/call, allocs "
              "%llu over %llu steady-state ops\n",
              calib.median(), calib.size(), clock_ns,
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(ops));
  if (!cfg.trace) return;

  const papi::TelemetrySnapshot t = bare.library->telemetry_snapshot();
  const double hits =
      static_cast<double>(t.value(papi::TelemetryCounter::kAllocCacheHits));
  const double misses =
      static_cast<double>(t.value(papi::TelemetryCounter::kAllocCacheMisses));
  auto per_op = [&](Op op) {
    return probed_ops[op] == 0 ? 0.0
                               : static_cast<double>(probe_calls[op]) /
                                     static_cast<double>(probed_ops[op]);
  };
  const double sub_read = ladder.sub_read.median();
  const double sub_reset = ladder.sub_reset.median();
  const double sub_restart = ladder.sub_restart.median();
  const double pmu_read = ladder.pmu_read.median();
  rep.layer_metric("selfmon.pmu.read_ns", 2 * pmu_read, "ns");
  rep.layer_metric("selfmon.substrate.read_ns", sub_read, "ns");
  rep.layer_metric("selfmon.core.eventset.read_self_ns", read_ns - sub_read,
                   "ns");
  rep.layer_metric("selfmon.substrate.calls_per_read", per_op(kRead),
                   "count");
  rep.layer_metric("selfmon.substrate.calls_per_accum", per_op(kAccum),
                   "count");
  rep.layer_metric("selfmon.substrate.reset_ns", sub_reset, "ns");
  rep.layer_metric("selfmon.core.eventset.accum_self_ns",
                   accum_ns - sub_read - sub_reset, "ns");
  rep.layer_metric("selfmon.substrate.restart_ns", sub_restart, "ns");
  rep.layer_metric("selfmon.substrate.calls_per_restart", per_op(kRestart),
                   "count");
  rep.layer_metric("selfmon.core.eventset.restart_self_ns",
                   restart_ns - sub_restart, "ns");
  rep.layer_metric("selfmon.core.alloc_cache.hit_ratio",
                   hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  rep.layer_metric("selfmon.core.allocs_per_op",
                   ops == 0 ? 0.0 : static_cast<double>(allocs) / ops,
                   "count");
  rep.layer_metric("selfmon.trace.read_overhead_ns",
                   traced_ns[kRead].median() - read_ns, "ns");
  rep.layer_metric("selfmon.env.calib_ns", calib.median(), "ns");
  rep.layer_metric("selfmon.env.clock_ns", clock_ns, "ns");
  std::printf("# selfmon ladder (ns/read): pmu 2x%.2f -> substrate %.2f "
              "(context self %.2f) -> core.eventset self %.2f = read %.2f; "
              "unattributed 0 by construction\n",
              pmu_read, sub_read, sub_read - 2 * pmu_read, read_ns - sub_read,
              read_ns);
  std::printf("# selfmon ladder (ns): accum %.2f = substrate read %.2f + "
              "reset %.2f + core self %.2f; restart %.1f = substrate %.1f + "
              "core self %.1f; probe adds %.2f ns/read\n",
              accum_ns, sub_read, sub_reset, accum_ns - sub_read - sub_reset,
              restart_ns, sub_restart, restart_ns - sub_restart,
              traced_ns[kRead].median() - read_ns);
}

}  // namespace perfbench
