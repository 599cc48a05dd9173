// SP1: asynchronous sampling pipeline — overhead and convergence.  The
// paper's Section 4 lesson: direct counting "can cost up to 30 %" while
// statistical sampling substrates sit at 1-2 %, *if* taking a sample
// costs the measured thread no more than the trap itself.  This bench
// pits four regimes of the same saxpy run against each other on
// sim-power3's cost model (trap+enqueue 320 cycles vs full synchronous
// handler 3500, counter read 1800):
//
//   uninstrumented   no PAPI at all (the baseline cycle count)
//   direct           counter reads on a 10k-cycle timer (perfometer)
//   profil_sync      PAPI_profil, handlers inline in the counting thread
//   profil_async     PAPI_profil through the ring + aggregator thread
//
// and then verifies the async histogram is *identical* to the sync one
// on a costs-off run (same instruction stream, same overflow points —
// the pipeline reorders work in time, not in content).
//
// Gates (nonzero exit): async overhead <= 5 %, below both sync and
// direct; async samples plus drops reproduce the sync histogram.  Every
// figure is simulated cycles, so the rows need no host clock.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace papirepro;
using bench::Rig;

namespace {

constexpr std::int64_t kIters = 200'000;
constexpr std::uint64_t kProfilThreshold = 10'000;
constexpr std::uint64_t kReadPeriodCycles = 10'000;
constexpr double kAsyncBudget = 0.05;  // the <= 5 % acceptance line

struct Row {
  const char* mode;
  std::uint64_t cycles = 0;
  std::uint64_t overhead_cycles = 0;
  std::uint64_t samples = 0;
  std::uint64_t dropped = 0;
  double overhead_pct = 0;
};

Row finish(const char* mode, const Rig& rig, std::uint64_t samples,
           std::uint64_t dropped) {
  Row row{mode};
  row.cycles = rig.machine->cycles();
  row.overhead_cycles = rig.machine->overhead_cycles();
  row.samples = samples;
  row.dropped = dropped;
  row.overhead_pct = 100.0 * rig.overhead_fraction();
  return row;
}

Row run_uninstrumented() {
  Rig rig(sim::make_saxpy(kIters), pmu::sim_power3());
  rig.machine->run();
  return finish("uninstrumented", rig, 0, 0);
}

Row run_direct() {
  Rig rig(sim::make_saxpy(kIters), pmu::sim_power3());
  papi::EventSet& set = rig.new_set();
  (void)set.add_preset(papi::Preset::kTotIns);
  (void)set.start();
  long long v[1];
  std::uint64_t reads = 0;
  auto timer = rig.library->substrate().add_timer(
      kReadPeriodCycles, [&] {
        ++reads;
        (void)set.read(v);
      });
  rig.machine->run();
  if (timer.ok()) (void)rig.library->substrate().cancel_timer(timer.value());
  (void)set.stop();
  return finish("direct_read_timer", rig, reads, 0);
}

Row run_profil(bool async, papi::ProfileBuffer& buf) {
  Rig rig(sim::make_saxpy(kIters), pmu::sim_power3());
  (void)rig.library->configure_sampling({.async = async});
  papi::EventSet& set = rig.new_set();
  (void)set.add_preset(papi::Preset::kTotIns);
  (void)set.profil(buf, papi::EventId::preset(papi::Preset::kTotIns),
                   kProfilThreshold);
  (void)set.start();
  rig.machine->run();
  (void)set.stop();
  const papi::SamplingStats stats = rig.library->sampling_stats();
  return finish(async ? "profil_async" : "profil_sync", rig,
                buf.total_samples(), stats.dropped);
}

/// Costs-off sync/async pair: identical instruction streams, so the
/// async histogram (plus accounted drops) must reproduce sync exactly.
bool histograms_converge(std::uint64_t* sync_total,
                         std::uint64_t* async_total,
                         std::uint64_t* async_dropped) {
  papi::SimSubstrateOptions off;
  off.charge_costs = false;
  papi::ProfileBuffer sync_buf(sim::kTextBase, 4096);
  {
    Rig rig(sim::make_saxpy(kIters), pmu::sim_power3(), off);
    papi::EventSet& set = rig.new_set();
    (void)set.add_preset(papi::Preset::kTotIns);
    (void)set.profil(sync_buf,
                     papi::EventId::preset(papi::Preset::kTotIns), 2'000);
    (void)set.start();
    rig.machine->run();
    (void)set.stop();
  }
  papi::ProfileBuffer async_buf(sim::kTextBase, 4096);
  std::uint64_t dropped = 0;
  {
    Rig rig(sim::make_saxpy(kIters), pmu::sim_power3(), off);
    (void)rig.library->configure_sampling(
        {.async = true, .ring_capacity = 1u << 12});
    papi::EventSet& set = rig.new_set();
    (void)set.add_preset(papi::Preset::kTotIns);
    (void)set.profil(async_buf,
                     papi::EventId::preset(papi::Preset::kTotIns), 2'000);
    (void)set.start();
    rig.machine->run();
    (void)set.stop();
    dropped = rig.library->sampling_stats().dropped;
  }
  *sync_total = sync_buf.total_samples();
  *async_total = async_buf.total_samples();
  *async_dropped = dropped;
  return async_buf.total_samples() + dropped == sync_buf.total_samples() &&
         async_buf.buckets() == sync_buf.buckets();
}

}  // namespace

int main() {
  std::printf("saxpy(%lld) on sim-power3 (enqueue 320 cy, handler 3500 "
              "cy, read 1800 cy);\nprofil threshold %llu, direct reads "
              "every %llu cycles.\n",
              static_cast<long long>(kIters),
              static_cast<unsigned long long>(kProfilThreshold),
              static_cast<unsigned long long>(kReadPeriodCycles));
  std::vector<Row> rows;
  rows.push_back(run_uninstrumented());
  rows.push_back(run_direct());
  papi::ProfileBuffer sync_buf(sim::kTextBase, 4096);
  rows.push_back(run_profil(false, sync_buf));
  papi::ProfileBuffer async_buf(sim::kTextBase, 4096);
  rows.push_back(run_profil(true, async_buf));

  bench::Results results("sampling_pipeline", "sim_cycles");
  for (const Row& r : rows) {
    results.row("core.sampling", r.mode, "cycles", r.cycles, "cycles");
    results.row("core.sampling", r.mode, "overhead_cycles", r.overhead_cycles,
                "cycles");
    results.row("core.sampling", r.mode, "overhead_pct", r.overhead_pct, "%");
    results.row("core.sampling", r.mode, "samples", r.samples, "count");
    results.row("core.sampling", r.mode, "dropped", r.dropped, "count");
  }

  // Convergence on the costs-off pair, threshold 2000.
  std::uint64_t sync_total = 0, async_total = 0, async_dropped = 0;
  const bool converged = histograms_converge(&sync_total, &async_total,
                                             &async_dropped);
  results.row("core.sampling", "convergence", "sync_total", sync_total,
              "count");
  results.row("core.sampling", "convergence", "async_total", async_total,
              "count");
  results.row("core.sampling", "convergence", "async_dropped", async_dropped,
              "count");

  const double async_pct = rows[3].overhead_pct;
  const double sync_pct = rows[2].overhead_pct;
  const double direct_pct = rows[1].overhead_pct;
  results.gate("SP1 async overhead_pct", async_pct, 100 * kAsyncBudget);
  results.gate("SP1 async below sync and direct", async_pct,
               std::min(sync_pct, direct_pct),
               async_pct < sync_pct && async_pct < direct_pct);
  results.gate("SP1 async samples + drops == sync",
               async_total + async_dropped, sync_total, converged);
  return results.finish();
}
