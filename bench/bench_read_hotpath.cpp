// RH1: steady-state counter hot-path cost — host nanoseconds and heap
// allocations per EventSet::read()/accum() call, across the regimes a
// tool actually runs in: direct counting, a cpu+mem+net set, folded
// narrow-width counters, multiplexed estimation, 1..64 threads each
// driving its own set through one shared Library, and a batched
// snapshot_all() pass over 1000 EventSets.  The paper's overhead lesson
// (Section 4: direct counting can cost up to 30 % while sampling
// substrates stay at 1-2 %) means the portable layer must add ~nothing
// on top of the substrate; every steady-state row should report 0
// allocs.
//
// Gates (nonzero exit): the direct read <= 20 ns with 0 allocations;
// the cross-component read allocation-free and <= 2x the direct read;
// one snapshot_all pass over 1000 sets cheaper than the naive
// per-handle loop, allocation-free and returning 1000 entries; a read
// with 64 threads <= 1.25x a read with one thread (TS1: the registry
// shares no contended state between threads).
//
// Single-thread rows run interleaved batch by batch, scaled to the
// calibration reference.  Threaded rows run in rounds of kRoundSeconds,
// the one- and 64-thread rounds adjacent in every cycle; their times
// are unscaled (see run_interleaved).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sim/comm.h"
#include "substrate/component_substrates.h"

using namespace papirepro;

namespace {

constexpr double kRunSeconds = 2.0;
constexpr int kCalls = 256;  // read()/accum() calls per batch
constexpr int kPairs = 32;   // stop()+start() pairs per batch
constexpr int kSets = 1000;
/// Thread counts of the threaded rows, in round order: one round each
/// per cycle, the gate's pair first and adjacent.
constexpr int kThreadCounts[] = {1, 64, 2, 4, 8, 16, 32};
constexpr int kMaxThreads = 64;
constexpr int kCycles = 16;
constexpr double kRoundSeconds = 0.025;
constexpr papi::SimSubstrateOptions kCostsOff{.charge_costs = false};

/// One started set with its read() and accum() rows.
struct Scenario {
  const char* name;
  bench::Rig rig;
  papi::EventSet* set = nullptr;
  std::vector<long long> v;
  bench::Timed read, accum;

  Scenario(const char* n, sim::Workload w,
           const papi::FaultPlan* plan = nullptr)
      : name(n), rig(std::move(w), pmu::sim_x86(), kCostsOff, plan) {
    set = &rig.new_set();
  }
  void start() {
    v.assign(set->num_events(), 0);
    (void)set->start();
  }
  void time(bench::Round& r) {
    r.time(read, kCalls, [&] {
      for (int i = 0; i < kCalls; ++i) (void)set->read(v);
    });
    r.time(accum, kCalls, [&] {
      for (int i = 0; i < kCalls; ++i) (void)set->accum(v);
    });
  }
};

/// Read, accum and stop()+start() rows of one thread count.
struct ThreadRows {
  bench::Timed read, accum, restart;
};

void absorb(bench::Timed& to, const bench::Timed& from) {
  to.ns.absorb(from.ns);
  to.calls += from.calls;
  to.allocs += from.allocs;
}

/// One Library shared by up to 64 threads, each thread bound to its own
/// machine.  Each thread of a round arms a one-preset set and waits until
/// all are armed (so the timed windows overlap and contention, if any
/// crept back in, is exercised), then times its own batches.
class ThreadedLibrary {
 public:
  ThreadedLibrary() {
    for (int t = 0; t < kMaxThreads; ++t) {
      workloads_.push_back(sim::make_empty_loop(10));
      machines_.push_back(std::make_unique<sim::Machine>(
          workloads_.back().program, pmu::sim_x86().machine));
    }
    auto owned = std::make_unique<papi::SimSubstrate>(
        *machines_[0], pmu::sim_x86(), kCostsOff);
    substrate_ = owned.get();
    library_ = std::make_unique<papi::Library>(std::move(owned));
  }

  /// Runs one round of `n` threads and adds their timings to `rows`.
  void round(int n, ThreadRows& rows) {
    std::atomic<int> armed{0};
    std::atomic<bool> go{false};
    std::vector<ThreadRows> per_thread(n);
    std::vector<std::thread> threads;
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        substrate_->bind_thread_machine(*machines_[t]);
        auto handle = library_->create_event_set();
        papi::EventSet& set = *library_->event_set(handle.value()).value();
        (void)set.add_preset(papi::Preset::kTotIns);
        (void)set.start();
        armed.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        time_thread(set, per_thread[t]);
        (void)set.stop();
        (void)library_->destroy_event_set(set.handle());
        (void)library_->unregister_thread();
      });
    }
    while (armed.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    for (const ThreadRows& t : per_thread) {
      absorb(rows.read, t.read);
      absorb(rows.accum, t.accum);
      absorb(rows.restart, t.restart);
    }
  }

 private:
  static void time_thread(papi::EventSet& set, ThreadRows& rows) {
    long long v[1] = {0};
    bench::run_interleaved(
        kRoundSeconds,
        [&](bench::Round& r) {
          r.time(rows.read, kCalls, [&] {
            for (int i = 0; i < kCalls; ++i) (void)set.read(v);
          });
          r.time(rows.accum, kCalls, [&] {
            for (int i = 0; i < kCalls; ++i) (void)set.accum(v);
          });
          r.time(rows.restart, kPairs, [&] {
            for (int i = 0; i < kPairs; ++i) {
              (void)set.stop();
              (void)set.start();
            }
          });
        },
        /*scaled=*/false);
  }

  std::vector<sim::Workload> workloads_;
  std::vector<std::unique_ptr<sim::Machine>> machines_;
  papi::SimSubstrate* substrate_ = nullptr;  // owned by library_
  std::unique_ptr<papi::Library> library_;
};

}  // namespace

int main() {
  std::printf("host ns and heap allocations per call after start() "
              "(sim-x86, cost charging off)\n");
  bench::Results results("read_hotpath");

  // --- single-thread rows ---------------------------------------------------
  Scenario direct("direct", sim::make_empty_loop(10));
  (void)direct.set->add_preset(papi::Preset::kTotIns);
  (void)direct.set->add_preset(papi::Preset::kTotCyc);

  // cpu:: + mem:: + net::: every read fans out over three component
  // slices.
  Scenario cross("cross_component", sim::make_empty_loop(10));
  sim::CommWorld world({cross.rig.machine.get()});
  (void)cross.rig.library->register_component(
      "mem", "uncore",
      std::make_unique<papi::MemBandwidthSubstrate>(*cross.rig.machine));
  (void)cross.rig.library->register_component(
      "net", "nic", std::make_unique<papi::NetworkSubstrate>(world));
  (void)cross.set->add_preset(papi::Preset::kTotIns);
  (void)cross.set->add_named("mem::BANDWIDTH_RD");
  (void)cross.set->add_named("net::MSG_SENT");

  // Narrow 24-bit counters through the fault decorator (no faults
  // armed): every read goes through the wraparound-folding path.
  papi::FaultPlan narrow;
  narrow.counter_width_bits = 24;
  Scenario folded("folded_24bit", sim::make_empty_loop(10), &narrow);
  (void)folded.set->add_preset(papi::Preset::kTotIns);
  (void)folded.set->add_preset(papi::Preset::kTotCyc);

  Scenario mux("multiplexed", sim::make_saxpy(50'000));
  (void)mux.set->enable_multiplex(/*slice_cycles=*/20'000);
  for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                           "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_L1_DCA"}) {
    (void)mux.set->add_named(name);
  }

  Scenario* scenarios[] = {&direct, &cross, &folded, &mux};
  for (Scenario* s : scenarios) s->start();
  mux.rig.machine->run();  // let the slices rotate over a real workload

  // snapshot_all over 1000 sets: one running set plus 999
  // started-then-stopped sets (their finals live in the seqlock
  // publication).  The naive pass is what a monitor without the batch
  // API writes: a per-handle lookup and read() per set.
  bench::Rig snap_rig(sim::make_empty_loop(10), pmu::sim_x86(), kCostsOff);
  papi::Library& library = *snap_rig.library;
  std::vector<int> handles;
  for (int i = 0; i < kSets; ++i) {
    papi::EventSet& set = snap_rig.new_set();
    (void)set.add_preset(papi::Preset::kTotIns);
    (void)set.add_preset(papi::Preset::kTotCyc);
    handles.push_back(set.handle());
    if (i == 0) continue;  // the first set runs live below
    (void)set.start();
    (void)set.stop();
  }
  papi::EventSet& live = *library.event_set(handles[0]).value();
  (void)live.start();
  std::vector<long long> v(2);
  std::vector<papi::SnapshotEntry> entries;
  std::vector<long long> values;
  bench::Timed naive, batched;

  bench::run_interleaved(kRunSeconds, [&](bench::Round& r) {
    for (Scenario* s : scenarios) s->time(r);
    r.time(naive, 1, [&] {
      for (const int h : handles) (void)library.event_set(h).value()->read(v);
    });
    r.time(batched, 1, [&] { (void)library.snapshot_all(entries, values); });
  });
  for (Scenario* s : scenarios) {
    (void)s->set->stop();
    results.timed("core.eventset", s->name, "read", s->read);
    results.timed("core.eventset", s->name, "accum", s->accum);
  }
  (void)live.stop();
  results.row("core.library", "snapshot_all_1000", "naive_ns_per_set",
              naive.median() / kSets, "ns");
  results.row("core.library", "snapshot_all_1000", "batched_ns_per_set",
              batched.median() / kSets, "ns");
  results.row("core.library", "snapshot_all_1000", "naive_allocs_per_pass",
              naive.allocs_per_call(), "count");
  results.row("core.library", "snapshot_all_1000", "batched_allocs_per_pass",
              batched.allocs_per_call(), "count");

  // --- threaded rows ----------------------------------------------------------
  ThreadedLibrary threaded;
  std::vector<ThreadRows> by_count(std::size(kThreadCounts));
  for (int c = 0; c < kCycles; ++c) {
    for (std::size_t i = 0; i < by_count.size(); ++i) {
      threaded.round(kThreadCounts[i], by_count[i]);
    }
  }
  for (std::size_t i = 0; i < by_count.size(); ++i) {
    const std::string scenario = "threads_x" + std::to_string(kThreadCounts[i]);
    results.timed("core.eventset", scenario, "read", by_count[i].read);
    results.timed("core.eventset", scenario, "accum", by_count[i].accum);
    results.timed("core.eventset", scenario, "start_stop",
                  by_count[i].restart);
  }

  // --- gates ---------------------------------------------------------------
  results.gate("RH1 direct read_ns", direct.read.median(), 20.0);
  results.gate("RH1 direct read_allocs", direct.read.allocs_per_call(), 0);
  // A three-component read does strictly more work (three slice reads),
  // but the fan-out itself must add no hidden cost.
  results.gate("RH1 cross_component read_allocs",
               cross.read.allocs_per_call(), 0);
  results.gate("RH1 cross_component read_ns", cross.read.median(),
               2.0 * direct.read.median());
  results.gate("RH1 snapshot_all ns/set", batched.median() / kSets,
               naive.median() / kSets, batched.median() < naive.median());
  results.gate("RH1 snapshot_all allocs/pass", batched.allocs_per_call(), 0);
  results.gate("RH1 snapshot_all entries", entries.size(), kSets,
               entries.size() == kSets);
  // Contention (lock waits, cache-line ping-pong) inflates the per-call
  // time; being switched out drops the batch instead.
  results.gate("TS1 threads_x64 read_ns", by_count[1].read.median(),
               1.25 * by_count[0].read.median());
  return results.finish();
}
