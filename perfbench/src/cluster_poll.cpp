// cluster_poll: the papicollect collector shape.  One library hosts one
// EventSet per rank (1024 ranks, 32 per node, at full scale), every set
// spanning the cpu and mem components {PAPI_TOT_CYC, PAPI_TOT_INS,
// mem::BANDWIDTH_RD, mem::L2_MISSES}.  Two owner threads each keep one
// set running, advance their own machine by seeded amounts and read() in
// timed batches, so their publications are rewritten while the poller
// snapshots them; every other set was stopped at a seeded, staggered
// count during set-up.  The main thread polls in a closed loop and never
// holds a running set.  One poll is
//   Library::snapshot_all -> aggregate::encode_frame (one rank-run frame
//   per node) -> Collector::ingest -> Collector::reduce ->
//   SharedSnapshotRegion::publish.
//
// Output checks: every poll accepts one frame per node with no decode
// error; every 8th poll the cluster min/max/sum/avg equal a sequential
// oracle over the snapshot the collector saw, p50/p95/p99 sit within the
// histogram's 12.5 % error, and the region round-trips the reduction;
// the poller makes no stop() call; owners' TOT_CYC/TOT_INS equal their
// machine's deltas exactly.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "aggregate/collector.h"
#include "aggregate/shm_region.h"
#include "aggregate/wire.h"
#include "core/library.h"
#include "harness.h"
#include "sim/kernels.h"
#include "substrate/component_substrates.h"
#include "substrate/sim_substrate.h"

namespace perfbench {

namespace aggregate = papirepro::aggregate;
namespace papi = papirepro::papi;
namespace pmu = papirepro::pmu;
namespace sim = papirepro::sim;

namespace {

constexpr std::int64_t kEndless = std::int64_t{1} << 50;
constexpr std::uint32_t kMetrics = 4;
constexpr std::uint32_t kRanksPerNode = 32;
constexpr int kOwners = 2;
constexpr int kOwnerBatch = 64;
/// Polls before allocations count as steady state.
constexpr std::uint64_t kWarmupPolls = 16;

sim::Workload make_chase() {
  // 16 Ki nodes at a 136-byte stride overflow the simulated L2, so the
  // mem component's counters of the stopped sets spread.
  return sim::make_pointer_chase(1 << 14, kEndless, /*seed=*/7);
}

sim::Workload make_owner_loop() {
  // Owners advance a cache-resident loop: their host memory traffic would
  // otherwise contend with the poller's and make the poll time depend on
  // the owners' pace.
  return sim::make_empty_loop(kEndless);
}

/// One owner thread: keeps one set running on its own machine.
struct Owner {
  sim::Machine* machine = nullptr;  // owned by the rig
  papi::EventSet* set = nullptr;
  ProbeCounts probe;
  Samples read_ns, sub_read_ns;
  std::uint64_t attempted = 0, failed = 0, failed_checks = 0;
  std::uint64_t reads = 0, switched = 0;
  std::thread thread;
};

struct Rig {
  /// Machines outlive the library: its contexts listen on them.
  std::unique_ptr<sim::Machine> primary;
  std::unique_ptr<sim::Machine> owner_machines[kOwners];
  papi::SimSubstrate* cpu = nullptr;
  papi::MemBandwidthSubstrate* mem = nullptr;
  ProbeCounts poller_probe;
  std::unique_ptr<papi::Library> library;
  Owner owners[kOwners];
  std::atomic<int> started{0};
  std::atomic<bool> go{false};
  std::atomic<bool> quit{false};

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    quit.store(true);
    go.store(true);
    for (Owner& o : owners) {
      if (o.thread.joinable()) o.thread.join();
    }
    set_thread_probe_counts(nullptr);
  }
};

bool add_events(papi::EventSet& set) {
  return set.add_preset(papi::Preset::kTotCyc).ok() &&
         set.add_preset(papi::Preset::kTotIns).ok() &&
         set.add_named("mem::BANDWIDTH_RD").ok() &&
         set.add_named("mem::L2_MISSES").ok();
}

/// Standalone contexts reading the same natives as the owner's set: the
/// substrate floor under its read().
struct SubstrateReader {
  std::unique_ptr<papi::CounterContext> cpu, mem;

  static bool open(papi::Substrate& s, const char* a, const char* b,
                   std::unique_ptr<papi::CounterContext>& out) {
    std::vector<pmu::NativeEventCode> natives;
    for (const char* name : {a, b}) {
      auto code = s.native_by_name(name);
      if (!code.ok()) return false;
      natives.push_back(code.value());
    }
    auto assign = s.allocate(natives, {});
    auto ctx = s.create_context();
    if (!assign.ok() || !ctx.ok()) return false;
    out = std::move(ctx).value();
    return out->program(natives, assign.value()).ok() && out->start().ok();
  }
  bool init(papi::SimSubstrate& c, papi::MemBandwidthSubstrate& m) {
    return open(c, "CPU_CLK_UNHALTED", "INST_RETIRED", cpu) &&
           open(m, "BANDWIDTH_RD", "L2_MISSES", mem);
  }
  double time_batch(int n) {
    std::uint64_t a[2] = {0, 0}, b[2] = {0, 0};
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) {
      (void)cpu->read(a);
      (void)mem->read(b);
    }
    return static_cast<double>(now_ns() - t0) / n;
  }
};

void owner_main(Rig& rig, Owner& o, const PhaseConfig& cfg, int index) {
  rig.cpu->bind_thread_machine(*o.machine);
  rig.mem->bind_thread_machine(*o.machine);
  set_thread_probe_counts(&o.probe);
  const bool started = o.set->start().ok();
  o.attempted += 1;
  if (!started) ++o.failed;
  const std::uint64_t base_cyc = o.machine->cycles();
  const std::uint64_t base_ins = o.machine->retired();
  SubstrateReader floor;
  const bool ladder = cfg.trace && floor.init(*rig.cpu, *rig.mem);
  rig.started.fetch_add(1);
  while (!rig.go.load()) std::this_thread::yield();

  Inputs in(cfg.seed, 0xc0117 + static_cast<std::uint64_t>(index));
  const int n = cfg.smoke ? 4 : kOwnerBatch;
  long long v[kMetrics] = {0, 0, 0, 0};
  for (std::uint64_t iter = 0; started && !rig.quit.load(); ++iter) {
    o.machine->run(in.between(500, 3000));
    std::uint64_t bad = 0;
    const std::uint64_t sw = thread_switches();
    const double cal = calib_batch_ns();
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) bad += !o.set->read(v).ok();
    const std::int64_t t1 = now_ns();
    const bool clean = thread_switches() == sw;
    if (clean) {
      o.read_ns.add(at_ref_speed(static_cast<double>(t1 - t0) / n, cal));
    } else {
      ++o.switched;
    }
    o.attempted += static_cast<std::uint64_t>(n);
    o.reads += static_cast<std::uint64_t>(n);
    o.failed += bad;
    const bool exact =
        v[0] == static_cast<long long>(o.machine->cycles() - base_cyc) &&
        v[1] == static_cast<long long>(o.machine->retired() - base_ins);
    if (!exact) {
      ++o.failed;
      ++o.failed_checks;
    }
    if (ladder && clean && iter % 8 == 0) {
      o.sub_read_ns.add(at_ref_speed(floor.time_batch(n), cal));
    }
  }
  floor = SubstrateReader{};
  if (started) (void)o.set->stop();
  rig.cpu->unbind_thread_machine();
  rig.mem->unbind_thread_machine();
  set_thread_probe_counts(nullptr);
}

/// Library, components, every set, the staggered stops and the owners'
/// starts.  False on any failure.
bool build_rig(Rig& rig, const sim::Workload& w, const sim::Workload& ow,
               std::uint32_t ranks, const PhaseConfig& cfg) {
  const pmu::PlatformDescription& x86 = pmu::sim_x86();
  rig.primary = std::make_unique<sim::Machine>(w.program, x86.machine);
  w.setup(*rig.primary);
  for (int k = 0; k < kOwners; ++k) {
    rig.owner_machines[k] =
        std::make_unique<sim::Machine>(ow.program, x86.machine);
    rig.owners[k].machine = rig.owner_machines[k].get();
  }
  auto cpu = std::make_unique<papi::SimSubstrate>(
      *rig.primary, x86, papi::SimSubstrateOptions{.charge_costs = false});
  auto mem = std::make_unique<papi::MemBandwidthSubstrate>(*rig.primary);
  rig.cpu = cpu.get();
  rig.mem = mem.get();
  std::unique_ptr<papi::Substrate> cpu_sub = std::move(cpu);
  std::unique_ptr<papi::Substrate> mem_sub = std::move(mem);
  if (cfg.trace) {
    cpu_sub = make_probe_substrate(std::move(cpu_sub), /*timed=*/false);
    mem_sub = make_probe_substrate(std::move(mem_sub), /*timed=*/false);
  }
  set_thread_probe_counts(&rig.poller_probe);
  rig.library = std::make_unique<papi::Library>(std::move(cpu_sub));
  if (!rig.library->register_component("mem", "uncore", std::move(mem_sub))
           .ok()) {
    return false;
  }
  Inputs in(cfg.seed, 0x57a66e7);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    auto handle = rig.library->create_event_set();
    if (!handle.ok()) return false;
    papi::EventSet& set = *rig.library->event_set(handle.value()).value();
    if (!add_events(set)) return false;
    if (r < kOwners) {
      rig.owners[r].set = &set;
      continue;
    }
    if (!set.start().ok()) return false;
    rig.primary->run(in.between(10, 1000));
    if (!set.stop().ok()) return false;
  }
  for (int k = 0; k < kOwners; ++k) {
    rig.owners[k].thread = std::thread(owner_main, std::ref(rig),
                                       std::ref(rig.owners[k]), std::cref(cfg),
                                       k);
  }
  while (rig.started.load() < kOwners) std::this_thread::yield();
  return true;
}

bool within_histogram_error(std::uint64_t got, std::uint64_t exact) {
  const double e = static_cast<double>(exact);
  const double g = static_cast<double>(got);
  return g <= e && g >= e * 0.875 - 1.0;
}

/// The collector's reduction against a sequential oracle over the
/// snapshot it ingested.
bool matches_oracle(const std::vector<papi::SnapshotEntry>& entries,
                    const std::vector<long long>& values,
                    const aggregate::ClusterReduction& red,
                    std::vector<long long>& sorted) {
  for (std::uint32_t m = 0; m < kMetrics; ++m) {
    sorted.clear();
    for (const papi::SnapshotEntry& e : entries) {
      if (e.num_values <= m) return false;
      sorted.push_back(values[e.first_value + m]);
    }
    std::sort(sorted.begin(), sorted.end());
    long long sum = 0;
    for (const long long v : sorted) sum += v;
    const aggregate::MetricStats& ms = red.metrics[m];
    const double avg =
        static_cast<double>(sum) / static_cast<double>(sorted.size());
    if (ms.count != sorted.size() || ms.min != sorted.front() ||
        ms.max != sorted.back() || ms.sum != sum || ms.avg != avg) {
      return false;
    }
    auto at = [&](double q) {
      auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
      if (idx >= sorted.size()) idx = sorted.size() - 1;
      return static_cast<std::uint64_t>(sorted[idx]);
    };
    if (!within_histogram_error(ms.p50, at(0.50)) ||
        !within_histogram_error(ms.p95, at(0.95)) ||
        !within_histogram_error(ms.p99, at(0.99))) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_cluster_poll(const PhaseConfig& cfg, Report& rep) {
  const std::uint32_t ranks = cfg.smoke ? 64 : cfg.primary ? 1024 : 128;
  const int setup_reps = cfg.smoke ? 2 : 5;
  const sim::Workload w = make_chase();
  const sim::Workload ow = make_owner_loop();

  // --- set-up, repeated; the last rig is kept ---------------------------------
  Samples setup;
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < setup_reps; ++r) {
    rig.reset();
    rig = std::make_unique<Rig>();
    const double cal = calib_batch_ns();
    const std::int64_t t0 = now_ns();
    const bool ok = build_rig(*rig, w, ow, ranks, cfg);
    setup.add(at_ref_speed(1e-9 * static_cast<double>(now_ns() - t0), cal));
    rep.attempted += 1;
    rep.check(ok, "cluster_poll: library, components, sets and owners start");
    if (!ok) return;
  }
  rep.setup_s = setup.median();
  papi::Library& library = *rig->library;

  aggregate::CollectorConfig cc;
  cc.max_ranks = ranks;
  cc.ranks_per_node = kRanksPerNode;
  cc.num_metrics = kMetrics;
  aggregate::Collector collector(cc, &library.telemetry());
  aggregate::SharedSnapshotRegion region;
  const std::size_t frames_per_poll =
      (ranks + kRanksPerNode - 1) / kRanksPerNode;
  std::vector<papi::SnapshotEntry> entries;
  std::vector<long long> values;
  std::vector<std::uint8_t> wire;
  std::vector<long long> sorted;
  sorted.reserve(ranks);

  // --- timed loop ------------------------------------------------------------
  // Every poll follows one calibration batch that scales its times.
  Samples poll_us, raw_poll_us, stage[5], unattributed, calib;
  std::uint64_t polls = 0, allocs = 0, bytes = 0, switched = 0;
  const std::uint64_t stops_before =
      library.telemetry_snapshot().value(papi::TelemetryCounter::kStops);
  const std::uint64_t poller_calls_before = rig->poller_probe.calls();
  const double clock_before = clock_cost_ns();
  rig->go.store(true);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(cfg.budget_s * 1e9);
  while (now_ns() < deadline) {
    const std::uint64_t decode_errors = collector.stats().decode_errors;
    const std::uint64_t sw = thread_switches();
    const double cal = calib_batch_ns();
    const std::uint64_t a0 = thread_allocs();
    std::int64_t t[6];
    t[0] = now_ns();
    const bool snap_ok = library.snapshot_all(entries, values).ok();
    if (cfg.trace) t[1] = now_ns();
    wire.clear();
    for (std::size_t base = 0; base < entries.size(); base += kRanksPerNode) {
      const std::size_t n =
          std::min<std::size_t>(kRanksPerNode, entries.size() - base);
      (void)aggregate::encode_frame(static_cast<std::uint32_t>(base),
                                    entries[base].pub_cycles,
                                    {&entries[base], n}, values, wire,
                                    aggregate::kFrameModeRankRun);
    }
    if (cfg.trace) t[2] = now_ns();
    const std::size_t accepted = collector.ingest(wire);
    if (cfg.trace) t[3] = now_ns();
    const aggregate::ClusterReduction& red =
        collector.reduce(library.real_cycles());
    if (cfg.trace) t[4] = now_ns();
    region.publish(red);
    t[5] = now_ns();
    if (polls >= kWarmupPolls) allocs += thread_allocs() - a0;
    const bool clean = thread_switches() == sw;
    const double total_us =
        at_ref_speed(1e-3 * static_cast<double>(t[5] - t[0]), cal);
    if (clean) {
      calib.add(cal);
      poll_us.add(total_us);
      raw_poll_us.add(1e-3 * static_cast<double>(t[5] - t[0]));
    } else {
      ++switched;
    }
    if (cfg.trace && clean) {
      double staged = 0;
      for (int s = 0; s < 5; ++s) {
        const double us =
            at_ref_speed(1e-3 * static_cast<double>(t[s + 1] - t[s]), cal);
        stage[s].add(us);
        staged += us;
      }
      // Clock reads between stages are the only work outside them.
      unattributed.add(total_us - staged);
    }
    ++polls;
    bytes = wire.size();
    rep.attempted += 1;
    const bool frames_ok = snap_ok && accepted == frames_per_poll &&
                           collector.stats().decode_errors == decode_errors &&
                           entries.size() == ranks;
    if (!frames_ok) ++rep.failed;
    rep.check(frames_ok || !snap_ok,
              "cluster_poll: one frame per node, no decode error");
    if (polls % (cfg.smoke ? 1 : 8) == 0) {
      rep.check(matches_oracle(entries, values, red, sorted),
                "cluster_poll: reduction equals the sequential oracle");
      aggregate::RegionSnapshot snap;
      rep.check(region.read_into(snap) &&
                    snap.reduce_count == red.reduce_count &&
                    snap.ranks_live == red.ranks_live &&
                    snap.metrics[0].sum == red.metrics[0].sum &&
                    snap.metrics[1].max == red.metrics[1].max,
                "cluster_poll: region round-trips the reduction");
    }
  }
  const std::uint64_t stops_delta =
      library.telemetry_snapshot().value(papi::TelemetryCounter::kStops) -
      stops_before;
  const std::uint64_t poller_calls =
      rig->poller_probe.calls() - poller_calls_before;
  rep.check(stops_delta == 0, "cluster_poll: the poller makes no stop() call");
  rig->quit.store(true);
  Samples read_ns, sub_read_ns;
  std::uint64_t owner_reads = 0, owner_probe_reads = 0;
  for (Owner& o : rig->owners) {
    o.thread.join();
    rep.attempted += o.attempted;
    rep.failed += o.failed;
    rep.failed_checks += o.failed_checks;
    if (o.failed_checks > 0) {
      std::fprintf(stderr, "CHECK FAILED: cluster_poll: owner TOT_CYC/TOT_INS "
                           "equal the machine deltas\n");
    }
    read_ns.absorb(o.read_ns);
    sub_read_ns.absorb(o.sub_read_ns);
    owner_reads += o.reads;
    switched += o.switched;
    owner_probe_reads += o.probe.read;
  }
  const double clock_ns = 0.5 * (clock_before + clock_cost_ns());

  rep.metric("poll_us", poll_us.median(), "us");
  rep.metric("poll_us_p90", poll_us.windowed_p90(), "us");
  rep.metric("read_ns", read_ns.median(), "ns");
  rep.metric("read_ns_p90", read_ns.windowed_p90(), "ns");
  std::printf("# cluster_poll: %u ranks, poll %.2f us (p90 %.2f, n=%zu), "
              "owner read %.2f ns (p90 %.2f, n=%zu batches), setup %.4f s "
              "(n=%d)\n",
              ranks, poll_us.median(), poll_us.windowed_p90(), poll_us.size(),
              read_ns.median(), read_ns.windowed_p90(), read_ns.size(), rep.setup_s,
              setup_reps);
  std::printf("# cluster_poll: unscaled host poll %.2f us; %llu polls and "
              "owner batches dropped for a context switch\n",
              raw_poll_us.median(), static_cast<unsigned long long>(switched));
  std::printf("# cluster_poll: calib_ns %.0f (n=%zu), clock %.1f ns/call, "
              "steady-state allocs %llu over %llu polls, %.2f wire bytes/rank\n",
              calib.median(), calib.size(), clock_ns,
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(polls),
              static_cast<double>(bytes) / ranks);
  if (!cfg.trace) return;

  static const char* const kStages[5] = {
      "cluster_poll.core.library.snapshot_us",
      "cluster_poll.aggregate.wire.encode_us",
      "cluster_poll.aggregate.collector.ingest_us",
      "cluster_poll.aggregate.collector.reduce_us",
      "cluster_poll.aggregate.region.publish_us"};
  for (int s = 0; s < 5; ++s) {
    rep.layer_metric(kStages[s], stage[s].median(), "us");
  }
  rep.layer_metric("cluster_poll.poll.unattributed_us", unattributed.median(),
                   "us");
  rep.layer_metric("cluster_poll.aggregate.wire.bytes_per_rank",
                   static_cast<double>(bytes) / ranks, "count");
  rep.layer_metric("cluster_poll.substrate.read_ns", sub_read_ns.median(),
                   "ns");
  rep.layer_metric("cluster_poll.core.eventset.read_self_ns",
                   read_ns.median() - sub_read_ns.median(), "ns");
  rep.layer_metric("cluster_poll.substrate.calls_per_read",
                   owner_reads == 0 ? 0.0
                                    : static_cast<double>(owner_probe_reads) /
                                          static_cast<double>(owner_reads),
                   "count");
  rep.layer_metric("cluster_poll.poller.substrate_calls",
                   static_cast<double>(poller_calls), "count");
  rep.layer_metric("cluster_poll.core.allocs_per_op",
                   polls <= kWarmupPolls
                       ? 0.0
                       : static_cast<double>(allocs) / (polls - kWarmupPolls),
                   "count");
  rep.layer_metric("cluster_poll.env.calib_ns", calib.median(), "ns");
  rep.layer_metric("cluster_poll.env.clock_ns", clock_ns, "ns");
  std::printf("# cluster_poll ladder (us/poll): snapshot %.2f + encode %.2f + "
              "ingest %.2f + reduce %.2f + publish %.3f + unattributed %.3f "
              "= poll %.2f (medians; sum of medians %.2f)\n",
              stage[0].median(), stage[1].median(), stage[2].median(),
              stage[3].median(), stage[4].median(), unattributed.median(),
              poll_us.median(),
              stage[0].median() + stage[1].median() + stage[2].median() +
                  stage[3].median() + stage[4].median() +
                  unattributed.median());
  std::printf("# cluster_poll ladder (ns/owner read): substrate cpu+mem %.2f "
              "+ core.eventset self %.2f = read %.2f; poller substrate calls "
              "%llu\n",
              sub_read_ns.median(), read_ns.median() - sub_read_ns.median(),
              read_ns.median(), static_cast<unsigned long long>(poller_calls));
}

}  // namespace perfbench
