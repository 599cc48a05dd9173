#include "tools/papicollect.h"

#include <atomic>
#include <cstdio>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "core/library.h"
#include "sim/comm.h"
#include "sim/machine.h"
#include "substrate/sim_substrate.h"

namespace papirepro::tools {

namespace {

constexpr std::uint32_t kMetricsPerRank = 2;  // TOT_CYC, TOT_INS

std::string format_report(const PapicollectRequest& request,
                          const PapicollectResult& result) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line,
                "papicollect: %u ranks x %lld iters on %s, fan-in %u "
                "(%zu nodes)\n",
                request.ranks, static_cast<long long>(request.iters),
                request.platform.c_str(), request.ranks_per_node,
                static_cast<std::size_t>((request.ranks +
                                          request.ranks_per_node - 1) /
                                         request.ranks_per_node));
  out += line;
  std::snprintf(line, sizeof line,
                "collector: %u polls, %llu frames (%llu bytes), "
                "%llu decode errors, %llu reductions\n",
                result.polls,
                static_cast<unsigned long long>(
                    result.collector_stats.frames),
                static_cast<unsigned long long>(
                    result.collector_stats.bytes),
                static_cast<unsigned long long>(
                    result.collector_stats.decode_errors),
                static_cast<unsigned long long>(
                    result.collector_stats.reductions));
  out += line;
  static const char* const kMetricNames[kMetricsPerRank] = {
      "PAPI_TOT_CYC", "PAPI_TOT_INS"};
  out += "cluster reduction (live ranks: " +
         std::to_string(result.cluster.ranks_live) + ", aged out: " +
         std::to_string(result.cluster.ranks_stale) + ")\n";
  std::snprintf(line, sizeof line, "%14s %12s %12s %14s %12s %12s\n",
                "metric", "min", "max", "avg", "p50", "p99");
  out += line;
  for (std::uint32_t m = 0;
       m < result.cluster.num_metrics && m < kMetricsPerRank; ++m) {
    const aggregate::MetricStats& ms = result.cluster.metrics[m];
    std::snprintf(line, sizeof line,
                  "%14s %12lld %12lld %14.1f %12llu %12llu\n",
                  kMetricNames[m], ms.min, ms.max, ms.avg,
                  static_cast<unsigned long long>(ms.p50),
                  static_cast<unsigned long long>(ms.p99));
    out += line;
  }
  out += "top ranks by " + std::string(kMetricNames[0]) + ":\n";
  for (const aggregate::RankValue& rv : result.top) {
    std::snprintf(line, sizeof line, "%10s %4u %12lld\n", "rank",
                  rv.rank, rv.value);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "counting threads: %llu starts, %llu stops (one per "
                "rank; the collector sampled %u times without stopping "
                "any)\n",
                static_cast<unsigned long long>(result.total_starts),
                static_cast<unsigned long long>(result.total_stops),
                result.polls);
  out += line;
  return out;
}

}  // namespace

Result<PapicollectResult> papicollect(const PapicollectRequest& request) {
  if (request.ranks == 0 || request.ranks > 4096 ||
      request.ranks_per_node == 0 || request.iters <= 0 ||
      request.work <= 0) {
    return Error::kInvalid;
  }
  const pmu::PlatformDescription* platform =
      pmu::find_platform(request.platform);
  if (platform == nullptr) return Error::kNoSupport;

  const std::size_t nranks = request.ranks;
  std::vector<sim::Workload> workloads;
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<sim::Machine*> raw;
  workloads.reserve(nranks);
  machines.reserve(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    const std::int64_t work = (request.imbalance && r == nranks / 2)
                                  ? request.work * 4
                                  : request.work;
    workloads.push_back(sim::make_ring_rank(r, nranks, request.iters,
                                            work, /*chunk_words=*/16));
    machines.push_back(std::make_unique<sim::Machine>(
        workloads.back().program, platform->machine));
    raw.push_back(machines.back().get());
  }

  papi::SimSubstrateOptions options;
  options.charge_costs = false;
  auto owned = std::make_unique<papi::SimSubstrate>(*machines[0],
                                                    *platform, options);
  papi::SimSubstrate* substrate = owned.get();
  papi::Library library(std::move(owned));

  // handle_of_rank is written once by each rank's thread (before its
  // set starts) and read by the collector thread; atomics make the
  // handshake race-free.  -1 = not yet created.
  std::vector<std::atomic<int>> handle_of_rank(nranks);
  for (auto& h : handle_of_rank) h.store(-1, std::memory_order_relaxed);
  std::vector<papi::EventSet*> sets(nranks, nullptr);
  std::vector<std::vector<long long>> finals(nranks);

  aggregate::CollectorConfig cc;
  cc.max_ranks = request.ranks;
  cc.ranks_per_node = request.ranks_per_node;
  cc.num_metrics = kMetricsPerRank;
  cc.stale_reduce_rounds = request.stale_reduce_rounds;
  aggregate::Collector collector(cc, &library.telemetry());
  aggregate::SharedSnapshotRegion region;

  // The collector thread: poll published snapshots, translate handle ->
  // rank, encode, ingest, reduce, publish.  It never touches an
  // EventSet or a Machine — only the library's snapshot surface.
  std::atomic<bool> collecting{true};
  std::uint32_t polls = 0;
  std::vector<papi::SnapshotEntry> snap_entries;
  std::vector<long long> snap_values;
  std::vector<std::uint8_t> wire;
  // The collector's clock is the newest publication stamp it has
  // ingested, not the machine's live cycle counter: reading the latter
  // from this thread would race the rank threads stepping it (a real
  // collector has no shared cycle clock with its remote ranks either).
  std::uint64_t collector_now = 0;
  // The collector registers before any rank thread starts: registering
  // creates its counter context, which on sim attaches a PMU listener to
  // the fallback machine (rank 0's), and a machine's listener walk is
  // lock-free only while no registration runs beside it.
  std::latch collector_registered(1);
  std::thread collector_thread([&] {
    (void)library.register_thread();
    collector_registered.count_down();
    while (collecting.load(std::memory_order_acquire)) {
      if (library.snapshot_all(snap_entries, snap_values).ok() &&
          !snap_entries.empty()) {
        wire.clear();
        for (const papi::SnapshotEntry& e : snap_entries) {
          // Linear handle -> rank translation: rank populations map
          // 1:1 to sets here; real deployments would key a table.
          std::uint32_t rank = UINT32_MAX;
          for (std::size_t r = 0; r < nranks; ++r) {
            if (handle_of_rank[r].load(std::memory_order_acquire) ==
                e.handle) {
              rank = static_cast<std::uint32_t>(r);
              break;
            }
          }
          if (rank == UINT32_MAX) continue;
          if (e.pub_cycles > collector_now) collector_now = e.pub_cycles;
          (void)aggregate::encode_frame(rank, e.pub_cycles, {&e, 1},
                                        snap_values, wire);
        }
        collector.ingest(wire);
        collector.reduce(collector_now);
        region.publish(collector.cluster());
        ++polls;
      }
      std::this_thread::yield();
    }
  });

  collector_registered.wait();
  sim::CommWorld world(raw);
  const bool all_halted = world.run_threaded(
      /*max_instructions_per_rank=*/100'000'000,
      /*thread_begin=*/
      [&](std::size_t r) {
        substrate->bind_thread_machine(*machines[r]);
        auto handle = library.create_event_set();
        if (!handle.ok()) return;
        sets[r] = library.event_set(handle.value()).value();
        (void)sets[r]->add_preset(papi::Preset::kTotCyc);
        (void)sets[r]->add_preset(papi::Preset::kTotIns);
        if (sets[r]->start().ok()) {
          // Publish the handle only once the set is counting: the
          // collector thread keys frames off this table.
          handle_of_rank[r].store(handle.value(),
                                  std::memory_order_release);
        }
      },
      /*thread_end=*/
      [&](std::size_t r) {
        if (sets[r] == nullptr) return;
        finals[r].assign(kMetricsPerRank, 0);
        (void)sets[r]->stop(finals[r]);
        (void)library.unregister_thread();
      });
  collecting.store(false, std::memory_order_release);
  collector_thread.join();
  if (!all_halted) return Error::kMisc;

  // Final pass so the result reflects every rank's last publication
  // (the collector thread may have stopped mid-interval).
  if (library.snapshot_all(snap_entries, snap_values).ok()) {
    wire.clear();
    for (const papi::SnapshotEntry& e : snap_entries) {
      for (std::size_t r = 0; r < nranks; ++r) {
        if (handle_of_rank[r].load(std::memory_order_acquire) ==
            e.handle) {
          (void)aggregate::encode_frame(static_cast<std::uint32_t>(r),
                                        e.pub_cycles, {&e, 1},
                                        snap_values, wire);
          break;
        }
      }
    }
    collector.ingest(wire);
    collector.reduce(library.real_cycles());
    region.publish(collector.cluster());
    ++polls;
  }

  PapicollectResult result;
  result.cluster = collector.cluster();
  result.collector_stats = collector.stats();
  result.polls = polls;
  result.top.resize(request.top_n);
  result.top.resize(collector.top_ranks(0, result.top));
  (void)region.read_into(result.region);
  const papi::TelemetrySnapshot t = library.telemetry_snapshot();
  result.total_starts = t.value(papi::TelemetryCounter::kStarts);
  result.total_stops = t.value(papi::TelemetryCounter::kStops);
  result.report = format_report(request, result);
  return result;
}

}  // namespace papirepro::tools
