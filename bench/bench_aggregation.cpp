// AG1: cluster-scale aggregation cost and correctness at 1024 simulated
// ranks.  One library hosts 1024 EventSets (1 live + 1023 stopped at
// staggered times, so the value population has a real spread); each
// poll snapshots all of them (seqlock publications — the counting side
// is never stopped), batches each node's 32 ranks into one rank-run
// wire frame (the node-agent shape of the reduction tree), ingests the
// frames into the collector, reduces rank -> node -> cluster, and
// publishes the reduction through the shared snapshot region.
//
// Gates (nonzero exit on violation):
//   1. the cluster min/max/sum/avg match a sequentially computed oracle
//      exactly, and p50/p95/p99 sit within the histogram's documented
//      12.5 % relative error;
//   2. a steady-state poll (snapshot + encode + ingest + reduce +
//      publish) performs zero heap allocations;
//   3. decoding ingest stays within 2x the snapshot_all per-set cost —
//      the aggregation tax cannot dwarf the read it aggregates;
//   4. the counting side is never stopped: the telemetry stop counter
//      is flat across the whole measurement;
//   5. the seqlock region round-trips the final reduction intact.
//
// Clock: per-thread CPU time, min over reps (bench_read_hotpath's
// method).  Emits BENCH_aggregation.json for PR-over-PR tracking.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <vector>

#include "aggregate/collector.h"
#include "aggregate/shm_region.h"
#include "aggregate/wire.h"
#include "bench_util.h"

// --- global operator-new counting (zero-alloc gate) -----------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace papirepro;
namespace aggregate = papirepro::aggregate;

namespace {

constexpr int kRanks = 1024;
constexpr std::uint32_t kMetrics = 2;  // TOT_CYC, TOT_INS
constexpr std::uint32_t kFanIn = 32;   // ranks per node = ranks per frame
constexpr int kReps = 5;
constexpr int kPollsPerRep = 50;

std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Oracle {
  long long min[kMetrics];
  long long max[kMetrics];
  long long sum[kMetrics];
  double avg[kMetrics];
  std::uint64_t p50[kMetrics];
  std::uint64_t p95[kMetrics];
  std::uint64_t p99[kMetrics];
};

/// Sequential reference reduction over the per-rank metric values.
Oracle compute_oracle(
    const std::vector<std::vector<long long>>& per_metric) {
  Oracle o{};
  for (std::uint32_t m = 0; m < kMetrics; ++m) {
    std::vector<long long> sorted = per_metric[m];
    std::sort(sorted.begin(), sorted.end());
    o.min[m] = sorted.front();
    o.max[m] = sorted.back();
    long long sum = 0;
    for (const long long v : sorted) sum += v;
    o.sum[m] = sum;
    o.avg[m] = static_cast<double>(sum) /
               static_cast<double>(sorted.size());
    auto at = [&](double q) {
      auto idx = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size()));
      if (idx >= sorted.size()) idx = sorted.size() - 1;
      return static_cast<std::uint64_t>(sorted[idx]);
    };
    o.p50[m] = at(0.50);
    o.p95[m] = at(0.95);
    o.p99[m] = at(0.99);
  }
  return o;
}

bool within_histogram_error(std::uint64_t got, std::uint64_t exact) {
  const double e = static_cast<double>(exact);
  const double g = static_cast<double>(got);
  return g <= e && g >= e * 0.875 - 1.0;
}

}  // namespace

int main() {
  bench::header("AG1", "cluster aggregation over 1024 simulated ranks");

  // --- population: 1024 sets stopped at staggered machine times -----------
  bench::Rig rig(sim::make_empty_loop(1'000'000), pmu::sim_x86(),
                 {.charge_costs = false});
  papi::Library& library = *rig.library;
  std::vector<int> handles;
  handles.reserve(kRanks);
  for (int i = 0; i < kRanks; ++i) {
    auto handle = library.create_event_set();
    if (!handle.ok()) return 1;
    papi::EventSet& set = *library.event_set(handle.value()).value();
    (void)set.add_preset(papi::Preset::kTotCyc);
    (void)set.add_preset(papi::Preset::kTotIns);
    handles.push_back(handle.value());
    if (i == 0) continue;  // rank 0 keeps counting through the bench
    if (!set.start().ok()) return 1;
    // Staggered stop times spread the value population across three
    // decades, so the percentile gates measure something real.
    rig.machine->run(10 + (i % 97) * 11);
    if (!set.stop().ok()) return 1;
  }
  papi::EventSet& live = *library.event_set(handles[0]).value();
  if (!live.start().ok()) return 1;
  rig.machine->run(5'000);

  aggregate::CollectorConfig cc;
  cc.max_ranks = kRanks;
  cc.ranks_per_node = 32;
  cc.num_metrics = kMetrics;
  aggregate::Collector collector(cc, &library.telemetry());
  aggregate::SharedSnapshotRegion region;

  std::vector<papi::SnapshotEntry> entries;
  std::vector<long long> values;
  std::vector<std::uint8_t> wire;

  // Batches each node's 32 ranks into one rank-run frame (the
  // node-agent shape of the reduction tree).
  auto encode = [&] {
    wire.clear();
    for (std::size_t base = 0; base < entries.size(); base += kFanIn) {
      const std::size_t n = std::min<std::size_t>(
          kFanIn, entries.size() - base);
      (void)aggregate::encode_frame(
          static_cast<std::uint32_t>(base), entries[base].pub_cycles,
          {&entries[base], n}, values, wire,
          aggregate::kFrameModeRankRun);
    }
  };
  // One full poll: snapshot every set, encode, ingest, reduce, publish.
  // Returns frames accepted.
  auto poll = [&]() -> std::size_t {
    if (!library.snapshot_all(entries, values).ok()) return 0;
    encode();
    const std::size_t accepted = collector.ingest(wire);
    collector.reduce(library.real_cycles());
    region.publish(collector.cluster());
    return accepted;
  };
  constexpr std::size_t kFramesPerPoll = (kRanks + kFanIn - 1) / kFanIn;

  // Warm-up: vector capacities, slot arrays, first-touch.
  if (poll() != kFramesPerPoll) {
    std::printf("GATE FAIL: warm-up poll did not accept %zu frames\n",
                kFramesPerPoll);
    return 1;
  }

  // --- oracle over the snapshot the collector actually saw ---------------
  std::vector<std::vector<long long>> per_metric(kMetrics);
  for (const papi::SnapshotEntry& e : entries) {
    for (std::uint32_t m = 0; m < kMetrics && m < e.num_values; ++m) {
      per_metric[m].push_back(values[e.first_value + m]);
    }
  }
  const Oracle oracle = compute_oracle(per_metric);

  // --- measured steady state ----------------------------------------------
  const std::uint64_t stops_before =
      library.telemetry_snapshot().value(papi::TelemetryCounter::kStops);
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  double best_poll_ns = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t t0 = thread_cpu_ns();
    for (int p = 0; p < kPollsPerRep; ++p) (void)poll();
    const std::uint64_t t1 = thread_cpu_ns();
    const double ns = static_cast<double>(t1 - t0) / kPollsPerRep;
    if (ns < best_poll_ns) best_poll_ns = ns;
  }
  const std::uint64_t poll_allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t stops_delta =
      library.telemetry_snapshot().value(papi::TelemetryCounter::kStops) -
      stops_before;

  // Component costs, same clock discipline.
  auto time_loop = [&](int iters, auto&& op) {
    double best = 1e18;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t t0 = thread_cpu_ns();
      for (int i = 0; i < iters; ++i) op();
      const std::uint64_t t1 = thread_cpu_ns();
      const double ns = static_cast<double>(t1 - t0) / iters;
      if (ns < best) best = ns;
    }
    return best;
  };
  const double snapshot_pass_ns =
      time_loop(50, [&] { (void)library.snapshot_all(entries, values); });
  const double snapshot_per_set_ns = snapshot_pass_ns / kRanks;
  const double encode_per_set_ns = time_loop(50, encode) / kRanks;
  // Pre-encoded buffer: the decode side alone.
  const double ingest_pass_ns =
      time_loop(50, [&] { (void)collector.ingest(wire); });
  const double ingest_per_set_ns = ingest_pass_ns / kRanks;
  const double reduce_ns =
      time_loop(50, [&] { collector.reduce(library.real_cycles()); });

  const aggregate::ClusterReduction& red = collector.reduce(
      library.real_cycles());
  region.publish(red);

  std::printf("population: %d ranks (1 live, %d stopped), %u metrics, "
              "fan-in 32\n\n", kRanks, kRanks - 1, kMetrics);
  std::printf("full poll (snapshot+encode+ingest+reduce+publish): "
              "%.0f ns (%.1f ns/rank)\n", best_poll_ns,
              best_poll_ns / kRanks);
  std::printf("snapshot_all: %.1f ns/set   encode: %.1f ns/set   "
              "ingest: %.1f ns/set (%.2fx snapshot)\n",
              snapshot_per_set_ns, encode_per_set_ns, ingest_per_set_ns,
              ingest_per_set_ns / snapshot_per_set_ns);
  std::printf("reduce over %d ranks: %.0f ns   allocs per measured poll: "
              "%.3f\n", kRanks, reduce_ns,
              static_cast<double>(poll_allocs) / (kReps * kPollsPerRep));
  std::printf("wire bytes per poll: %zu (%.1f per rank)\n", wire.size(),
              static_cast<double>(wire.size()) / kRanks);

  bool ok = true;

  // Gate 1: oracle match.
  for (std::uint32_t m = 0; m < kMetrics; ++m) {
    const aggregate::MetricStats& ms = red.metrics[m];
    if (ms.count != kRanks || ms.min != oracle.min[m] ||
        ms.max != oracle.max[m] || ms.sum != oracle.sum[m] ||
        ms.avg != oracle.avg[m]) {
      std::printf("GATE FAIL: metric %u min/max/sum/avg "
                  "(%lld/%lld/%lld/%.2f over %llu) vs oracle "
                  "(%lld/%lld/%lld/%.2f)\n",
                  m, ms.min, ms.max, ms.sum, ms.avg,
                  static_cast<unsigned long long>(ms.count),
                  oracle.min[m], oracle.max[m], oracle.sum[m],
                  oracle.avg[m]);
      ok = false;
    }
    const struct {
      const char* name;
      std::uint64_t got;
      std::uint64_t exact;
    } qs[] = {{"p50", ms.p50, oracle.p50[m]},
              {"p95", ms.p95, oracle.p95[m]},
              {"p99", ms.p99, oracle.p99[m]}};
    for (const auto& q : qs) {
      if (!within_histogram_error(q.got, q.exact)) {
        std::printf("GATE FAIL: metric %u %s %llu outside 12.5%% of "
                    "oracle %llu\n", m, q.name,
                    static_cast<unsigned long long>(q.got),
                    static_cast<unsigned long long>(q.exact));
        ok = false;
      }
    }
  }

  // Gate 2: zero allocations in steady state.
  if (poll_allocs != 0) {
    std::printf("GATE FAIL: %llu heap allocations across %d measured "
                "polls (must be 0)\n",
                static_cast<unsigned long long>(poll_allocs),
                kReps * kPollsPerRep);
    ok = false;
  }

  // Gate 3: ingest within 2x the snapshot per-set cost.
  if (ingest_per_set_ns > 2.0 * snapshot_per_set_ns) {
    std::printf("GATE FAIL: ingest %.1f ns/set exceeds 2x "
                "snapshot_all %.1f ns/set\n", ingest_per_set_ns,
                snapshot_per_set_ns);
    ok = false;
  }

  // Gate 4: the counting side was never stopped by the collector.
  if (stops_delta != 0) {
    std::printf("GATE FAIL: %llu stop() calls during aggregation "
                "(counting threads must never be stopped)\n",
                static_cast<unsigned long long>(stops_delta));
    ok = false;
  }

  // Gate 5: the region round-trips the final reduction.
  aggregate::RegionSnapshot snap;
  if (!region.read_into(snap) ||
      snap.reduce_count != red.reduce_count ||
      snap.ranks_live != red.ranks_live ||
      snap.metrics[0].sum != red.metrics[0].sum ||
      snap.metrics[1].max != red.metrics[1].max) {
    std::printf("GATE FAIL: seqlock region does not round-trip the "
                "final reduction\n");
    ok = false;
  }

  std::FILE* f = std::fopen("BENCH_aggregation.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"aggregation\",\n  \"ranks\": %d,\n"
        "  \"metrics\": %u,\n  \"clock\": \"thread_cpu_min_of_%d\",\n"
        "  \"poll_ns\": %.0f,\n  \"poll_ns_per_rank\": %.1f,\n"
        "  \"snapshot_per_set_ns\": %.1f,\n"
        "  \"encode_per_set_ns\": %.1f,\n"
        "  \"ingest_per_set_ns\": %.1f,\n"
        "  \"ingest_vs_snapshot_ratio\": %.2f,\n"
        "  \"reduce_ns\": %.0f,\n  \"wire_bytes_per_rank\": %.1f,\n"
        "  \"allocs_per_poll\": %.3f,\n  \"stops_during_bench\": %llu,\n"
        "  \"gates_ok\": %s\n}\n",
        kRanks, kMetrics, kReps, best_poll_ns, best_poll_ns / kRanks,
        snapshot_per_set_ns, encode_per_set_ns, ingest_per_set_ns,
        ingest_per_set_ns / snapshot_per_set_ns, reduce_ns,
        static_cast<double>(wire.size()) / kRanks,
        static_cast<double>(poll_allocs) / (kReps * kPollsPerRep),
        static_cast<unsigned long long>(stops_delta),
        ok ? "true" : "false");
    std::fclose(f);
  }

  if (ok) {
    std::printf("\ngates: oracle exact, 0 allocs, ingest %.2fx snapshot "
                "(<= 2x), 0 stops, region intact — OK\n",
                ingest_per_set_ns / snapshot_per_set_ns);
  }
  return ok ? 0 : 1;
}
