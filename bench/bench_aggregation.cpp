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
//   5. the seqlock region round-trips the final reduction intact;
//   6. the collector accepts every node frame of every poll.
//
// Clock: each poll is one interleaving round (bench_util.h): one
// calibration batch, then the poll with its snapshot, encode, ingest and
// reduce stages timed in place, all scaled to the reference speed, so
// the stages a gate compares meet the same host conditions.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "aggregate/collector.h"
#include "aggregate/shm_region.h"
#include "aggregate/wire.h"
#include "bench_util.h"

using namespace papirepro;
namespace aggregate = papirepro::aggregate;

namespace {

constexpr int kRanks = 1024;
constexpr std::uint32_t kMetrics = 2;  // TOT_CYC, TOT_INS
constexpr std::uint32_t kFanIn = 32;   // ranks per node = ranks per frame
constexpr double kRunSeconds = 2.0;

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
  constexpr std::size_t kFramesPerPoll = (kRanks + kFanIn - 1) / kFanIn;

  // --- measured polls: snapshot, encode, ingest, reduce, publish -----------
  const std::uint64_t stops_before =
      library.telemetry_snapshot().value(papi::TelemetryCounter::kStops);
  bench::Timed poll, snapshot, encoding, ingest, reduce;
  std::size_t frames_rejected = 0;
  bench::run_interleaved(kRunSeconds, [&](bench::Round& r) {
    r.time(poll, 1, [&] {
      r.time(snapshot, 1,
             [&] { (void)library.snapshot_all(entries, values); });
      r.time(encoding, 1, encode);
      std::size_t accepted = 0;
      r.time(ingest, 1, [&] { accepted = collector.ingest(wire); });
      r.time(reduce, 1, [&] { collector.reduce(library.real_cycles()); });
      region.publish(collector.cluster());
      frames_rejected += kFramesPerPoll - accepted;
    });
  });
  const std::uint64_t stops_delta =
      library.telemetry_snapshot().value(papi::TelemetryCounter::kStops) -
      stops_before;

  // --- oracle over the snapshot the collector last saw ---------------------
  std::vector<std::vector<long long>> per_metric(kMetrics);
  for (const papi::SnapshotEntry& e : entries) {
    for (std::uint32_t m = 0; m < kMetrics && m < e.num_values; ++m) {
      per_metric[m].push_back(values[e.first_value + m]);
    }
  }
  const Oracle oracle = compute_oracle(per_metric);
  const aggregate::ClusterReduction& red = collector.reduce(
      library.real_cycles());
  region.publish(red);

  std::printf("population: %d ranks (1 live, %d stopped), %u metrics, "
              "fan-in %u\n", kRanks, kRanks - 1, kMetrics, kFanIn);
  bench::Results results("aggregation");
  const double snapshot_per_rank = snapshot.median() / kRanks;
  const double ingest_per_rank = ingest.median() / kRanks;
  results.row("aggregate", "poll_1024", "poll_ns", poll.median(), "ns");
  results.row("aggregate", "poll_1024", "poll_ns_per_rank",
              poll.median() / kRanks, "ns");
  results.row("core.library", "poll_1024", "snapshot_ns_per_rank",
              snapshot_per_rank, "ns");
  results.row("aggregate.wire", "poll_1024", "encode_ns_per_rank",
              encoding.median() / kRanks, "ns");
  results.row("aggregate.collector", "poll_1024", "ingest_ns_per_rank",
              ingest_per_rank, "ns");
  results.row("aggregate.collector", "poll_1024", "ingest_vs_snapshot",
              ingest_per_rank / snapshot_per_rank, "ratio");
  results.row("aggregate.collector", "poll_1024", "reduce_ns",
              reduce.median(), "ns");
  results.row("aggregate.wire", "poll_1024", "wire_bytes_per_poll",
              wire.size(), "bytes");
  results.row("aggregate.wire", "poll_1024", "wire_bytes_per_rank",
              static_cast<double>(wire.size()) / kRanks, "bytes");
  results.row("aggregate", "poll_1024", "allocs_per_poll",
              poll.allocs_per_call(), "count");

  // Gate 1: oracle match.
  int mismatches = 0;
  for (std::uint32_t m = 0; m < kMetrics; ++m) {
    const aggregate::MetricStats& ms = red.metrics[m];
    if (ms.count != kRanks || ms.min != oracle.min[m] ||
        ms.max != oracle.max[m] || ms.sum != oracle.sum[m] ||
        ms.avg != oracle.avg[m]) {
      std::printf("metric %u min/max/sum/avg (%lld/%lld/%lld/%.2f over "
                  "%llu) vs oracle (%lld/%lld/%lld/%.2f)\n",
                  m, ms.min, ms.max, ms.sum, ms.avg,
                  static_cast<unsigned long long>(ms.count),
                  oracle.min[m], oracle.max[m], oracle.sum[m],
                  oracle.avg[m]);
      ++mismatches;
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
        std::printf("metric %u %s %llu outside 12.5%% of oracle %llu\n", m,
                    q.name, static_cast<unsigned long long>(q.got),
                    static_cast<unsigned long long>(q.exact));
        ++mismatches;
      }
    }
  }
  results.gate("AG1 oracle mismatches", mismatches, 0);
  // Gate 2: zero allocations in steady state.
  results.gate("AG1 poll allocs", poll.allocs_per_call(), 0);
  // Gate 3: ingest within 2x the snapshot per-set cost.
  results.gate("AG1 ingest ns/rank", ingest_per_rank, 2.0 * snapshot_per_rank);
  // Gate 4: the counting side was never stopped by the collector.
  results.gate("AG1 stop() calls", stops_delta, 0);
  // Gate 5: the region round-trips the final reduction.
  aggregate::ClusterReduction snap;
  const bool intact = region.read_into(snap) &&
                      snap.reduce_count == red.reduce_count &&
                      snap.ranks_live == red.ranks_live &&
                      snap.metrics[0].sum == red.metrics[0].sum &&
                      snap.metrics[1].max == red.metrics[1].max;
  results.gate("AG1 region round-trip failures", intact ? 0 : 1, 0);
  // Gate 6: every frame accepted.
  results.gate("AG1 frames rejected", frames_rejected, 0);
  return results.finish();
}
