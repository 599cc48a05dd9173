// Aggregation-service reduction semantics: a sequentially computed
// oracle over randomized rank populations must match the collector's
// hierarchical (rank -> node -> cluster) reduction exactly for
// min/max/sum/avg and within the histogram's documented 12.5 % relative
// error for percentiles; steady-state ingest and reduce must allocate
// nothing; ranks whose publication stamps stop advancing must age out;
// and the seqlock snapshot region must serve consistent (never torn)
// views to a reader thread racing the publisher — the CI TSan shard
// runs these suites (Aggregation*) to enforce the race-freedom half.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "aggregate/collector.h"
#include "aggregate/histogram.h"
#include "aggregate/shm_region.h"
#include "aggregate/wire.h"
#include "common/rng.h"
#include "core/eventset.h"
#include "test_util.h"

namespace {

using namespace papirepro::aggregate;
namespace papi = papirepro::papi;
using papirepro::Error;
using papirepro::Xoshiro256;
using papirepro::test::AllocationGuard;

/// Encodes one rank's frame carrying `values` as a single entry.
void encode_rank(std::uint32_t rank, std::uint64_t pub_cycles,
                 std::span<const long long> values,
                 std::vector<std::uint8_t>& out) {
  papi::SnapshotEntry e;
  e.handle = static_cast<int>(rank) + 1;
  e.status = Error::kOk;
  e.flags = papi::read_flag::kPublished;
  e.pub_cycles = pub_cycles;
  e.first_value = 0;
  e.num_values = static_cast<std::uint32_t>(values.size());
  ASSERT_TRUE(encode_frame(rank, pub_cycles, {&e, 1}, values, out));
}

TEST(AggregationCollector, ReductionMatchesSequentialOracle) {
  constexpr std::uint32_t kRanks = 257;  // deliberately not node-aligned
  constexpr std::uint32_t kMetrics = 3;
  CollectorConfig cfg;
  cfg.max_ranks = kRanks;
  cfg.ranks_per_node = 32;
  cfg.num_metrics = kMetrics;
  Collector collector(cfg);

  Xoshiro256 rng(7);
  std::vector<std::vector<long long>> per_metric(kMetrics);
  std::vector<std::uint8_t> buf;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    long long values[kMetrics];
    for (std::uint32_t m = 0; m < kMetrics; ++m) {
      values[m] = static_cast<long long>(rng.next() % 1'000'000);
      per_metric[m].push_back(values[m]);
    }
    encode_rank(r, 100 + r, values, buf);
  }
  ASSERT_EQ(collector.ingest(buf), kRanks);

  const ClusterReduction& red = collector.reduce(10'000);
  EXPECT_EQ(red.ranks_live, kRanks);
  EXPECT_EQ(red.ranks_stale, 0u);
  ASSERT_EQ(red.num_metrics, kMetrics);
  for (std::uint32_t m = 0; m < kMetrics; ++m) {
    std::vector<long long> sorted = per_metric[m];
    std::sort(sorted.begin(), sorted.end());
    long long sum = 0;
    for (const long long v : sorted) sum += v;
    const MetricStats& ms = red.metrics[m];
    EXPECT_EQ(ms.min, sorted.front()) << "metric " << m;
    EXPECT_EQ(ms.max, sorted.back()) << "metric " << m;
    EXPECT_EQ(ms.sum, sum) << "metric " << m;
    EXPECT_EQ(ms.count, kRanks) << "metric " << m;
    EXPECT_DOUBLE_EQ(ms.avg, static_cast<double>(sum) / kRanks);
    // Percentiles come from the log-linear histogram: the reported
    // representative must sit within its documented 12.5 % of the exact
    // order statistic.
    const struct {
      double q;
      std::uint64_t got;
    } quantiles[] = {{0.50, ms.p50}, {0.95, ms.p95}, {0.99, ms.p99}};
    for (const auto& [q, got] : quantiles) {
      auto idx = static_cast<std::size_t>(q * kRanks);
      if (idx >= sorted.size()) idx = sorted.size() - 1;
      const auto exact = static_cast<double>(sorted[idx]);
      EXPECT_NEAR(static_cast<double>(got), exact, exact * 0.125 + 1.0)
          << "metric " << m << " q " << q;
    }
  }

  // Node partials: ranks fold into ceil(257/32) = 9 nodes; node sums
  // must re-add to the cluster sum.
  const auto nodes = collector.nodes();
  ASSERT_EQ(nodes.size(), (kRanks + 31) / 32);
  std::uint32_t node_ranks = 0;
  long long node_sum0 = 0;
  for (const NodeStats& n : nodes) {
    node_ranks += n.ranks;
    node_sum0 += n.metrics[0].sum;
  }
  EXPECT_EQ(node_ranks, kRanks);
  EXPECT_EQ(node_sum0, red.metrics[0].sum);
}

TEST(AggregationCollector, SteadyStateIngestAndReduceAllocateNothing) {
  CollectorConfig cfg;
  cfg.max_ranks = 64;
  cfg.num_metrics = 2;
  Collector collector(cfg);

  std::vector<std::uint8_t> buf;
  for (std::uint32_t r = 0; r < 64; ++r) {
    const long long values[2] = {static_cast<long long>(r) * 10, 5};
    encode_rank(r, 100, values, buf);
  }
  // Warm-up pass, then the guarded steady-state passes.
  ASSERT_EQ(collector.ingest(buf), 64u);
  collector.reduce(200);

  AllocationGuard guard;
  for (int round = 0; round < 16; ++round) {
    ASSERT_EQ(collector.ingest(buf), 64u);
    collector.reduce(300 + round);
  }
  EXPECT_EQ(guard.delta(), 0u)
      << "steady-state ingest/reduce must not touch the heap";
}

TEST(AggregationCollector, StagnantRanksAgeOutAndRecover) {
  CollectorConfig cfg;
  cfg.max_ranks = 4;
  cfg.num_metrics = 1;
  cfg.stale_reduce_rounds = 2;
  Collector collector(cfg);

  const long long v0[1] = {100};
  const long long v1[1] = {200};
  std::vector<std::uint8_t> buf;
  encode_rank(0, 10, v0, buf);
  encode_rank(1, 10, v1, buf);
  ASSERT_EQ(collector.ingest(buf), 2u);
  EXPECT_EQ(collector.reduce(20).ranks_live, 2u);

  // Rank 0 keeps publishing (stamp advances); rank 1 goes quiet.  Its
  // stamp stagnates for two consecutive reduces and is aged out.
  for (std::uint64_t round = 1; round <= 2; ++round) {
    buf.clear();
    encode_rank(0, 10 + round, v0, buf);
    ASSERT_EQ(collector.ingest(buf), 1u);
    const ClusterReduction& red = collector.reduce(20 + round);
    if (round < 2) {
      EXPECT_EQ(red.ranks_live, 2u) << "round " << round;
    } else {
      EXPECT_EQ(red.ranks_live, 1u);
      EXPECT_EQ(red.ranks_stale, 1u);
      // The aged-out rank's values no longer shape the reduction.
      EXPECT_EQ(red.metrics[0].max, 100);
      EXPECT_EQ(red.metrics[0].count, 1u);
    }
  }

  // The rank resumes publishing: one advancing stamp revives it.
  buf.clear();
  encode_rank(1, 99, v1, buf);
  ASSERT_EQ(collector.ingest(buf), 1u);
  const ClusterReduction& revived = collector.reduce(100);
  EXPECT_EQ(revived.ranks_live, 2u);
  EXPECT_EQ(revived.metrics[0].max, 200);
}

TEST(AggregationCollector, DistantStampsAgeOutByMaxAge) {
  CollectorConfig cfg;
  cfg.max_ranks = 2;
  cfg.num_metrics = 1;
  cfg.max_age_cycles = 50;
  Collector collector(cfg);

  const long long v[1] = {7};
  std::vector<std::uint8_t> buf;
  encode_rank(0, 100, v, buf);
  ASSERT_EQ(collector.ingest(buf), 1u);
  EXPECT_EQ(collector.reduce(120).ranks_live, 1u);  // age 20 <= 50
  EXPECT_EQ(collector.reduce(200).ranks_live, 0u);  // age 100 > 50
  EXPECT_EQ(collector.cluster().ranks_stale, 1u);
}

TEST(AggregationCollector, TopRanksOrdersDescending) {
  CollectorConfig cfg;
  cfg.max_ranks = 16;
  cfg.num_metrics = 1;
  Collector collector(cfg);
  std::vector<std::uint8_t> buf;
  for (std::uint32_t r = 0; r < 16; ++r) {
    // Values 0, 70, 140, ... — rank 15 is the largest.
    const long long values[1] = {static_cast<long long>(r) * 70};
    encode_rank(r, 10, values, buf);
  }
  ASSERT_EQ(collector.ingest(buf), 16u);
  collector.reduce(20);

  RankValue top[4];
  ASSERT_EQ(collector.top_ranks(0, top), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(top[i].rank, 15u - i);
    EXPECT_EQ(top[i].value, (15 - i) * 70);
  }
  // Metric out of range yields nothing.
  EXPECT_EQ(collector.top_ranks(5, top), 0u);
}

TEST(AggregationCollector, MalformedTailNeverHalfUpdatesARank) {
  CollectorConfig cfg;
  cfg.max_ranks = 4;
  cfg.num_metrics = 2;
  Collector collector(cfg);

  const long long good[2] = {11, 22};
  std::vector<std::uint8_t> buf;
  encode_rank(2, 10, good, buf);
  ASSERT_EQ(collector.ingest(buf), 1u);

  // Same rank again, but the frame's value bytes are corrupted into an
  // overlong varint: the decode fails mid-frame and the slot must keep
  // the previous round's committed values untouched.
  std::vector<std::uint8_t> bad;
  const long long worse[2] = {33, 44};
  encode_rank(2, 20, worse, bad);
  for (std::size_t i = bad.size() - 3; i < bad.size(); ++i) {
    bad[i] = 0xFF;
  }
  EXPECT_EQ(collector.ingest(bad), 0u);
  EXPECT_EQ(collector.stats().decode_errors, 1u);

  const ClusterReduction& red = collector.reduce(30);
  EXPECT_EQ(red.ranks_live, 1u);
  EXPECT_EQ(red.metrics[0].min, 11);
  EXPECT_EQ(red.metrics[1].min, 22);
}

TEST(AggregationCollector, ValuesBeyondMetricCapCountedNotSilentlyLost) {
  CollectorConfig cfg;
  cfg.max_ranks = 2;
  cfg.num_metrics = 2;
  Collector collector(cfg);
  const long long values[5] = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> buf;
  encode_rank(0, 10, values, buf);
  ASSERT_EQ(collector.ingest(buf), 1u);
  EXPECT_EQ(collector.stats().values_dropped, 3u);
  const ClusterReduction& red = collector.reduce(20);
  EXPECT_EQ(red.metrics[0].min, 1);
  EXPECT_EQ(red.metrics[1].min, 2);
}

/// Encodes one rank-run frame: entry i carries the single set of rank
/// `base + i` with one value `base_value + 10 * i`.
void encode_rank_run(std::uint32_t base, std::uint32_t count,
                     long long base_value,
                     std::vector<std::uint8_t>& out) {
  std::vector<papi::SnapshotEntry> entries(count);
  std::vector<long long> values(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    entries[i].handle = static_cast<int>(base + i) + 1;
    entries[i].status = Error::kOk;
    entries[i].flags = papi::read_flag::kPublished;
    entries[i].pub_cycles = 500 + i;
    entries[i].first_value = i;
    entries[i].num_values = 1;
    values[i] = base_value + 10 * static_cast<long long>(i);
  }
  ASSERT_TRUE(encode_frame(base, 500, entries, values, out,
                           kFrameModeRankRun));
}

TEST(AggregationCollector, RankRunFrameMapsEntriesToConsecutiveRanks) {
  CollectorConfig cfg;
  cfg.max_ranks = 8;
  cfg.ranks_per_node = 4;
  cfg.num_metrics = 1;
  Collector collector(cfg);

  std::vector<std::uint8_t> buf;
  encode_rank_run(/*base=*/2, /*count=*/4, /*base_value=*/100, buf);
  ASSERT_EQ(collector.ingest(buf), 1u);
  EXPECT_EQ(collector.stats().entries, 4u);

  const ClusterReduction& red = collector.reduce(1'000);
  EXPECT_EQ(red.ranks_live, 4u);
  EXPECT_EQ(red.metrics[0].min, 100);
  EXPECT_EQ(red.metrics[0].max, 130);

  // Entry i landed on rank base + i: the top ranking reads back the
  // exact rank -> value mapping, descending.
  RankValue rows[4];
  ASSERT_EQ(collector.top_ranks(0, rows), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rows[i].rank, 5u - i) << "row " << i;
    EXPECT_EQ(rows[i].value, 130 - 10 * static_cast<long long>(i));
    EXPECT_EQ(rows[i].pub_cycles, 500u + (3 - i));
  }
}

TEST(AggregationCollector, RankRunPastMaxRanksDropsOnlyTheOverflow) {
  CollectorConfig cfg;
  cfg.max_ranks = 8;
  cfg.ranks_per_node = 4;
  cfg.num_metrics = 1;
  Collector collector(cfg);

  std::vector<std::uint8_t> buf;
  encode_rank_run(/*base=*/6, /*count=*/4, /*base_value=*/0, buf);
  ASSERT_EQ(collector.ingest(buf), 1u);
  EXPECT_EQ(collector.stats().ranks_dropped, 2u);  // ranks 8 and 9
  const ClusterReduction& red = collector.reduce(1'000);
  EXPECT_EQ(red.ranks_live, 2u);  // ranks 6 and 7 landed
}

TEST(AggregationCollector, RankRunMalformedTailKeepsCleanPrefix) {
  CollectorConfig cfg;
  cfg.max_ranks = 8;
  cfg.ranks_per_node = 4;
  cfg.num_metrics = 1;
  Collector collector(cfg);

  std::vector<std::uint8_t> buf;
  encode_rank_run(/*base=*/0, /*count=*/3, /*base_value=*/100, buf);
  // Corrupt the last entry's final value byte into a varint that runs
  // past the entry end.  Entries commit individually in a rank run:
  // the clean prefix must survive, the frame must still be rejected.
  buf.back() |= 0x80;
  EXPECT_EQ(collector.ingest(buf), 0u);
  EXPECT_EQ(collector.stats().decode_errors, 1u);
  EXPECT_EQ(collector.stats().frames, 0u);
  const ClusterReduction& red = collector.reduce(1'000);
  EXPECT_EQ(red.ranks_live, 2u);  // ranks 0 and 1 committed before the tail
  EXPECT_EQ(red.metrics[0].min, 100);
  EXPECT_EQ(red.metrics[0].max, 110);
}

/// Encodes frames A | B | C of two ranks each in `mode` (single-rank
/// mode: one rank per frame, two values) and returns B's byte range.
std::pair<std::size_t, std::size_t> encode_three_frames(
    std::uint8_t mode, std::vector<std::uint8_t>& out) {
  std::pair<std::size_t, std::size_t> b;
  for (std::uint32_t f = 0; f < 3; ++f) {
    papi::SnapshotEntry e[2];
    const long long base = 100 * (static_cast<long long>(f) + 1);
    const long long values[4] = {base, base + 1, base + 2, base + 3};
    const std::uint32_t entries = mode == kFrameModeRankRun ? 2 : 1;
    for (std::uint32_t i = 0; i < 2; ++i) {
      e[i].handle = static_cast<int>(i) + 1;
      e[i].flags = papi::read_flag::kPublished;
      e[i].pub_cycles = 50;
      e[i].first_value = 2 * i;
      e[i].num_values = 2;
    }
    const std::uint32_t rank = mode == kFrameModeRankRun ? 2 * f : f;
    if (f == 1) b.first = out.size();
    EXPECT_TRUE(encode_frame(rank, 50, {e, entries}, values, out, mode));
    if (f == 1) b.second = out.size();
  }
  return b;
}

/// Ingests `buf` whose middle frame was damaged at its declared end and
/// checks that frames A and C both land.
void expect_only_the_middle_frame_lost(std::uint8_t mode,
                                       const std::vector<std::uint8_t>& buf) {
  CollectorConfig cfg;
  cfg.max_ranks = 8;
  cfg.ranks_per_node = 2;
  cfg.num_metrics = 2;
  Collector collector(cfg);
  EXPECT_EQ(collector.ingest(buf), 2u) << "mode " << int{mode};
  EXPECT_EQ(collector.stats().frames, 2u);
  EXPECT_EQ(collector.stats().decode_errors, 1u);
  collector.reduce(100);
  // C's values are the largest: its ranks lead the ranking.
  RankValue top[1];
  ASSERT_EQ(collector.top_ranks(1, top), 1u);
  EXPECT_EQ(top[0].rank, mode == kFrameModeRankRun ? 5u : 2u);
  EXPECT_EQ(top[0].value, mode == kFrameModeRankRun ? 303 : 301);
}

void set_frame_len(std::vector<std::uint8_t>& buf, std::size_t at,
                   std::uint32_t len) {
  for (int i = 0; i < 4; ++i) {
    buf[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
}

TEST(AggregationCollector, TrailingFrameBytesSkipOnlyThatFrame) {
  // B carries one byte past its last entry inside its declared length.
  // end_frame() rejects it with the cursor already on B's end; the
  // reader must still skip to C instead of abandoning the buffer.
  for (const std::uint8_t mode : {kFrameModeSingleRank, kFrameModeRankRun}) {
    std::vector<std::uint8_t> buf;
    const auto [b, b_end] = encode_three_frames(mode, buf);
    buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(b_end), 0x00);
    set_frame_len(buf, b, static_cast<std::uint32_t>(b_end - b + 1));
    expect_only_the_middle_frame_lost(mode, buf);
  }
}

TEST(AggregationCollector, TruncatedLastValueSkipsOnlyThatFrame) {
  // B's last value keeps its continuation bit, so the varint runs into
  // the frame end and the cursor stops on it.
  for (const std::uint8_t mode : {kFrameModeSingleRank, kFrameModeRankRun}) {
    std::vector<std::uint8_t> buf;
    const auto [b, b_end] = encode_three_frames(mode, buf);
    (void)b;
    buf[b_end - 1] |= 0x80;
    expect_only_the_middle_frame_lost(mode, buf);
  }
}

/// One rank's input to the node oracle test.
struct OracleRank {
  bool sent = false;
  std::uint64_t pub_cycles = 0;
  std::vector<long long> values;
};

/// Checks every node partial and the cluster view of `red` against a
/// sequential fold over `ranks` at `now`.
void expect_reduction_matches(const Collector& collector,
                              const ClusterReduction& red,
                              const std::vector<OracleRank>& ranks,
                              std::uint64_t now) {
  const CollectorConfig& cfg = collector.config();
  const std::uint32_t m = cfg.num_metrics;
  const std::size_t max_nodes =
      (cfg.max_ranks + cfg.ranks_per_node - 1) / cfg.ranks_per_node;
  std::vector<NodeStats> want(max_nodes);
  ClusterReduction cluster;
  FixedHistogram hist[kMaxMetrics];
  std::size_t used = 0;
  for (std::uint32_t r = 0; r < cfg.max_ranks; ++r) {
    const OracleRank& in = ranks[r];
    if (!in.sent) continue;
    if (now > in.pub_cycles && now - in.pub_cycles > cfg.max_age_cycles) {
      ++cluster.ranks_stale;
      continue;
    }
    ++cluster.ranks_live;
    const std::size_t n = r / cfg.ranks_per_node;
    ++want[n].ranks;
    used = n + 1;
    for (std::uint32_t i = 0; i < m && i < in.values.size(); ++i) {
      const long long v = in.values[i];
      for (MetricStats* ms : {&want[n].metrics[i], &cluster.metrics[i]}) {
        if (ms->count == 0 || v < ms->min) ms->min = v;
        if (ms->count == 0 || v > ms->max) ms->max = v;
        ms->sum = static_cast<long long>(static_cast<std::uint64_t>(ms->sum) +
                                         static_cast<std::uint64_t>(v));
        ++ms->count;
      }
      hist[i].record(v > 0 ? static_cast<std::uint64_t>(v) : 0);
    }
  }
  ASSERT_EQ(collector.nodes().size(), used) << "now " << now;
  for (std::size_t n = 0; n < used; ++n) {
    const NodeStats& got = collector.nodes()[n];
    EXPECT_EQ(got.node, n);
    EXPECT_EQ(got.ranks, want[n].ranks) << "node " << n;
    for (std::uint32_t i = 0; i < m; ++i) {
      const MetricStats& w = want[n].metrics[i];
      const MetricStats& g = got.metrics[i];
      const double avg = w.count == 0 ? 0.0
                                      : static_cast<double>(w.sum) /
                                            static_cast<double>(w.count);
      EXPECT_EQ(g.min, w.min) << "node " << n << " metric " << i;
      EXPECT_EQ(g.max, w.max) << "node " << n << " metric " << i;
      EXPECT_EQ(g.sum, w.sum) << "node " << n << " metric " << i;
      EXPECT_EQ(g.count, w.count) << "node " << n << " metric " << i;
      EXPECT_EQ(g.avg, avg) << "node " << n << " metric " << i;
    }
  }
  EXPECT_EQ(red.now_cycles, now);
  EXPECT_EQ(red.ranks_live, cluster.ranks_live);
  EXPECT_EQ(red.ranks_stale, cluster.ranks_stale);
  ASSERT_EQ(red.num_metrics, m);
  for (std::uint32_t i = 0; i < m; ++i) {
    const MetricStats& w = cluster.metrics[i];
    const MetricStats& g = red.metrics[i];
    const double avg = w.count == 0 ? 0.0
                                    : static_cast<double>(w.sum) /
                                          static_cast<double>(w.count);
    EXPECT_EQ(g.min, w.min) << "metric " << i;
    EXPECT_EQ(g.max, w.max) << "metric " << i;
    EXPECT_EQ(g.sum, w.sum) << "metric " << i;
    EXPECT_EQ(g.count, w.count) << "metric " << i;
    EXPECT_EQ(g.avg, avg) << "metric " << i;
    EXPECT_EQ(g.p50, hist[i].quantile(0.50)) << "metric " << i;
    EXPECT_EQ(g.p95, hist[i].quantile(0.95)) << "metric " << i;
    EXPECT_EQ(g.p99, hist[i].quantile(0.99)) << "metric " << i;
  }
}

TEST(AggregationCollector, NodePartialsMatchSequentialOracle) {
  // 45 ranks at 8 per node: six nodes, the last holding 5 ranks.  Node 2
  // sends nothing and node 4's ranks all publish too early, so live
  // nodes sit on both sides of empty ones; ranks carry 0 to 6 values
  // (fewer and more than the 4 metrics) of either sign, and about one
  // in five lags the clock by more than max_age_cycles.
  CollectorConfig cfg;
  cfg.max_ranks = 45;
  cfg.ranks_per_node = 8;
  cfg.num_metrics = 4;
  cfg.max_age_cycles = 1'000;
  Collector collector(cfg);

  constexpr std::uint64_t kNow = 1'000'000;
  Xoshiro256 rng(24);
  std::vector<OracleRank> ranks(cfg.max_ranks);
  std::vector<std::uint8_t> buf;
  for (std::uint32_t node = 0; node < 6; ++node) {
    if (node == 2) continue;
    const std::uint32_t first = node * cfg.ranks_per_node;
    const std::uint32_t last =
        std::min(first + cfg.ranks_per_node, cfg.max_ranks);
    std::vector<papi::SnapshotEntry> entries;
    std::vector<long long> values;
    for (std::uint32_t r = first; r < last; ++r) {
      OracleRank& in = ranks[r];
      in.sent = true;
      // Each node's first rank stays live until kNow + 900, except on
      // node 5, whose live ranks all age out by kNow + 200.
      const bool lead = r == first;
      if (node == 4 || (!lead && rng.next_below(5) == 0)) {
        in.pub_cycles = kNow - 1'001 - rng.next_below(5'000);
      } else if (node == 5) {
        in.pub_cycles = kNow - 900 - rng.next_below(101);
      } else {
        in.pub_cycles = kNow - rng.next_below(lead ? 100 : 1'001);
      }
      const auto nv = static_cast<std::uint32_t>(rng.next_below(7));
      papi::SnapshotEntry e;
      e.handle = static_cast<int>(r);
      e.pub_cycles = in.pub_cycles;
      e.first_value = static_cast<std::uint32_t>(values.size());
      e.num_values = nv;
      for (std::uint32_t i = 0; i < nv; ++i) {
        const auto magnitude =
            static_cast<long long>(rng.next() >> (rng.next_below(60) + 4));
        const long long v = rng.next_below(3) == 0 ? -magnitude : magnitude;
        values.push_back(v);
        in.values.push_back(v);
      }
      entries.push_back(e);
    }
    ASSERT_TRUE(encode_frame(first, kNow - 500, entries, values, buf,
                             kFrameModeRankRun));
  }
  ASSERT_EQ(collector.ingest(buf), 5u);
  // Each later clock ages more ranks out, until none is live; node 5
  // ages out before the nodes ahead of it, so nodes() shrinks.
  std::vector<std::size_t> used;
  for (const std::uint64_t now : {kNow, kNow + 200, kNow + 600, kNow + 5'000,
                                  kNow + 10'000}) {
    SCOPED_TRACE(now);
    const ClusterReduction& red = collector.reduce(now);
    expect_reduction_matches(collector, red, ranks, now);
    used.push_back(collector.nodes().size());
  }
  EXPECT_EQ(used, (std::vector<std::size_t>{6, 4, 4, 0, 0}));
}

TEST(AggregationCollector, SumsWrapInsteadOfOverflowing) {
  // Values come off the wire, so a frame may carry any 64-bit value:
  // sums past the range of long long wrap modulo 2^64 (the UBSan tree
  // fails on a signed overflow), while min, max and count stay exact.
  CollectorConfig cfg;
  cfg.max_ranks = 4;
  cfg.ranks_per_node = 2;
  cfg.num_metrics = 1;
  Collector collector(cfg);
  constexpr long long kMax = std::numeric_limits<long long>::max();
  constexpr long long kMin = std::numeric_limits<long long>::min();
  const long long values[4] = {kMax, 2, kMin, -3};
  std::vector<std::uint8_t> buf;
  for (std::uint32_t r = 0; r < 4; ++r) {
    encode_rank(r, 10, {&values[r], 1}, buf);
  }
  ASSERT_EQ(collector.ingest(buf), 4u);
  const ClusterReduction& red = collector.reduce(20);
  ASSERT_EQ(collector.nodes().size(), 2u);
  const MetricStats& up = collector.nodes()[0].metrics[0];
  EXPECT_EQ(up.sum, kMin + 1);  // kMax + 2 wraps
  EXPECT_EQ(up.min, 2);
  EXPECT_EQ(up.max, kMax);
  const MetricStats& down = collector.nodes()[1].metrics[0];
  EXPECT_EQ(down.sum, kMax - 2);  // kMin - 3 wraps
  EXPECT_EQ(down.min, kMin);
  EXPECT_EQ(down.max, -3);
  EXPECT_EQ(red.metrics[0].sum, -2);  // the wraps cancel
  EXPECT_EQ(red.metrics[0].min, kMin);
  EXPECT_EQ(red.metrics[0].max, kMax);
  EXPECT_EQ(red.metrics[0].count, 4u);
}

TEST(AggregationCollector, FanInNearTwoToTheThirtyTwoMakesOneNode) {
  // The node count rounds max_ranks up to whole nodes; with a fan-in
  // near 2^32 that add must not wrap to zero nodes.
  CollectorConfig cfg;
  cfg.max_ranks = 10;
  cfg.ranks_per_node = 0xFFFFFFFFu;
  cfg.num_metrics = 1;
  Collector collector(cfg);
  std::vector<std::uint8_t> buf;
  for (std::uint32_t r = 0; r < 10; ++r) {
    const long long values[1] = {static_cast<long long>(r)};
    encode_rank(r, 10, values, buf);
  }
  ASSERT_EQ(collector.ingest(buf), 10u);
  const ClusterReduction& red = collector.reduce(20);
  EXPECT_EQ(red.ranks_live, 10u);
  ASSERT_EQ(collector.nodes().size(), 1u);
  EXPECT_EQ(collector.nodes()[0].ranks, 10u);
  EXPECT_EQ(collector.nodes()[0].metrics[0].sum, 45);
}

TEST(AggregationHistogram, ExactBelowEightBoundedAbove) {
  FixedHistogram h;
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(FixedHistogram::bucket_value(FixedHistogram::bucket_index(v)),
              v);
  }
  // Above the exact range the representative is a lower bound within
  // 12.5 % of the recorded value.
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = 8 + (rng.next() >> (rng.next() % 56));
    const std::uint64_t rep =
        FixedHistogram::bucket_value(FixedHistogram::bucket_index(v));
    EXPECT_LE(rep, v);
    EXPECT_GT(static_cast<double>(rep), static_cast<double>(v) * 0.875 - 1);
  }
  // Quantile walk: 100 observations of value i -> p50 lands mid-range.
  h.reset();
  for (std::uint64_t v = 0; v < 100; ++v) h.record(v);
  EXPECT_EQ(h.total(), 100u);
  const std::uint64_t p50 = h.quantile(0.50);
  EXPECT_GE(p50, 40u);
  EXPECT_LE(p50, 56u);
  EXPECT_EQ(h.quantile(0.0), 0u);
}

TEST(AggregationRegion, SeqlockReaderNeverSeesTornViews) {
  SharedSnapshotRegion region;
  ASSERT_TRUE(region.valid());

  // Publisher writes views whose every field encodes the same round
  // number; any torn read mixes rounds and trips the checks.
  constexpr int kRounds = 20'000;
  std::thread publisher([&region] {
    ClusterReduction r;
    r.num_metrics = 2;
    for (int round = 1; round <= kRounds; ++round) {
      r.reduce_count = static_cast<std::uint64_t>(round);
      r.now_cycles = static_cast<std::uint64_t>(round) * 3;
      r.ranks_live = static_cast<std::uint32_t>(round % 1024);
      r.ranks_stale = static_cast<std::uint32_t>(round % 7);
      for (std::uint32_t m = 0; m < 2; ++m) {
        r.metrics[m].min = round;
        r.metrics[m].max = round * 2;
        r.metrics[m].sum = round * 10;
        r.metrics[m].avg = static_cast<double>(round);
        r.metrics[m].count = static_cast<std::uint64_t>(round);
        r.metrics[m].p99 = static_cast<std::uint64_t>(round) + m;
      }
      region.publish(r);
    }
  });

  ClusterReduction snap;
  std::uint64_t last_round = 0;
  std::uint64_t successes = 0;
  while (last_round < kRounds) {
    if (!region.read_into(snap)) continue;
    if (snap.reduce_count == 0) continue;  // nothing published yet
    const auto round = snap.reduce_count;
    ASSERT_GE(round, last_round) << "publications must be monotonic";
    ASSERT_EQ(snap.now_cycles, round * 3);
    ASSERT_EQ(snap.num_metrics, 2u);
    for (std::uint32_t m = 0; m < 2; ++m) {
      ASSERT_EQ(snap.metrics[m].min, static_cast<long long>(round));
      ASSERT_EQ(snap.metrics[m].max, static_cast<long long>(round) * 2);
      ASSERT_EQ(snap.metrics[m].sum, static_cast<long long>(round) * 10);
      ASSERT_DOUBLE_EQ(snap.metrics[m].avg, static_cast<double>(round));
      ASSERT_EQ(snap.metrics[m].p99, round + m);
    }
    last_round = round;
    ++successes;
  }
  publisher.join();
  EXPECT_GT(successes, 0u);
  EXPECT_EQ(last_round, kRounds);
}

TEST(AggregationRegion, CollectorReductionSurvivesRegionRoundTrip) {
  CollectorConfig cfg;
  cfg.max_ranks = 8;
  cfg.num_metrics = 2;
  Collector collector(cfg);
  std::vector<std::uint8_t> buf;
  for (std::uint32_t r = 0; r < 8; ++r) {
    const long long values[2] = {static_cast<long long>(r) + 1, 50};
    encode_rank(r, 10, values, buf);
  }
  ASSERT_EQ(collector.ingest(buf), 8u);
  const ClusterReduction& red = collector.reduce(100);

  SharedSnapshotRegion region;
  region.publish(red);
  ClusterReduction snap;
  ASSERT_TRUE(region.read_into(snap));
  EXPECT_EQ(snap.reduce_count, red.reduce_count);
  EXPECT_EQ(snap.ranks_live, 8u);
  EXPECT_EQ(snap.metrics[0].min, 1);
  EXPECT_EQ(snap.metrics[0].max, 8);
  EXPECT_EQ(snap.metrics[0].sum, 36);
  EXPECT_DOUBLE_EQ(snap.metrics[0].avg, 4.5);
  EXPECT_EQ(snap.metrics[1].min, 50);
  EXPECT_EQ(snap.metrics[1].max, 50);
  // Every field of every metric survives the region.
  EXPECT_EQ(snap.now_cycles, red.now_cycles);
  EXPECT_EQ(snap.ranks_stale, red.ranks_stale);
  ASSERT_EQ(snap.num_metrics, red.num_metrics);
  for (std::uint32_t m = 0; m < red.num_metrics; ++m) {
    const MetricStats& got = snap.metrics[m];
    const MetricStats& want = red.metrics[m];
    EXPECT_EQ(got.min, want.min) << "metric " << m;
    EXPECT_EQ(got.max, want.max) << "metric " << m;
    EXPECT_EQ(got.sum, want.sum) << "metric " << m;
    EXPECT_EQ(got.avg, want.avg) << "metric " << m;
    EXPECT_EQ(got.count, want.count) << "metric " << m;
    EXPECT_EQ(got.p50, want.p50) << "metric " << m;
    EXPECT_EQ(got.p95, want.p95) << "metric " << m;
    EXPECT_EQ(got.p99, want.p99) << "metric " << m;
  }
}

}  // namespace
