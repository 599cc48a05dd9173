// papicollect end to end: a rank population counts on real threads
// while the collector aggregates their published snapshots — the final
// cluster reduction must cover every rank, the per-rank view must match
// the ranks' own final counts, and the telemetry must prove no counting
// thread was ever stopped to be sampled.  Suite name is Aggregation* so
// the CI TSan shard covers the collector-thread / rank-thread overlap.
#include <gtest/gtest.h>

#include <algorithm>

#include "tools/papicollect.h"

namespace {

using namespace papirepro;

TEST(AggregationPapicollect, RankPopulationReducesEndToEnd) {
  tools::PapicollectRequest request;
  request.ranks = 8;
  request.iters = 30;
  request.work = 1'000;
  request.ranks_per_node = 4;
  request.top_n = 3;
  auto result = tools::papicollect(request);
  ASSERT_TRUE(result.ok());
  const tools::PapicollectResult& r = result.value();

  // Every rank contributed to the final reduction, none aged out.
  EXPECT_EQ(r.cluster.ranks_live, 8u);
  EXPECT_EQ(r.cluster.ranks_stale, 0u);
  ASSERT_EQ(r.cluster.num_metrics, 2u);
  for (std::uint32_t m = 0; m < 2; ++m) {
    EXPECT_EQ(r.cluster.metrics[m].count, 8u);
    EXPECT_GT(r.cluster.metrics[m].min, 0);
    EXPECT_GE(r.cluster.metrics[m].max, r.cluster.metrics[m].min);
  }
  // The cycle ranking holds on every interleaving: its head is the
  // cluster maximum, values never increase down the list, and no rank
  // appears twice.  (Which rank leads is not fixed: ranks waiting on the
  // ring busy-wait, so their TOT_CYC grows with host scheduling.)
  ASSERT_EQ(r.top.size(), 3u);
  EXPECT_EQ(r.top[0].value, r.cluster.metrics[0].max);
  for (std::size_t i = 1; i < r.top.size(); ++i) {
    EXPECT_LE(r.top[i].value, r.top[i - 1].value);
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(r.top[i].rank, r.top[j].rank);
    }
  }

  // At least the final forced poll happened; frames arrived cleanly.
  EXPECT_GE(r.polls, 1u);
  EXPECT_GT(r.collector_stats.frames, 0u);
  EXPECT_EQ(r.collector_stats.decode_errors, 0u);
  EXPECT_EQ(r.collector_stats.ranks_dropped, 0u);

  // The out-of-process view (seqlock region) agrees with the direct
  // reduction.
  EXPECT_EQ(r.region.ranks_live, r.cluster.ranks_live);
  EXPECT_EQ(r.region.metrics[0].sum, r.cluster.metrics[0].sum);
  EXPECT_EQ(r.region.metrics[1].max, r.cluster.metrics[1].max);

  // One start and one stop per rank: the collector never stopped a
  // counting thread to sample it.
  EXPECT_EQ(r.total_starts, 8u);
  EXPECT_EQ(r.total_stops, 8u);

  // Report mentions the aggregate machinery (smoke, not format-lock).
  EXPECT_NE(r.report.find("cluster reduction"), std::string::npos);
  EXPECT_NE(r.report.find("PAPI_TOT_CYC"), std::string::npos);
}

TEST(AggregationPapicollect, RequestValidation) {
  tools::PapicollectRequest request;
  request.ranks = 0;
  EXPECT_FALSE(tools::papicollect(request).ok());
  request.ranks = 4;
  request.platform = "no-such-platform";
  EXPECT_FALSE(tools::papicollect(request).ok());
  request.platform = "sim-x86";
  request.iters = 0;
  EXPECT_FALSE(tools::papicollect(request).ok());
}

}  // namespace
