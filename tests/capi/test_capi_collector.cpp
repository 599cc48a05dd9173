// C-binding surface of the aggregation service: collector lifecycle,
// the snapshot_all -> wire_encode -> ingest -> reduce -> read loop end
// to end over a real simulated library, telemetry attribution of
// collector activity, and the argument/error matrix.  Suite names are
// Aggregation* so the CI ThreadSanitizer shard runs them alongside the
// core aggregate tests.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "capi/papi.h"

namespace {

class AggregationCapi : public ::testing::Test {
 protected:
  void SetUp() override {
    PAPI_shutdown();
    sim_ = PAPIrepro_sim_create("sim-x86", "saxpy", 10'000);
    ASSERT_NE(sim_, nullptr);
    ASSERT_EQ(PAPIrepro_bind_sim(sim_), PAPI_OK);
    ASSERT_EQ(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
  }
  void TearDown() override {
    PAPI_shutdown();
    PAPIrepro_sim_destroy(sim_);
  }

  /// One started-then-stopped two-event set; returns its handle.
  int make_stopped_set() {
    int es = PAPI_NULL;
    EXPECT_EQ(PAPI_create_eventset(&es), PAPI_OK);
    EXPECT_EQ(PAPI_add_event(es, PAPI_TOT_INS), PAPI_OK);
    EXPECT_EQ(PAPI_add_event(es, PAPI_TOT_CYC), PAPI_OK);
    long long v[2] = {};
    EXPECT_EQ(PAPI_start(es), PAPI_OK);
    EXPECT_EQ(PAPI_stop(es, v), PAPI_OK);
    return es;
  }

  PAPIrepro_sim_t* sim_ = nullptr;
};

TEST_F(AggregationCapi, SnapshotEncodeIngestReduceReadLoop) {
  const int es = make_stopped_set();
  (void)es;

  PAPIrepro_snapshot_t entries[8];
  long long values[16];
  const int n = PAPIrepro_snapshot_all(entries, 8, values, 16);
  ASSERT_GT(n, 0);

  unsigned char frame[1024];
  const int bytes = PAPIrepro_wire_encode(
      /*rank=*/7, /*frame_cycles=*/1000, entries, n, values, 16, frame,
      sizeof frame);
  ASSERT_GT(bytes, 0);

  PAPIrepro_collector_config_t cfg = {};
  cfg.max_ranks = 16;
  cfg.ranks_per_node = 4;
  cfg.num_metrics = 2;
  const int c = PAPIrepro_collector_create(&cfg);
  ASSERT_GE(c, 0);

  EXPECT_EQ(PAPIrepro_collector_ingest(c, frame, bytes), 1);

  PAPIrepro_cluster_view_t reduced = {};
  ASSERT_EQ(PAPIrepro_collector_reduce(c, 2000, &reduced), PAPI_OK);
  EXPECT_EQ(reduced.ranks_live, 1);
  EXPECT_EQ(reduced.ranks_stale, 0);
  EXPECT_EQ(reduced.num_metrics, 2);
  // One rank: min == max == sum == the rank's value for each metric,
  // and the values must be the snapshot's (entry 0 is the stopped
  // two-event set, its values at first_value).
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(reduced.metrics[m].count, 1) << "metric " << m;
    EXPECT_EQ(reduced.metrics[m].min, reduced.metrics[m].max);
    EXPECT_EQ(reduced.metrics[m].sum, reduced.metrics[m].min);
  }
  EXPECT_EQ(reduced.metrics[0].min, values[entries[0].first_value]);

  // The seqlock region serves the same view to a polling reader.
  PAPIrepro_cluster_view_t polled = {};
  ASSERT_EQ(PAPIrepro_collector_read(c, &polled), PAPI_OK);
  EXPECT_EQ(polled.now_cycles, reduced.now_cycles);
  EXPECT_EQ(polled.reduce_count, reduced.reduce_count);
  EXPECT_EQ(polled.ranks_live, reduced.ranks_live);
  EXPECT_EQ(polled.ranks_stale, reduced.ranks_stale);
  ASSERT_EQ(polled.num_metrics, reduced.num_metrics);
  for (int m = 0; m < reduced.num_metrics; ++m) {
    const PAPIrepro_metric_stats_t& got = polled.metrics[m];
    const PAPIrepro_metric_stats_t& want = reduced.metrics[m];
    EXPECT_EQ(got.min, want.min) << "metric " << m;
    EXPECT_EQ(got.max, want.max) << "metric " << m;
    EXPECT_EQ(got.sum, want.sum) << "metric " << m;
    EXPECT_EQ(got.avg, want.avg) << "metric " << m;
    EXPECT_EQ(got.count, want.count) << "metric " << m;
    EXPECT_EQ(got.p50, want.p50) << "metric " << m;
    EXPECT_EQ(got.p95, want.p95) << "metric " << m;
    EXPECT_EQ(got.p99, want.p99) << "metric " << m;
  }

  // Collector activity lands in the library's self-telemetry.
  PAPIrepro_telemetry_t t = {};
  ASSERT_EQ(PAPIrepro_get_telemetry(&t), PAPI_OK);
  EXPECT_GE(t.collector_frames, 1);
  EXPECT_GE(t.collector_reductions, 1);
  EXPECT_EQ(t.collector_decode_errors, 0);

  EXPECT_EQ(PAPIrepro_collector_destroy(c), PAPI_OK);
}

TEST_F(AggregationCapi, DecodeErrorsCountedAndSurvivable) {
  PAPIrepro_collector_config_t cfg = {};
  cfg.num_metrics = 2;
  const int c = PAPIrepro_collector_create(&cfg);
  ASSERT_GE(c, 0);

  const int es = make_stopped_set();
  (void)es;
  PAPIrepro_snapshot_t entries[4];
  long long values[8];
  const int n = PAPIrepro_snapshot_all(entries, 4, values, 8);
  ASSERT_GT(n, 0);
  unsigned char good[512];
  const int bytes = PAPIrepro_wire_encode(0, 10, entries, n, values, 8,
                                          good, sizeof good);
  ASSERT_GT(bytes, 0);

  // Corrupt-magic frame first, good frame second: the decoder skips the
  // bad frame by its declared length and still accepts the good one.
  unsigned char buf[1024];
  std::memcpy(buf, good, static_cast<std::size_t>(bytes));
  buf[4] ^= 0xFF;  // magic byte
  std::memcpy(buf + bytes, good, static_cast<std::size_t>(bytes));
  EXPECT_EQ(PAPIrepro_collector_ingest(c, buf, 2 * bytes), 1);

  PAPIrepro_telemetry_t t = {};
  ASSERT_EQ(PAPIrepro_get_telemetry(&t), PAPI_OK);
  EXPECT_GE(t.collector_decode_errors, 1);

  EXPECT_EQ(PAPIrepro_collector_destroy(c), PAPI_OK);
}

TEST_F(AggregationCapi, ArgumentAndHandleMatrix) {
  static PAPIrepro_cluster_view_t view;
  static unsigned char buf[64];
  static PAPIrepro_snapshot_t entry;
  static long long value;

  // Unknown handles.
  EXPECT_EQ(PAPIrepro_collector_destroy(123456), PAPI_ENOEVST);
  EXPECT_EQ(PAPIrepro_collector_ingest(123456, buf, 0), PAPI_ENOEVST);
  EXPECT_EQ(PAPIrepro_collector_reduce(123456, 0, &view), PAPI_ENOEVST);
  EXPECT_EQ(PAPIrepro_collector_read(123456, &view), PAPI_ENOEVST);

  const int c = PAPIrepro_collector_create(nullptr);  // defaults
  ASSERT_GE(c, 0);
  struct BadCall {
    const char* name;
    std::function<int()> call;
  };
  const std::vector<BadCall> cases = {
      {"ingest null buf nonzero len",
       [&] { return PAPIrepro_collector_ingest(c, nullptr, 8); }},
      {"ingest negative len",
       [&] { return PAPIrepro_collector_ingest(c, buf, -1); }},
      {"read null out",
       [&] { return PAPIrepro_collector_read(c, nullptr); }},
      {"encode null entries",
       [] {
         return PAPIrepro_wire_encode(0, 0, nullptr, 1, &value, 1, buf,
                                      sizeof buf);
       }},
      {"encode null out",
       [] {
         return PAPIrepro_wire_encode(0, 0, &entry, 1, &value, 1,
                                      nullptr, sizeof buf);
       }},
      {"encode negative entries",
       [] {
         return PAPIrepro_wire_encode(0, 0, &entry, -1, &value, 1, buf,
                                      sizeof buf);
       }},
      {"encode null values with count",
       [] {
         return PAPIrepro_wire_encode(0, 0, &entry, 1, nullptr, 1, buf,
                                      sizeof buf);
       }},
      {"encode PAPI_NULL handle",
       [] {
         entry = {};
         entry.event_set = PAPI_NULL;
         return PAPIrepro_wire_encode(0, 0, &entry, 1, &value, 1, buf,
                                      sizeof buf);
       }},
      {"encode capacity too small",
       [] {
         entry = {};
         return PAPIrepro_wire_encode(0, 0, &entry, 1, &value, 1, buf,
                                      4);
       }},
  };
  for (const BadCall& b : cases) {
    EXPECT_EQ(b.call(), PAPI_EINVAL) << b.name;
  }

  // Empty ingest is a no-op, not an error.
  EXPECT_EQ(PAPIrepro_collector_ingest(c, nullptr, 0), 0);
  // Reduce before any ingest publishes an empty view; read serves it.
  EXPECT_EQ(PAPIrepro_collector_reduce(c, 0, nullptr), PAPI_OK);
  EXPECT_EQ(PAPIrepro_collector_read(c, &view), PAPI_OK);
  EXPECT_EQ(view.ranks_live, 0);
  EXPECT_EQ(PAPIrepro_collector_destroy(c), PAPI_OK);
  EXPECT_EQ(PAPIrepro_collector_destroy(c), PAPI_ENOEVST);  // twice
}

/// Collectors are independent of library init by design (a monitoring
/// daemon aggregates while the app's library comes and goes).
TEST(AggregationCapiNoInit, CollectorWorksWithoutLibrary) {
  PAPI_shutdown();
  const int c = PAPIrepro_collector_create(nullptr);
  ASSERT_GE(c, 0);
  PAPIrepro_cluster_view_t view = {};
  EXPECT_EQ(PAPIrepro_collector_reduce(c, 100, &view), PAPI_OK);
  EXPECT_EQ(view.ranks_live, 0);
  EXPECT_EQ(PAPIrepro_collector_read(c, &view), PAPI_OK);
  EXPECT_EQ(PAPIrepro_collector_destroy(c), PAPI_OK);
}

}  // namespace
