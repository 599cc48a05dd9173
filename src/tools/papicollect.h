// papicollect: the cluster-scale consumer of the aggregation service —
// perfometer's "runtime trace" idea scaled from one process to a rank
// population.  N simulated ranks run a ring exchange on real threads
// sharing one library; a collector thread polls snapshot_all, encodes
// each rank's published snapshot into the compact wire format, ingests
// it into an aggregate::Collector, reduces rank -> node -> cluster, and
// publishes each reduction through the seqlock snapshot region exactly
// as an out-of-process monitor would consume it.  The counting threads
// are never stopped or signalled: every sample is served from seqlock
// publications, and the result carries the telemetry proof.
#pragma once

#include <cstdint>
#include <string>

#include "aggregate/collector.h"
#include "aggregate/shm_region.h"
#include "common/status.h"

namespace papirepro::tools {

struct PapicollectRequest {
  std::string platform = "sim-x86";
  std::uint32_t ranks = 8;
  std::int64_t iters = 60;         ///< ring iterations per rank
  std::int64_t work = 2'000;       ///< compute per iteration
  std::uint32_t ranks_per_node = 4;  ///< reduction-tree fan-in
  std::uint32_t top_n = 4;         ///< rows in the live top-N table
  /// Age-out knob forwarded to the collector (0 = off).
  std::uint32_t stale_reduce_rounds = 0;
  /// Overload one rank (4x work) so the top-N table has a story;
  /// ranks stay balanced when false.
  bool imbalance = true;
};

struct PapicollectResult {
  std::string report;  ///< formatted run summary + top-N table
  /// Final cluster reduction (metric 0 = PAPI_TOT_CYC,
  /// 1 = PAPI_TOT_INS) and its per-poll accounting.
  aggregate::ClusterReduction cluster;
  aggregate::CollectorStats collector_stats;
  /// The final reduction as read back through the seqlock region — what
  /// an out-of-process poller would have seen.
  aggregate::ClusterReduction region;
  /// Top ranks by metric 0 at the final reduction, descending.
  std::vector<aggregate::RankValue> top;
  std::uint32_t polls = 0;  ///< collector polling passes completed
  /// PAPI_stop count over the whole run: exactly `ranks` (one per rank
  /// at thread exit) proves the collector never stopped a counting
  /// thread to sample it.
  std::uint64_t total_stops = 0;
  std::uint64_t total_starts = 0;
};

Result<PapicollectResult> papicollect(const PapicollectRequest& request);

}  // namespace papirepro::tools
