// Cluster-scale snapshot aggregation: the consumer ROADMAP item #2
// calls for, sized for the paper's perfometer-at-scale scenario
// (hundreds to thousands of ranks, one counter snapshot stream each).
// A Collector ingests wire-format frames (wire.h) produced from
// `Library::snapshot_all` by per-rank counting threads, folds them into
// fixed per-rank slots, and reduces hierarchically:
//
//   per-rank values  ->  per-node min/max/sum/avg  ->  per-cluster
//   min/max/sum/avg plus streaming p50/p95/p99 from fixed-bucket
//   histograms (histogram.h)
//
// Invariants the bench gates (bench_aggregation) hold the design to:
//   * the ingest path is zero-allocation in steady state: frames decode
//     straight into the rank slots, no intermediate per-frame storage;
//   * counting threads are never stopped or contacted — the collector
//     only ever consumes published snapshots;
//   * reduce() is bounded work over the fixed slot arrays and performs
//     no allocation after construction.
//
// Liveness: every snapshot entry carries its publication cycle stamp
// (SnapshotEntry::pub_cycles).  A rank whose stamp stops advancing
// across `stale_reduce_rounds` consecutive reduces, or whose stamp
// lags `now - max_age_cycles`, is aged out of the reduction (counted,
// not silently dropped) — a quarantined or dead rank must not freeze
// the cluster view at its last values.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "aggregate/histogram.h"
#include "aggregate/wire.h"
#include "core/telemetry.h"

namespace papirepro::aggregate {

/// Compile-time cap on metrics tracked per rank (the concatenation of
/// a frame's entry values, in order).  Extra values are counted in
/// CollectorStats::values_dropped — never silently discarded.
inline constexpr std::size_t kMaxMetrics = 16;

struct CollectorConfig {
  std::uint32_t max_ranks = 1024;
  std::uint32_t ranks_per_node = 32;  ///< reduction-tree fan-in
  /// Metrics reduced per rank (<= kMaxMetrics).
  std::uint32_t num_metrics = 4;
  /// Age-out by stamp distance: a rank whose newest pub_cycles lags
  /// `now_cycles` by more than this is excluded from the reduction.
  /// 0 disables the distance rule.
  std::uint64_t max_age_cycles = 0;
  /// Age-out by stagnation: a rank whose stamp fails to advance for
  /// this many consecutive reduce() calls is excluded.  0 disables.
  std::uint32_t stale_reduce_rounds = 0;
};

/// One metric's reduction across a node or the cluster.
struct MetricStats {
  long long min = 0;
  long long max = 0;
  long long sum = 0;  ///< wraps modulo 2^64 rather than overflowing
  double avg = 0.0;
  std::uint64_t count = 0;  ///< ranks contributing
  // Percentiles are cluster-level only (nodes carry min/max/sum/avg).
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};

/// One node's partial reduction.
struct NodeStats {
  std::uint32_t node = 0;
  std::uint32_t ranks = 0;  ///< live ranks folded into this node
  std::array<MetricStats, kMaxMetrics> metrics{};
};

/// The cluster-level result reduce() refreshes in place.
struct ClusterReduction {
  std::uint64_t now_cycles = 0;
  std::uint64_t reduce_count = 0;
  std::uint32_t ranks_live = 0;
  std::uint32_t ranks_stale = 0;  ///< aged out this round
  std::uint32_t num_metrics = 0;
  std::array<MetricStats, kMaxMetrics> metrics{};
};

/// Ingest/decode accounting, cumulative since construction.
struct CollectorStats {
  std::uint64_t frames = 0;         ///< frames accepted
  std::uint64_t entries = 0;        ///< entries accepted
  std::uint64_t bytes = 0;          ///< bytes consumed (good frames)
  std::uint64_t decode_errors = 0;  ///< frames rejected by the decoder
  std::uint64_t values_dropped = 0; ///< values beyond num_metrics
  std::uint64_t ranks_dropped = 0;  ///< frames for rank >= max_ranks
  std::uint64_t reductions = 0;     ///< reduce() calls
};

/// One row of a top-N ranking (top_ranks()).
struct RankValue {
  std::uint32_t rank = 0;
  long long value = 0;
  std::uint64_t pub_cycles = 0;
};

class Collector {
 public:
  /// All storage (rank slots, node partials, histograms) is sized here
  /// once; no later call allocates.  `telemetry` (optional) receives
  /// kCollectorFrames / kCollectorDecodeErrors / kCollectorReductions
  /// attribution.
  explicit Collector(const CollectorConfig& config,
                     papi::TelemetryRegistry* telemetry = nullptr);

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  const CollectorConfig& config() const noexcept { return config_; }

  /// Decodes every frame in `buf` into the rank slots.  Structurally
  /// recoverable bad frames (bad magic/version, malformed interior)
  /// are skipped and counted; an unrecoverable prefix (truncated or
  /// oversized length) abandons the rest of the buffer.  Returns the
  /// number of frames accepted.  Zero-allocation.
  std::size_t ingest(std::span<const std::uint8_t> buf) noexcept;

  /// Recomputes the hierarchical reduction over the current slots.
  /// `now_cycles` is the collector's clock, used for age-out and
  /// stamped into the result.  Returns the refreshed cluster view
  /// (also available via cluster()).  Zero-allocation.
  const ClusterReduction& reduce(std::uint64_t now_cycles) noexcept;

  const ClusterReduction& cluster() const noexcept { return cluster_; }
  /// Per-node partials of the most recent reduce().
  std::span<const NodeStats> nodes() const noexcept {
    return {nodes_.get(), num_nodes_used_};
  }

  /// Fills `out` with the top-N live ranks by metric `metric` from the
  /// most recent reduce(), descending.  Returns rows written.
  /// Zero-allocation (insertion into the caller's span).
  std::size_t top_ranks(std::uint32_t metric,
                        std::span<RankValue> out) const noexcept;

  const CollectorStats& stats() const noexcept { return stats_; }

 private:
  /// Per-rank bookkeeping.  The metric values live in the separate
  /// dense `rank_values_` array (max_ranks x num_metrics) instead of a
  /// kMaxMetrics-sized member: at 1024 ranks that keeps the ingest and
  /// reduce working set at tens of KB instead of a couple hundred —
  /// the difference between the per-frame cost sitting within the
  /// bench's 2x-snapshot gate and blowing through it on cache misses.
  struct RankSlot {
    bool seen = false;
    bool live = false;           ///< included in the last reduce()
    std::uint32_t stale_rounds = 0;
    std::uint32_t num_values = 0;
    std::uint64_t pub_cycles = 0;       ///< newest entry stamp
    std::uint64_t prev_pub_cycles = 0;  ///< stamp at the prior reduce
  };

  /// Rank `r`'s metric window in rank_values_.
  long long* values_of(std::uint32_t r) noexcept {
    return rank_values_.get() + static_cast<std::size_t>(r) *
                                    config_.num_metrics;
  }
  const long long* values_of(std::uint32_t r) const noexcept {
    return rank_values_.get() + static_cast<std::size_t>(r) *
                                    config_.num_metrics;
  }

  CollectorConfig config_;
  papi::TelemetryRegistry* telemetry_;
  /// Ingest staging: a frame's values decode here first and are copied
  /// into the rank slot only after the whole frame parsed cleanly, so a
  /// malformed tail can never leave a half-updated rank.
  std::array<long long, kMaxMetrics> staging_{};
  std::unique_ptr<RankSlot[]> ranks_;
  std::unique_ptr<long long[]> rank_values_;
  std::unique_ptr<NodeStats[]> nodes_;
  std::size_t max_nodes_ = 0;
  std::size_t num_nodes_used_ = 0;
  std::array<FixedHistogram, kMaxMetrics> histograms_;
  ClusterReduction cluster_;
  CollectorStats stats_;
};

}  // namespace papirepro::aggregate
