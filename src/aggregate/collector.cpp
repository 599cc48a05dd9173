#include "aggregate/collector.h"

#include <algorithm>
#include <limits>

namespace papirepro::aggregate {

namespace {

using papi::TelemetryCounter;

/// Histogram domain is unsigned; negative counter values (possible for
/// derived formulas) clamp to zero for the percentile stream.
std::uint64_t clamp_non_negative(long long v) noexcept {
  return v > 0 ? static_cast<std::uint64_t>(v) : 0u;
}

}  // namespace

Collector::Collector(const CollectorConfig& config,
                     papi::TelemetryRegistry* telemetry)
    : config_(config), telemetry_(telemetry) {
  if (config_.max_ranks == 0) config_.max_ranks = 1;
  if (config_.ranks_per_node == 0) config_.ranks_per_node = 1;
  if (config_.num_metrics == 0) config_.num_metrics = 1;
  if (config_.num_metrics > kMaxMetrics) {
    config_.num_metrics = static_cast<std::uint32_t>(kMaxMetrics);
  }
  ranks_ = std::make_unique<RankSlot[]>(config_.max_ranks);
  rank_values_ = std::make_unique<long long[]>(
      static_cast<std::size_t>(config_.max_ranks) * config_.num_metrics);
  // In size_t: a fan-in near 2^32 must not wrap the rounding add.
  max_nodes_ =
      (std::size_t{config_.max_ranks} + config_.ranks_per_node - 1) /
      config_.ranks_per_node;
  nodes_ = std::make_unique<NodeStats[]>(max_nodes_);
  cluster_.num_metrics = config_.num_metrics;
}

std::size_t Collector::ingest(std::span<const std::uint8_t> buf) noexcept {
  WireReader reader(buf);
  std::size_t accepted = 0;
  std::uint64_t errors = 0;
  FrameHeader fh;
  for (;;) {
    const std::size_t frame_start = reader.offset();
    const WireError b = reader.begin_frame(fh);
    if (b == WireError::kNeedMore) break;
    if (b != WireError::kOk) {
      ++stats_.decode_errors;
      ++errors;
      if (!reader.skip_frame()) break;  // cannot resync: abandon buffer
      continue;
    }
    if (fh.mode == kFrameModeRankRun) {
      // Node-agent batch: entry i is the single set of rank
      // `fh.rank + i`.  Entries commit individually as they decode
      // cleanly — a malformed tail still never half-updates any rank,
      // it just stops the run at the last good entry.
      std::uint64_t entries_seen = 0;
      std::uint64_t dropped = 0;
      bool bad = false;
      for (std::uint32_t i = 0; i < fh.entry_count && !bad; ++i) {
        EntryHeader eh;
        if (reader.read_entry(eh) != WireError::kOk) {
          bad = true;
          break;
        }
        // Values beyond the metric cap are counted from the declared
        // num_values and skipped via the entry length hop — never
        // decoded.
        const std::uint32_t stored =
            std::min(eh.num_values, config_.num_metrics);
        if (reader.read_values(staging_.data(), stored) !=
            WireError::kOk) {
          bad = true;
          break;
        }
        dropped += eh.num_values - stored;
        ++entries_seen;
        const std::uint64_t rank =
            static_cast<std::uint64_t>(fh.rank) + i;
        if (rank >= config_.max_ranks) {
          ++stats_.ranks_dropped;
          continue;
        }
        RankSlot& slot = ranks_[static_cast<std::uint32_t>(rank)];
        slot.seen = true;
        long long* dst = values_of(static_cast<std::uint32_t>(rank));
        for (std::uint32_t k = 0; k < stored; ++k) dst[k] = staging_[k];
        slot.num_values = stored;
        slot.pub_cycles = eh.pub_cycles;
      }
      if (!bad && reader.end_frame() != WireError::kOk) bad = true;
      if (bad) {
        ++stats_.decode_errors;
        ++errors;
        if (!reader.skip_frame()) break;
        continue;
      }
      ++accepted;
      ++stats_.frames;
      stats_.entries += entries_seen;
      stats_.bytes += reader.offset() - frame_start;
      stats_.values_dropped += dropped;
      continue;
    }
    if (fh.rank >= config_.max_ranks) {
      ++stats_.ranks_dropped;
      (void)reader.skip_frame();
      continue;
    }
    // Decode into the fixed staging array — no per-frame heap storage
    // on the ingest path.  The rank slot is only committed once the
    // whole frame decoded cleanly.
    RankSlot& slot = ranks_[fh.rank];
    std::uint32_t stored = 0;
    std::uint64_t dropped = 0;
    std::uint64_t newest_pub = 0;
    std::uint64_t entries_seen = 0;
    bool bad = false;
    for (std::uint32_t i = 0; i < fh.entry_count && !bad; ++i) {
      EntryHeader eh;
      if (reader.read_entry(eh) != WireError::kOk) {
        bad = true;
        break;
      }
      if (eh.pub_cycles > newest_pub) newest_pub = eh.pub_cycles;
      ++entries_seen;
      const std::uint32_t take =
          std::min(eh.num_values, config_.num_metrics - stored);
      if (reader.read_values(staging_.data() + stored, take) !=
          WireError::kOk) {
        bad = true;
        break;
      }
      stored += take;
      dropped += eh.num_values - take;  // skipped via the entry length
    }
    if (!bad && reader.end_frame() != WireError::kOk) bad = true;
    if (bad) {
      ++stats_.decode_errors;
      ++errors;
      if (!reader.skip_frame()) break;
      continue;
    }
    slot.seen = true;
    long long* dst = values_of(fh.rank);
    for (std::uint32_t i = 0; i < stored; ++i) {
      dst[i] = staging_[i];
    }
    slot.num_values = stored;
    slot.pub_cycles = newest_pub;
    ++accepted;
    ++stats_.frames;
    stats_.entries += entries_seen;
    stats_.bytes += reader.offset() - frame_start;
    stats_.values_dropped += dropped;
  }
  // Telemetry is batched per ingest() call: one slab resolve for the
  // whole buffer instead of one per frame keeps the per-frame decode
  // cost within the snapshot-read budget the bench gates.
  if (telemetry_ != nullptr) {
    if (accepted != 0) {
      telemetry_->bump(TelemetryCounter::kCollectorFrames, accepted);
    }
    if (errors != 0) {
      telemetry_->bump(TelemetryCounter::kCollectorDecodeErrors, errors);
    }
  }
  return accepted;
}

const ClusterReduction& Collector::reduce(
    std::uint64_t now_cycles) noexcept {
  // The config is read once: the stores below (slot fields, histogram
  // buckets, partials) could alias its fields, so reading it through
  // config_ inside the loops would reload it for every rank.
  const std::uint32_t m = config_.num_metrics;
  const std::uint32_t max_ranks = config_.max_ranks;
  const std::uint32_t per_node = config_.ranks_per_node;
  const std::uint64_t max_age = config_.max_age_cycles;
  const std::uint32_t stale_limit = config_.stale_reduce_rounds;
  for (std::uint32_t i = 0; i < m; ++i) histograms_[i].reset();

  // Node by node: each node's live ranks fold into local accumulators,
  // whose min and max start at the type's extremes so the fold needs
  // no first-value test, and the node's partial then folds into the
  // cluster's.  Ranks are visited in rank order, so every sum adds in
  // the same order as a rank-by-rank fold would.  Sums add in unsigned
  // arithmetic and so wrap modulo 2^64: values come off the wire, and
  // a frame carrying values near 2^63 must not make the fold undefined.
  // Every node slot is rewritten, so a node that had live ranks last
  // round but none this round reads as empty, never as last round's
  // leftovers.
  constexpr long long kLow = std::numeric_limits<long long>::min();
  constexpr long long kHigh = std::numeric_limits<long long>::max();
  long long cmin[kMaxMetrics], cmax[kMaxMetrics];
  std::uint64_t csum[kMaxMetrics], ccount[kMaxMetrics];
  for (std::uint32_t i = 0; i < m; ++i) {
    cmin[i] = kHigh;
    cmax[i] = kLow;
    csum[i] = 0;
    ccount[i] = 0;
  }
  num_nodes_used_ = 0;
  std::uint32_t live = 0;
  std::uint32_t stale = 0;
  const long long* vals = rank_values_.get();
  for (std::size_t n = 0; n < max_nodes_; ++n) {
    const std::uint64_t first = static_cast<std::uint64_t>(n) * per_node;
    const auto last = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(first + per_node, max_ranks));
    long long lo[kMaxMetrics], hi[kMaxMetrics];
    std::uint64_t sum[kMaxMetrics], count[kMaxMetrics];
    for (std::uint32_t i = 0; i < m; ++i) {
      lo[i] = kHigh;
      hi[i] = kLow;
      sum[i] = 0;
      count[i] = 0;
    }
    std::uint32_t node_ranks = 0;
    for (auto r = static_cast<std::uint32_t>(first); r < last; ++r) {
      RankSlot& slot = ranks_[r];
      if (!slot.seen) continue;
      // Liveness: stamp distance and stamp stagnation.
      bool is_live = true;
      if (max_age != 0 && now_cycles > slot.pub_cycles &&
          now_cycles - slot.pub_cycles > max_age) {
        is_live = false;
      }
      if (stale_limit != 0) {
        if (slot.pub_cycles == slot.prev_pub_cycles) {
          if (slot.stale_rounds <
              std::numeric_limits<std::uint32_t>::max()) {
            ++slot.stale_rounds;
          }
          if (slot.stale_rounds >= stale_limit) is_live = false;
        } else {
          slot.stale_rounds = 0;
        }
      }
      slot.prev_pub_cycles = slot.pub_cycles;
      slot.live = is_live;
      if (!is_live) {
        ++stale;
        continue;
      }
      ++node_ranks;
      const std::uint32_t nv = std::min(slot.num_values, m);
      const long long* v = vals + static_cast<std::size_t>(r) * m;
      for (std::uint32_t i = 0; i < nv; ++i) {
        const long long x = v[i];
        lo[i] = std::min(lo[i], x);
        hi[i] = std::max(hi[i], x);
        sum[i] += static_cast<std::uint64_t>(x);
        ++count[i];
        histograms_[i].record(clamp_non_negative(x));
      }
    }
    NodeStats& node = nodes_[n];
    node.node = static_cast<std::uint32_t>(n);
    node.ranks = node_ranks;
    for (std::uint32_t i = 0; i < m; ++i) {
      MetricStats& ms = node.metrics[i];
      if (count[i] == 0) {
        ms = {};
        continue;
      }
      const auto node_sum = static_cast<long long>(sum[i]);
      ms = {.min = lo[i],
            .max = hi[i],
            .sum = node_sum,
            .avg = static_cast<double>(node_sum) /
                   static_cast<double>(count[i]),
            .count = count[i]};
      cmin[i] = std::min(cmin[i], lo[i]);
      cmax[i] = std::max(cmax[i], hi[i]);
      csum[i] += sum[i];
      ccount[i] += count[i];
    }
    live += node_ranks;
    if (node_ranks != 0) num_nodes_used_ = n + 1;
  }

  cluster_.now_cycles = now_cycles;
  cluster_.ranks_live = live;
  cluster_.ranks_stale = stale;
  cluster_.num_metrics = m;
  for (std::uint32_t i = 0; i < m; ++i) {
    MetricStats& cm = cluster_.metrics[i];
    cm = {};
    if (ccount[i] != 0) {
      cm.min = cmin[i];
      cm.max = cmax[i];
      cm.sum = static_cast<long long>(csum[i]);
      cm.count = ccount[i];
      cm.avg = static_cast<double>(cm.sum) / static_cast<double>(ccount[i]);
    }
    cm.p50 = histograms_[i].quantile(0.50);
    cm.p95 = histograms_[i].quantile(0.95);
    cm.p99 = histograms_[i].quantile(0.99);
  }
  ++cluster_.reduce_count;
  ++stats_.reductions;
  if (telemetry_ != nullptr) {
    telemetry_->bump(TelemetryCounter::kCollectorReductions);
  }
  return cluster_;
}

std::size_t Collector::top_ranks(std::uint32_t metric,
                                 std::span<RankValue> out) const noexcept {
  if (metric >= config_.num_metrics || out.empty()) return 0;
  std::size_t used = 0;
  for (std::uint32_t r = 0; r < config_.max_ranks; ++r) {
    const RankSlot& slot = ranks_[r];
    if (!slot.seen || !slot.live || slot.num_values <= metric) continue;
    const long long v = values_of(r)[metric];
    // Insertion position in the descending prefix [0, used).
    std::size_t pos = used;
    while (pos > 0 && out[pos - 1].value < v) --pos;
    if (pos >= out.size()) continue;  // below the current top-N floor
    const std::size_t tail = std::min(used, out.size() - 1);
    for (std::size_t i = tail; i > pos; --i) out[i] = out[i - 1];
    out[pos] = RankValue{r, v, slot.pub_cycles};
    if (used < out.size()) ++used;
  }
  return used;
}

}  // namespace papirepro::aggregate
