// Self-telemetry: the library watching itself.  The paper's operational
// lesson is that the measurement layer has a cost — "up to ~30 %
// overhead with direct counting vs 1-2 % with sampling" — and a
// monitoring library that cannot report its *own* behaviour (retries,
// degradations, mux rotations, sample drops) forces users to re-derive
// that cost from external benches.  The TelemetryRegistry makes it a
// first-class runtime surface:
//
//   * a fixed enum of library-wide counters, maintained as per-thread
//     cache-line-padded relaxed-atomic slabs and summed on read.  The
//     bump path is zero-allocation and lock-free in steady state: a
//     thread-local (token, slab) memo — the same ABA-safe pattern as the
//     Library's context cache — resolves the slab without touching the
//     registry mutex; only a thread's *first* bump registers a slab.
//   * an opt-in per-thread trace ring of fixed-size span/instant records
//     (an SpscRing: the producer is the instrumented hot path and must
//     never block or allocate; the consumer is whoever calls
//     dump_trace(), serialized by the registry mutex), exportable as
//     chrome://tracing JSON or CSV.
//
// Counter slabs and trace rings are never freed before the registry is
// destroyed: a thread that exits keeps its counts in the totals, and a
// producer racing a dump can never touch freed storage.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/spsc_ring.h"
#include "common/status.h"

namespace papirepro::papi {

/// Every introspection counter the library maintains about itself.  One
/// slot per slab entry; the order is the wire order of the C API struct.
enum class TelemetryCounter : std::size_t {
  kStarts = 0,           ///< successful EventSet::start() calls
  kStops,                ///< successful EventSet::stop() calls
  kReads,                ///< EventSet::read() calls (accum reads included)
  kAccums,               ///< EventSet::accum() calls
  kResets,               ///< EventSet::reset() calls
  kMuxRotations,         ///< multiplex slice rotations
  kRetryAttempts,        ///< re-attempts after a transient fault
  kRetryExhaustions,     ///< transient faults surfaced after the budget
  kDegradations,         ///< degradation-ladder activations
  kFaultsInjected,       ///< faults the injecting decorator delivered
  // Nothing bumps these two, so both read 0.  They stay only while
  // perfbench's selfmon workload reads them for its
  // core.alloc_cache.hit_ratio row.
  kAllocCacheHits,       ///< always 0
  kAllocCacheMisses,     ///< always 0
  kSamplesEnqueued,      ///< overflow samples accepted by rings
  kSamplesDropped,       ///< overflow samples lost to full rings
  kSamplesDispatched,    ///< samples delivered by the aggregator
  kOverflowsSuppressed,  ///< dispatches dropped after clear_overflow()
  kTraceRecords,         ///< trace records accepted by trace rings
  kTraceDrops,           ///< trace records lost to full trace rings
  kHealthTransitions,    ///< health state-machine transitions
  kHealthFailFasts,      ///< ops rejected fast by an open circuit breaker
  kHealthProbes,         ///< probation probes admitted to the substrate
  kSanityFaults,         ///< counter readings flagged non-monotonic
  kCollectorFrames,      ///< snapshot frames ingested by collectors
  kCollectorDecodeErrors,  ///< frames rejected by the wire decoder
  kCollectorReductions,  ///< cluster reductions computed by collectors
  kNumCounters
};

inline constexpr std::size_t kNumTelemetryCounters =
    static_cast<std::size_t>(TelemetryCounter::kNumCounters);

/// Stable short names, indexed by counter (summary dumps, C callers).
constexpr std::array<const char*, kNumTelemetryCounters>
    kTelemetryCounterNames = {
        "starts",           "stops",
        "reads",            "accums",
        "resets",           "mux_rotations",
        "retry_attempts",   "retry_exhaustions",
        "degradations",     "faults_injected",
        "alloc_cache_hits", "alloc_cache_misses",
        "samples_enqueued", "samples_dropped",
        "samples_dispatched", "overflows_suppressed",
        "trace_records",    "trace_drops",
        "health_transitions", "health_fail_fasts",
        "health_probes",    "sanity_faults",
        "collector_frames", "collector_decode_errors",
        "collector_reductions",
};

constexpr const char* telemetry_counter_name(TelemetryCounter c) {
  return kTelemetryCounterNames[static_cast<std::size_t>(c)];
}

/// Per-component dimension of the control-operation counters: the
/// component registry makes "how often did each component's counters get
/// started/stopped/read" a distinct question from the library-wide
/// totals (one cross-component read bumps kReads once but every spanned
/// component's kReads slot once each).
enum class ComponentCounter : std::size_t {
  kStarts = 0,  ///< per-component start fan-outs
  kStops,       ///< per-component stop fan-outs
  kReads,       ///< per-component counter snapshots
  kNumCounters
};

inline constexpr std::size_t kNumComponentCounters =
    static_cast<std::size_t>(ComponentCounter::kNumCounters);

/// Must match papi::kMaxComponents (component.h keeps the registry-side
/// cap; the slabs carry a fixed block so the bump path stays a plain
/// indexed store).
inline constexpr std::size_t kTelemetryMaxComponents = 8;

/// What a trace record marks.  Spans (dur > 0 possible) for the control
/// operations, instants for one-shot occurrences.
enum class TraceEventKind : std::uint8_t {
  kStart = 0,
  kStop,
  kRead,
  kAccum,
  kReset,
  kRotate,
  kRetry,
  kDegrade,
  kOverflowDispatch,
  kHealth,  ///< health state transition; arg packs component | from | to
  kNumKinds
};

constexpr const char* trace_event_name(TraceEventKind kind) {
  constexpr std::array<const char*,
                       static_cast<std::size_t>(TraceEventKind::kNumKinds)>
      names = {"start",  "stop",  "read",    "accum",            "reset",
               "rotate", "retry", "degrade", "overflow_dispatch",
               "health"};
  return names[static_cast<std::size_t>(kind)];
}

/// One trace event: a span when dur_cycles > 0, an instant otherwise.
/// POD so enqueue is a handful of stores; timestamps are substrate
/// cycles of whatever clock the instrumented path runs on.
struct TraceRecord {
  std::uint64_t ts_cycles = 0;
  std::uint64_t dur_cycles = 0;
  std::uint64_t arg = 0;  ///< EventSet handle / attempt number / flags
  TraceEventKind kind = TraceEventKind::kStart;
};

/// Point-in-time sum of every telemetry counter plus the gauges folded
/// in from the subsystems (Library::telemetry_snapshot() fills those) —
/// the one consistent read path behind PAPIrepro_get_telemetry.
struct TelemetrySnapshot {
  std::array<std::uint64_t, kNumTelemetryCounters> counters{};
  /// Per-component control-operation totals, indexed
  /// [component * kNumComponentCounters + counter].
  std::array<std::uint64_t,
             kTelemetryMaxComponents * kNumComponentCounters>
      component_counters{};
  /// Registered components at snapshot time (Library fills this).
  std::uint64_t num_components = 0;
  bool enabled = true;
  bool trace_enabled = false;
  std::uint64_t threads_seen = 0;  ///< slabs ever registered
  std::uint64_t trace_records_buffered = 0;

  // Gauges copied from their owning subsystems at snapshot time.
  std::uint64_t sampling_sweeps = 0;
  std::uint64_t sampling_flushes = 0;
  std::uint64_t sampling_rings_active = 0;
  std::uint64_t sampling_ring_capacity = 0;
  bool sampling_async = false;

  std::uint64_t value(TelemetryCounter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t component_value(std::size_t component,
                                ComponentCounter c) const noexcept {
    if (component >= kTelemetryMaxComponents) return 0;
    return component_counters[component * kNumComponentCounters +
                              static_cast<std::size_t>(c)];
  }
};

enum class TraceFormat : std::uint8_t { kChromeJson = 0, kCsv = 1 };

class TelemetryRegistry {
 public:
  static constexpr std::size_t kDefaultTraceCapacity = 4096;

  TelemetryRegistry()
      : token_(next_registry_token().fetch_add(
            1, std::memory_order_relaxed)) {}
  ~TelemetryRegistry() = default;

  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  /// Master switch.  Off turns every bump/trace call into one relaxed
  /// load + branch — bench_feature_cost's TL1 rows measure enabled vs
  /// disabled on exactly this knob: an enabled read costs 1.05–1.08x a
  /// disabled one on a 4-vCPU Xeon.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  bool tracing() const noexcept {
    return trace_enabled_.load(std::memory_order_relaxed);
  }

  /// The hot path: one relaxed flag load, one thread-local memo probe,
  /// one relaxed load+store on a cache-line-private atomic.  The slab
  /// is single-writer (current_slab() always resolves the *calling*
  /// thread's slab), so the increment needs no atomic RMW — a plain
  /// load/add/store is exact and keeps the `lock` prefix off the read
  /// path.  The only slow case is a thread's first bump against this
  /// registry, which registers a slab under the mutex (and allocates —
  /// callers that assert zero-allocation warm up first, like every
  /// other TLS cache in the library).
  void bump(TelemetryCounter c, std::uint64_t n = 1) noexcept {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    if (Slab* slab = current_slab()) {
      auto& cell = slab->counts[static_cast<std::size_t>(c)].value;
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    }
  }

  /// Per-component variant of bump(): same one-flag-load, one-memo-probe,
  /// one relaxed load+store shape, landing in the slab's fixed
  /// per-component block.  Out-of-range components are dropped rather
  /// than checked upstream — the registry caps ids at kMaxComponents.
  void bump_component(std::uint32_t component, ComponentCounter c,
                      std::uint64_t n = 1) noexcept {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    if (component >= kTelemetryMaxComponents) return;
    if (Slab* slab = current_slab()) {
      auto& cell =
          slab->component_counts[component * kNumComponentCounters +
                                 static_cast<std::size_t>(c)];
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    }
  }

  /// Fused read-path bump: the library-wide kReads counter and
  /// `component`'s kReads slot in one slab resolve (one enabled-flag
  /// load, one thread-local memo probe) instead of two — the
  /// single-read fast path's only telemetry touch.  `n` > 1 lets the
  /// batched read paths account a whole pass with one call.
  void bump_read(std::uint32_t component, std::uint64_t n = 1) noexcept {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    Slab* slab = current_slab();
    if (slab == nullptr) return;
    auto& cell =
        slab->counts[static_cast<std::size_t>(TelemetryCounter::kReads)]
            .value;
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
    if (component >= kTelemetryMaxComponents) return;
    auto& ccell =
        slab->component_counts[component * kNumComponentCounters +
                               static_cast<std::size_t>(
                                   ComponentCounter::kReads)];
    ccell.store(ccell.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  }

  /// Trace enqueue: wait-free and allocation-free once the thread's
  /// ring exists (set_trace(true) creates rings for known slabs; slabs
  /// registered later get one at registration).  Full rings drop the
  /// record and account it — never block the instrumented path.
  void trace(TraceEventKind kind, std::uint64_t ts_cycles,
             std::uint64_t dur_cycles, std::uint64_t arg) noexcept {
    if (!trace_enabled_.load(std::memory_order_relaxed)) return;
    Slab* slab = current_slab();
    if (slab == nullptr) return;
    SpscRing<TraceRecord>* ring =
        slab->ring.load(std::memory_order_acquire);
    if (ring == nullptr) return;
    const bool pushed =
        ring->try_push(TraceRecord{ts_cycles, dur_cycles, arg, kind});
    auto& cell = slab->counts[static_cast<std::size_t>(
                                  pushed ? TelemetryCounter::kTraceRecords
                                         : TelemetryCounter::kTraceDrops)]
                     .value;
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
  void trace_instant(TraceEventKind kind, std::uint64_t ts_cycles,
                     std::uint64_t arg) noexcept {
    trace(kind, ts_cycles, 0, arg);
  }

  /// Enables/disables per-thread trace rings.  Enabling creates a ring
  /// (capacity records, rounded up to a power of two; 0 = default) for
  /// every known slab and for slabs registered later; disabling stops
  /// recording but keeps buffered records for dump_trace().  Rings keep
  /// their capacity once created.
  Status set_trace(bool enabled,
                   std::size_t ring_capacity = kDefaultTraceCapacity);

  /// Counter totals summed across every slab (live and dead threads).
  /// Gauges owned by other subsystems are zero here; Library's
  /// telemetry_snapshot() fills them.
  TelemetrySnapshot snapshot() const;

  /// Drains every trace ring (destructive: records are consumed) into
  /// one time-sorted export.  kChromeJson is a chrome://tracing
  /// traceEvents document with cycle timestamps in the "ts"/"dur"
  /// microsecond fields (1 simulated cycle == 1 display unit); kCsv is
  /// tid,kind,ts_cycles,dur_cycles,arg rows.
  std::string dump_trace(TraceFormat format);

  /// Human-readable counter table for the PAPIREPRO_TELEMETRY shutdown
  /// dump; `snapshot` should come from Library::telemetry_snapshot() so
  /// the gauges are filled.
  static std::string render_summary(const TelemetrySnapshot& snapshot);

 private:
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> value{0};
  };
  /// One thread's counter slab.  The counters are the thread's private
  /// cache lines (padded so two threads' bumps never false-share) and
  /// **single-writer**: every bump/trace call resolves the calling
  /// thread's own slab, so increments are relaxed load+store pairs and
  /// only snapshot() reads them cross-thread; the ring pointer is
  /// written under the registry mutex and acquire-read by the owning
  /// thread's trace path.
  struct Slab {
    std::array<PaddedCounter, kNumTelemetryCounters> counts{};
    /// Per-component block, same single-writer contract as `counts`.
    /// Unpadded: one thread owns the whole block, so the only sharing
    /// is with snapshot() reads.
    std::array<std::atomic<std::uint64_t>,
               kTelemetryMaxComponents * kNumComponentCounters>
        component_counts{};
    std::atomic<SpscRing<TraceRecord>*> ring{nullptr};
    std::uint64_t thread_key = 0;
    std::uint64_t tid_label = 0;  ///< dense label for trace exports
  };
  struct TlsSlabCache {
    std::uint64_t token = 0;
    Slab* slab = nullptr;
  };

  /// Process-wide monotonic registry tokens (never reused, so a stale
  /// thread-local memo can never match a new registry — the same ABA
  /// defence as Library::instance_token_).
  static std::atomic<std::uint64_t>& next_registry_token() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter;
  }
  /// Process-wide monotonic per-thread key: unique per live thread and
  /// never reused, so a new thread can never match a dead thread's slab
  /// (a hash of thread::id could collide; this cannot).
  static std::uint64_t current_thread_key() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    thread_local const std::uint64_t key =
        counter.fetch_add(1, std::memory_order_relaxed);
    return key;
  }

  Slab* current_slab() noexcept {
    if (tls_cache_.token == token_) return tls_cache_.slab;
    return register_current_thread();
  }

  /// Slow path: find or create this thread's slab.  Inline so substrate
  /// code (the fault decorator) can bump without linking the core
  /// library's objects.
  Slab* register_current_thread() {
    const std::uint64_t key = current_thread_key();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& slab : slabs_) {
      if (slab->thread_key == key) {
        tls_cache_ = {token_, slab.get()};
        return slab.get();
      }
    }
    auto slab = std::make_unique<Slab>();
    slab->thread_key = key;
    slab->tid_label = slabs_.size();
    if (trace_enabled_.load(std::memory_order_relaxed)) {
      rings_.push_back(
          std::make_unique<SpscRing<TraceRecord>>(trace_capacity_));
      slab->ring.store(rings_.back().get(), std::memory_order_release);
    }
    slabs_.push_back(std::move(slab));
    tls_cache_ = {token_, slabs_.back().get()};
    return slabs_.back().get();
  }

  static thread_local TlsSlabCache tls_cache_;

  const std::uint64_t token_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> trace_enabled_{false};

  mutable std::mutex mutex_;  ///< guards slabs_, rings_, trace_capacity_
  std::vector<std::unique_ptr<Slab>> slabs_;
  std::vector<std::unique_ptr<SpscRing<TraceRecord>>> rings_;
  std::size_t trace_capacity_ = kDefaultTraceCapacity;
};

inline thread_local TelemetryRegistry::TlsSlabCache
    TelemetryRegistry::tls_cache_{};

}  // namespace papirepro::papi
