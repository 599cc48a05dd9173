// The asynchronous sampling pipeline: a per-Library aggregator thread
// that drains the per-context SPSC sample rings and runs the heavy half
// of overflow dispatch — user handlers and ProfileBuffer histogram
// updates — off the counting thread.  This is the shape the paper's
// accuracy/overhead finding points at: statistical sampling converges
// to true counts at 1-2 % overhead while direct counting costs up to
// ~30 %, but only if collecting a sample costs the measured thread no
// more than the interrupt itself.  (ScALPEL makes the same move with
// lock-free buffering between the measured thread and the collector;
// LIKWID layers cheap aggregation above raw counter access.)
//
// Ordering guarantees: records from one ring dispatch in enqueue order
// (SPSC FIFO).  Records from different rings interleave arbitrarily.
// detach() and flush() drain synchronously: when they return, every
// record enqueued before the call has been dispatched — this is what
// makes EventSet::stop() histograms complete (minus accounted drops).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"

namespace papirepro::papi {

/// One overflow occurrence, as captured at interrupt delivery.  POD so
/// enqueue is a handful of stores; the armed-config index says which
/// handler / profile buffer the aggregator dispatches it to.
struct SampleRecord {
  std::uint32_t config_index = 0;
  std::uint32_t has_precise = 0;
  std::uint64_t pc_observed = 0;
  std::uint64_t pc_precise = 0;
  std::uint64_t addr = 0;
};

/// Pipeline knobs (PAPIrepro_set_sampling).  `async` off keeps the seed
/// behaviour: overflow handlers run synchronously inside the counting
/// thread.  Changes apply to EventSets started afterwards.
struct SamplingConfig {
  bool async = false;
  std::size_t ring_capacity = 1024;
  /// Aggregator wake-up cadence between explicit kicks.
  std::uint64_t poll_interval_us = 100;
};

/// Cumulative pipeline counters (Library::sampling_stats); totals since
/// Library construction, across all rings ever attached.
struct SamplingStats {
  std::uint64_t enqueued = 0;    ///< records accepted by rings
  std::uint64_t dropped = 0;     ///< records lost to full rings
  std::uint64_t dispatched = 0;  ///< records delivered to handlers
  std::uint64_t sweeps = 0;      ///< aggregator drain passes
  std::uint64_t flushes = 0;     ///< synchronous flush/detach drains
  std::uint64_t rings_active = 0;
  std::size_t ring_capacity = 0;  ///< configured capacity for new rings
  bool async = false;
};

/// Owns the aggregator thread (started lazily on the first attach) and
/// the ring registry.  Consumer-side ring operations are serialized by
/// the registry mutex, so sweep/flush/detach may run from any thread
/// without breaking the SPSC contract.
class SamplingAggregator {
 public:
  using Dispatch = std::function<void(const SampleRecord&)>;

  SamplingAggregator() = default;
  ~SamplingAggregator();

  SamplingAggregator(const SamplingAggregator&) = delete;
  SamplingAggregator& operator=(const SamplingAggregator&) = delete;

  void configure(const SamplingConfig& config);
  SamplingConfig config() const;

  /// Registers `ring`; `dispatch` runs on the aggregator thread (or on
  /// the thread calling flush/detach) once per drained record.  The
  /// ring and everything `dispatch` touches must stay alive until
  /// detach() returns.
  void attach(SpscRing<SampleRecord>* ring, Dispatch dispatch);
  /// Drains the ring to empty, dispatching every record, then removes
  /// it.  Safe to call from a dispatch callback (recursive mutex).
  void detach(SpscRing<SampleRecord>* ring);
  /// Drains the ring to empty without removing it.
  void flush(SpscRing<SampleRecord>* ring);

  SamplingStats stats() const;

 private:
  struct Source {
    SpscRing<SampleRecord>* ring = nullptr;
    Dispatch dispatch;
    bool dead = false;  ///< detached mid-sweep; pruned after the pass
  };

  void run();
  /// Pops up to `limit` records (0 = to empty) from `source`.  Caller
  /// holds mutex_.
  void drain_locked(Source& source, std::size_t limit);
  void ensure_thread_locked();

  mutable std::recursive_mutex mutex_;
  std::condition_variable_any cv_;
  std::vector<Source> sources_;
  SamplingConfig config_;
  std::thread thread_;
  bool stop_requested_ = false;
  bool sweeping_ = false;  ///< aggregator mid-pass; detach defers erase

  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> flushes_{0};
  /// Push/drop totals folded in from rings as they detach (live rings
  /// are summed on demand in stats()).
  std::atomic<std::uint64_t> retired_pushed_{0};
  std::atomic<std::uint64_t> retired_dropped_{0};
};

}  // namespace papirepro::papi
