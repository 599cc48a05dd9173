// A CounterContext is one independently-programmable view of the
// hardware counters: the stateful half of what used to be the Substrate
// interface (program/start/stop/read/reset/overflow/domain), split out so
// that concurrent threads — or concurrent simulated ranks — can each
// drive their own counters without sharing mutable state.  The Substrate
// is the *factory* for contexts plus the stateless services (event
// namespace, allocation translation, process-global timers); a context is
// the per-thread programming state.
//
// This mirrors what thread support required of real PAPI: the kernel (or
// the substrate) virtualizes one counter file per thread, and the
// portable layer keys its running-EventSet rule by thread instead of by
// process.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/status.h"
#include "pmu/native_event.h"

namespace papirepro::papi {

/// Overflow notification from the substrate: event index within the
/// programmed list, the PC a handler would observe (already skidded on
/// out-of-order platforms), and the precise PC where hardware assists
/// (EAR / ProfileMe) provide one.
struct SubstrateOverflow {
  std::uint32_t event_index = 0;
  std::uint64_t pc_observed = 0;
  std::uint64_t pc_precise = 0;
  bool has_precise = false;
  std::uint64_t addr = 0;
};

/// How much work the overflow callback does in the delivery context.
/// kSynchronous is the classic PAPI shape: the full handler runs inside
/// the (simulated) interrupt, so the substrate charges the counting
/// thread the whole handler cost.  kDeferred promises the callback only
/// captures the sample (an O(1), no-allocation ring enqueue) and the
/// heavy dispatch happens on another thread — substrates that model
/// delivery cost charge the cheaper enqueue-only price.
enum class OverflowDeliveryMode : std::uint8_t {
  kSynchronous,
  kDeferred,
};

class CounterContext {
 public:
  using OverflowCallback = std::function<void(const SubstrateOverflow&)>;
  using TimerCallback = std::function<void()>;

  virtual ~CounterContext() = default;

  // --- counter control ---
  virtual Status program(std::span<const pmu::NativeEventCode> events,
                         std::span<const std::uint32_t> assignment) = 0;
  virtual Status start() = 0;
  virtual Status stop() = 0;
  /// Values in programmed-event order.
  virtual Status read(std::span<std::uint64_t> out) = 0;
  virtual Status reset_counts() = 0;
  /// read() and reset_counts() as one call: `out` gets the values since
  /// the last reset, and the counters restart from zero.  A failed read
  /// zeroes nothing.  The default makes the two calls; a context that
  /// can zero each counter as it reads it overrides this with one pass
  /// that gives exactly the same values and leaves the same state.
  virtual Status read_and_reset(std::span<std::uint64_t> out);
  virtual Status set_overflow(
      std::uint32_t event_index, std::uint64_t threshold,
      OverflowCallback callback,
      OverflowDeliveryMode mode = OverflowDeliveryMode::kSynchronous) = 0;
  virtual Status clear_overflow(std::uint32_t event_index) = 0;
  virtual bool running() const noexcept = 0;

  /// Counting domain applied to every programmed counter (PAPI
  /// PAPI_set_domain).  Takes effect at the next program().
  virtual Status set_domain(std::uint32_t /*domain_mask*/) {
    return Error::kNoSupport;
  }

  // --- per-context clock and timer service ---
  /// Cycle clock of whatever this context measures (the bound simulated
  /// machine, or the host TSC).  The multiplexing time-slicer runs on
  /// this clock so each context rotates on its own rank's time.
  virtual std::uint64_t cycles() const = 0;
  /// Cycles this context's clock has charged to measurement
  /// infrastructure (counter access costs, overflow delivery, sampling
  /// engines) — the numerator of the paper's "up to 30 % direct vs
  /// 1-2 % sampling" overhead ratio.  0 where the substrate cannot
  /// attribute its own cost (the host).
  virtual std::uint64_t overhead_cycles() const noexcept { return 0; }
  virtual Result<int> add_timer(std::uint64_t /*period_cycles*/,
                                TimerCallback /*callback*/) {
    return Error::kNoSupport;
  }
  virtual Status cancel_timer(int /*id*/) { return Error::kNoSupport; }
};

}  // namespace papirepro::papi
