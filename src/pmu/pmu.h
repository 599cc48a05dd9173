// The performance monitoring unit model: a small file of physical
// counters programmed with native events, incremented from the machine's
// architectural signal bus, with threshold-overflow interrupts delivered
// through the platform's skid model and (on EAR platforms) precise
// event-address capture.  This is the "hardware" the substrate layer
// drives; PAPI never touches it directly.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "pmu/platform.h"
#include "sim/event.h"
#include "sim/machine.h"

namespace papirepro::pmu {

/// Delivered to the overflow handler.  `pc_precise` is only meaningful
/// when `has_precise` is set (EAR platforms, EAR-capable events); all
/// handlers also receive the skidded delivery PC, which is what a plain
/// interrupt-driven profiler would see.
struct OverflowInfo {
  std::uint32_t counter = 0;
  std::uint64_t pc_skidded = 0;
  std::uint64_t pc_precise = 0;
  std::uint64_t addr = 0;
  bool has_precise = false;
  std::uint64_t retired = 0;
  std::uint64_t cycles = 0;
};

class PmuModel final : public sim::EventListener {
 public:
  using OverflowHandler = std::function<void(const OverflowInfo&)>;

  PmuModel(const PlatformDescription& platform, sim::Machine& machine);
  ~PmuModel() override;

  PmuModel(const PmuModel&) = delete;
  PmuModel& operator=(const PmuModel&) = delete;

  const PlatformDescription& platform() const noexcept { return platform_; }

  /// Programs the counter file: `assignment[i]` is the physical counter
  /// for `events[i]`.  Validates counter masks (mask platforms) or group
  /// membership (group platforms).  Counters are left stopped and zero.
  Status program(std::span<const NativeEventCode> events,
                 std::span<const std::uint32_t> assignment);

  /// Removes all programmed events, overflow settings, and counts.
  void clear();

  Status start();
  Status stop();
  bool running() const noexcept { return running_; }

  /// Value of physical counter `idx`.  Inline: this sits under every
  /// substrate counter read, and a cross-TU call (plus Result
  /// materialization) would be the single largest cost on that path.
  Result<std::uint64_t> read(std::uint32_t idx) const {
    if (idx >= counters_.size()) return Error::kInvalid;
    return counters_[idx].value;
  }
  void reset_counts();
  /// reset_counts() for physical counter `idx` alone: zeroes it and
  /// restarts its overflow period, if armed.  Inline like read(): the
  /// substrate's accum path zeroes each counter as it reads it.
  void reset_count(std::uint32_t idx) {
    if (idx >= counters_.size()) return;
    Counter& c = counters_[idx];
    c.value = 0;
    if (c.overflow_threshold > 0) c.next_overflow_at = c.overflow_threshold;
  }

  /// Arms threshold overflow on physical counter `idx`: `handler` runs
  /// once per `threshold` increments, after the platform skid.
  Status set_overflow(std::uint32_t idx, std::uint64_t threshold,
                      OverflowHandler handler);
  Status clear_overflow(std::uint32_t idx);

  /// Counting domain for physical counter `idx`: bit 0 = user context,
  /// bit 1 = kernel/measurement context (see core/options.h).  Default
  /// is both.
  Status set_domain(std::uint32_t idx, std::uint32_t domain_mask);

  // sim::EventListener; the machine calls it only while the model runs.
  void on_event(sim::SimEvent event, std::uint64_t weight,
                const sim::EventContext& ctx) override;

 private:
  struct Counter {
    NativeEventCode event = kNoNativeEvent;
    std::uint32_t domain_mask = 0x3;  ///< user | kernel
    std::uint64_t value = 0;
    std::uint64_t overflow_threshold = 0;  ///< 0 = overflow disarmed
    std::uint64_t next_overflow_at = 0;
    OverflowHandler handler;
    bool ear_capable = false;
    std::uint64_t ear_pc = 0;
    std::uint64_t ear_addr = 0;
    bool ear_valid = false;
  };
  struct DispatchEntry {
    std::uint32_t counter;
    std::uint32_t multiplier;
  };

  void rebuild_dispatch();
  /// The machine calls on_event() for the dispatched signals while the
  /// model runs and for none while it is stopped.
  void update_wanted() noexcept {
    set_wanted(running_ ? dispatched_ : 0);
  }

  const PlatformDescription& platform_;
  sim::Machine& machine_;
  std::vector<Counter> counters_;
  std::array<std::vector<DispatchEntry>, sim::kNumSimEvents> dispatch_;
  sim::SimEventMask dispatched_ = 0;  ///< signals with a dispatch entry
  bool running_ = false;
};

/// True if `signal` is one the sim-ia64 Event Address Registers capture.
bool is_ear_signal(sim::SimEvent signal) noexcept;

}  // namespace papirepro::pmu
