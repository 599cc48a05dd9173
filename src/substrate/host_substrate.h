// Host substrate: runs on the real machine this library is compiled for.
// Counter access is unavailable (the 2003 Linux substrate needed a kernel
// patch; this container has none), so contexts created here fail every
// control call with Error::kNoCounters — but the portable timers and the
// PAPI 3 memory utilization extensions are fully functional, backed by
// the POSIX clocks, the TSC where available, getrusage, and /proc.  This
// mirrors how PAPI degraded gracefully on unpatched systems, and it is
// what the timer benchmarks (E10) measure real nanosecond overheads
// against.  The perf_event substrate takes its timers and memory info
// from here.
#pragma once

#include "substrate/substrate.h"

namespace papirepro::papi {

/// Context for counter-less substrates: every control call reports
/// kNoCounters, the clock is the host monotonic clock.
class NullCounterContext final : public CounterContext {
 public:
  Status program(std::span<const pmu::NativeEventCode>,
                 std::span<const std::uint32_t>) override {
    return Error::kNoCounters;
  }
  Status start() override { return Error::kNoCounters; }
  Status stop() override { return Error::kNoCounters; }
  Status read(std::span<std::uint64_t>) override {
    return Error::kNoCounters;
  }
  Status reset_counts() override { return Error::kNoCounters; }
  Status set_overflow(std::uint32_t, std::uint64_t, OverflowCallback,
                      OverflowDeliveryMode) override {
    return Error::kNoCounters;
  }
  Status clear_overflow(std::uint32_t) override {
    return Error::kNoCounters;
  }
  bool running() const noexcept override { return false; }
  std::uint64_t cycles() const override;
};

class HostSubstrate final : public Substrate {
 public:
  HostSubstrate();

  std::string_view name() const noexcept override { return "host"; }
  std::uint32_t num_counters() const noexcept override { return 0; }

  Result<std::unique_ptr<CounterContext>> create_context() override;

  Result<PresetMapping> preset_mapping(Preset preset) const override;
  Result<pmu::NativeEventCode> native_by_name(
      std::string_view event_name) const override;
  Result<std::string> native_name(
      pmu::NativeEventCode code) const override;

  Result<AllocationInstance> translate_allocation(
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities) const override;

  std::uint64_t real_usec() const override;
  std::uint64_t real_cycles() const override;
  std::uint64_t virt_usec() const override;

  Result<MemoryInfo> memory_info() const override;

 private:
  std::uint64_t epoch_ns_ = 0;
};

}  // namespace papirepro::papi
