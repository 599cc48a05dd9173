// Substrate over the Linux perf_event interface — the kernel counter
// API that eventually absorbed the out-of-tree patches the paper
// describes ("it is encouraging to see that the required kernel
// modifications are being incorporated into the standard release of some
// operating systems").  This is the one substrate that measures the
// *real* host CPU.
//
// Scope: counting mode only (no overflow/signal profiling), one fd per
// event, kernel-side multiplexing with TIME_ENABLED/TIME_RUNNING
// scaling over the run since the last reset — the same
// estimate-from-duty-cycle idea as core/multiplex, done by the
// scheduler.  Hardware events require perf_event_paranoid
// permissions; software events (task-clock, page-faults, context
// switches) work nearly everywhere, so the substrate degrades exactly
// the way PAPI did on unpatched kernels: present, honest about what it
// cannot count.
//
// Each PerfCounterContext owns its own fds, opened with pid=0 (calling
// thread) — so per-thread contexts genuinely count per-thread, with no
// shared state at all between contexts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "substrate/host_substrate.h"
#include "substrate/table_substrate.h"

namespace papirepro::papi {

class PerfEventSubstrate;

/// One fd's enabled and running times, as read(2) returns them with
/// PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING.
/// The kernel never resets them: PERF_EVENT_IOC_RESET zeroes only the
/// count.
struct PerfTimes {
  std::uint64_t enabled = 0;
  std::uint64_t running = 0;
};

/// Estimates the full count from `value`, counted between the times
/// `since` and `now`: scaled by that interval's duty cycle (kernel
/// multiplexing), and returned as is when the event was on a counter
/// throughout the interval or never.
std::uint64_t perf_scaled_count(std::uint64_t value, PerfTimes since,
                                PerfTimes now);

class PerfCounterContext final : public CounterContext {
 public:
  explicit PerfCounterContext(const PerfEventSubstrate& substrate)
      : substrate_(substrate) {}
  ~PerfCounterContext() override;

  Status program(std::span<const pmu::NativeEventCode> events,
                 std::span<const std::uint32_t> assignment) override;
  Status start() override;
  Status stop() override;
  /// Values scaled by time_enabled/time_running since the last start()
  /// or reset (kernel multiplexing).
  Status read(std::span<std::uint64_t> out) override;
  /// Stopped: one PERF_EVENT_IOC_RESET per fd.  Running: one read(2)
  /// per fd, which moves each fd's software base to its current count
  /// and times.
  Status reset_counts() override;
  /// One read(2) per fd: each reading is both the value's end and the
  /// fd's new base.  Every fd is read before any base moves, so a
  /// failed read zeroes nothing.
  Status read_and_reset(std::span<std::uint64_t> out) override;
  Status set_overflow(std::uint32_t, std::uint64_t, OverflowCallback,
                      OverflowDeliveryMode) override {
    return Error::kNoSupport;
  }
  Status clear_overflow(std::uint32_t) override {
    return Error::kNoSupport;
  }
  bool running() const noexcept override { return running_; }
  std::uint64_t cycles() const override;

 private:
  /// One opened event, and its count and times when it was last reset.
  /// A reset while running moves this software base instead of making
  /// PERF_EVENT_IOC_RESET, so it costs one read(2), and a read reports
  /// the count since the base.  An EventSet restart keeps the fds, so a
  /// read must scale by this run's duty cycle, not by the one over the
  /// fd's lifetime.
  struct Fd {
    int fd = -1;
    std::uint64_t count_base = 0;
    PerfTimes base;
  };

  void close_all();

  const PerfEventSubstrate& substrate_;
  bool running_ = false;
  std::vector<Fd> fds_;
};

/// The perf events and presets are one flat table (the kernel schedules
/// events onto counters itself, and multiplexes on conflict); timers and
/// memory info are the host's.
class PerfEventSubstrate final : public TableSubstrate {
 public:
  PerfEventSubstrate();

  /// False when the kernel refuses even software events (no perf at
  /// all — e.g. seccomp'd container); everything then returns kSystem.
  bool available() const noexcept { return available_; }
  /// True when hardware events (cycles, instructions) are permitted.
  bool hardware_available() const noexcept { return hw_available_; }

  std::string_view name() const noexcept override { return "perf_event"; }

  Result<std::unique_ptr<CounterContext>> create_context() override;

  std::uint64_t real_usec() const override { return host_.real_usec(); }
  std::uint64_t real_cycles() const override { return host_.real_cycles(); }
  std::uint64_t virt_usec() const override { return host_.virt_usec(); }
  Result<MemoryInfo> memory_info() const override {
    return host_.memory_info();
  }

  static constexpr std::uint32_t kMaxEvents = 16;

 private:
  HostSubstrate host_;
  bool available_ = false;
  bool hw_available_ = false;
};

}  // namespace papirepro::papi
