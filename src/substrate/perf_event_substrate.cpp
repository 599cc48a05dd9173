#include "substrate/perf_event_substrate.h"

#include <cerrno>
#include <cstring>

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace papirepro::papi {
namespace {

/// Native event codes pack (perf type << 16) | perf config.
constexpr pmu::NativeEventCode pack(std::uint32_t type,
                                    std::uint32_t config) {
  return (type << 16) | config;
}
constexpr std::uint32_t type_of(pmu::NativeEventCode code) {
  return code >> 16;
}
constexpr std::uint32_t config_of(pmu::NativeEventCode code) {
  return code & 0xffff;
}

constexpr pmu::NativeEventCode hw(std::uint32_t config) {
  return pack(PERF_TYPE_HARDWARE, config);
}
constexpr pmu::NativeEventCode sw(std::uint32_t config) {
  return pack(PERF_TYPE_SOFTWARE, config);
}

constexpr TableEvent kPerfEvents[] = {
    {hw(PERF_COUNT_HW_CPU_CYCLES), "PERF_COUNT_HW_CPU_CYCLES"},
    {hw(PERF_COUNT_HW_INSTRUCTIONS), "PERF_COUNT_HW_INSTRUCTIONS"},
    {hw(PERF_COUNT_HW_CACHE_REFERENCES), "PERF_COUNT_HW_CACHE_REFERENCES"},
    {hw(PERF_COUNT_HW_CACHE_MISSES), "PERF_COUNT_HW_CACHE_MISSES"},
    {hw(PERF_COUNT_HW_BRANCH_INSTRUCTIONS),
     "PERF_COUNT_HW_BRANCH_INSTRUCTIONS"},
    {hw(PERF_COUNT_HW_BRANCH_MISSES), "PERF_COUNT_HW_BRANCH_MISSES"},
    {sw(PERF_COUNT_SW_TASK_CLOCK), "PERF_COUNT_SW_TASK_CLOCK"},
    {sw(PERF_COUNT_SW_PAGE_FAULTS), "PERF_COUNT_SW_PAGE_FAULTS"},
    {sw(PERF_COUNT_SW_CONTEXT_SWITCHES), "PERF_COUNT_SW_CONTEXT_SWITCHES"},
    {sw(PERF_COUNT_SW_CPU_MIGRATIONS), "PERF_COUNT_SW_CPU_MIGRATIONS"},
    {sw(PERF_COUNT_SW_PAGE_FAULTS_MIN), "PERF_COUNT_SW_PAGE_FAULTS_MIN"},
    {sw(PERF_COUNT_SW_PAGE_FAULTS_MAJ), "PERF_COUNT_SW_PAGE_FAULTS_MAJ"},
};

constexpr TablePreset kPerfPresets[] = {
    {Preset::kTotCyc, hw(PERF_COUNT_HW_CPU_CYCLES)},
    {Preset::kTotIns, hw(PERF_COUNT_HW_INSTRUCTIONS)},
    {Preset::kL2Tca, hw(PERF_COUNT_HW_CACHE_REFERENCES)},
    {Preset::kL2Tcm, hw(PERF_COUNT_HW_CACHE_MISSES)},
    {Preset::kBrIns, hw(PERF_COUNT_HW_BRANCH_INSTRUCTIONS)},
    {Preset::kBrMsp, hw(PERF_COUNT_HW_BRANCH_MISSES)},
    // Correctly-predicted branches: branches minus mispredictions.
    {Preset::kBrPrc, hw(PERF_COUNT_HW_BRANCH_INSTRUCTIONS),
     hw(PERF_COUNT_HW_BRANCH_MISSES), -1},
};

int open_event(pmu::NativeEventCode code, bool disabled) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = type_of(code);
  attr.size = sizeof(attr);
  attr.config = config_of(code);
  attr.disabled = disabled ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  // pid=0, cpu=-1: count the calling thread on any CPU — the context is
  // inherently bound to the thread that programs it.
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

}  // namespace

// ---------------------------------------------------------------------------
// PerfCounterContext
// ---------------------------------------------------------------------------

PerfCounterContext::~PerfCounterContext() { close_all(); }

void PerfCounterContext::close_all() {
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
  fds_.clear();
}

Status PerfCounterContext::program(
    std::span<const pmu::NativeEventCode> events,
    std::span<const std::uint32_t> assignment) {
  if (!substrate_.available()) return Error::kSystem;
  if (running_) return Error::kIsRunning;
  if (events.size() != assignment.size()) return Error::kInvalid;
  if (events.size() > PerfEventSubstrate::kMaxEvents) {
    return Error::kConflict;
  }

  close_all();
  fds_.reserve(events.size());
  for (const auto code : events) {
    const int fd = open_event(code, /*disabled=*/true);
    if (fd < 0) {
      const Status status = errno == EACCES || errno == EPERM
                                ? Error::kPermission
                                : Error::kNoCounters;
      close_all();
      return status;
    }
    fds_.push_back(fd);
  }
  return Error::kOk;
}

Status PerfCounterContext::start() {
  if (!substrate_.available()) return Error::kSystem;
  if (running_) return Error::kIsRunning;
  if (fds_.empty()) return Error::kInvalid;
  for (int fd : fds_) {
    if (ioctl(fd, PERF_EVENT_IOC_RESET, 0) != 0 ||
        ioctl(fd, PERF_EVENT_IOC_ENABLE, 0) != 0) {
      return Error::kSystem;
    }
  }
  running_ = true;
  return Error::kOk;
}

Status PerfCounterContext::stop() {
  if (!running_) return Error::kNotRunning;
  for (int fd : fds_) {
    (void)ioctl(fd, PERF_EVENT_IOC_DISABLE, 0);
  }
  running_ = false;
  return Error::kOk;
}

Status PerfCounterContext::read(std::span<std::uint64_t> out) {
  if (fds_.empty()) return Error::kInvalid;
  if (out.size() < fds_.size()) return Error::kInvalid;
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    struct {
      std::uint64_t value;
      std::uint64_t time_enabled;
      std::uint64_t time_running;
    } data{};
    if (::read(fds_[i], &data, sizeof(data)) != sizeof(data)) {
      return Error::kSystem;
    }
    // Kernel-side multiplexing: scale by the duty cycle, exactly the
    // estimation core/multiplex performs for the simulated substrates.
    std::uint64_t value = data.value;
    if (data.time_running > 0 && data.time_running < data.time_enabled) {
      value = static_cast<std::uint64_t>(
          static_cast<double>(value) *
          static_cast<double>(data.time_enabled) /
          static_cast<double>(data.time_running));
    }
    out[i] = value;
  }
  return Error::kOk;
}

Status PerfCounterContext::reset_counts() {
  for (int fd : fds_) {
    if (ioctl(fd, PERF_EVENT_IOC_RESET, 0) != 0) return Error::kSystem;
  }
  return Error::kOk;
}

std::uint64_t PerfCounterContext::cycles() const {
  return substrate_.real_cycles();
}

// ---------------------------------------------------------------------------
// PerfEventSubstrate
// ---------------------------------------------------------------------------

PerfEventSubstrate::PerfEventSubstrate()
    : TableSubstrate(kPerfEvents, kPerfPresets, kMaxEvents) {
  // Probe: software events tell us perf exists at all; a hardware event
  // tells us whether paranoid/capabilities permit real counters.
  int fd = open_event(sw(PERF_COUNT_SW_TASK_CLOCK), /*disabled=*/true);
  if (fd >= 0) {
    available_ = true;
    close(fd);
  }
  fd = open_event(hw(PERF_COUNT_HW_CPU_CYCLES), /*disabled=*/true);
  if (fd >= 0) {
    hw_available_ = true;
    close(fd);
  }
}

Result<std::unique_ptr<CounterContext>> PerfEventSubstrate::create_context() {
  return std::unique_ptr<CounterContext>(new PerfCounterContext(*this));
}

}  // namespace papirepro::papi
