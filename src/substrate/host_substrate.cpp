#include "substrate/host_substrate.h"

#include <ctime>
#include <fstream>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace papirepro::papi {
namespace {

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t tsc() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  // No cycle counter register: nanoseconds are the best monotonic
  // fine-grain clock available.
  return clock_ns(CLOCK_MONOTONIC);
#endif
}

/// Parses "key:   value kB" lines from /proc files.
std::uint64_t proc_kb(const char* path, std::string_view key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t pos = line.find_first_of("0123456789");
      if (pos == std::string::npos) return 0;
      return std::stoull(line.substr(pos));
    }
  }
  return 0;
}

}  // namespace

std::uint64_t NullCounterContext::cycles() const { return tsc(); }

HostSubstrate::HostSubstrate() : epoch_ns_(clock_ns(CLOCK_MONOTONIC)) {}

Result<std::unique_ptr<CounterContext>> HostSubstrate::create_context() {
  return std::unique_ptr<CounterContext>(new NullCounterContext());
}

Result<PresetMapping> HostSubstrate::preset_mapping(Preset) const {
  return Error::kNoEvent;
}

Result<pmu::NativeEventCode> HostSubstrate::native_by_name(
    std::string_view) const {
  return Error::kNoEvent;
}

Result<std::string> HostSubstrate::native_name(pmu::NativeEventCode) const {
  return Error::kNoEvent;
}

Result<AllocationInstance> HostSubstrate::translate_allocation(
    std::span<const pmu::NativeEventCode>, std::span<const int>) const {
  return Error::kNoCounters;
}

std::uint64_t HostSubstrate::real_usec() const {
  return (clock_ns(CLOCK_MONOTONIC) - epoch_ns_) / 1000;
}

std::uint64_t HostSubstrate::real_cycles() const { return tsc(); }

std::uint64_t HostSubstrate::virt_usec() const {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID) / 1000;
}

Result<MemoryInfo> HostSubstrate::memory_info() const {
  MemoryInfo info;
  info.page_size_bytes =
      static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  info.total_bytes = proc_kb("/proc/meminfo", "MemTotal") * 1024;
  info.available_bytes = proc_kb("/proc/meminfo", "MemAvailable") * 1024;
  info.process_resident_bytes = proc_kb("/proc/self/status", "VmRSS") * 1024;
  info.process_peak_bytes = proc_kb("/proc/self/status", "VmHWM") * 1024;

  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    info.page_faults = static_cast<std::uint64_t>(usage.ru_minflt +
                                                  usage.ru_majflt);
    if (info.process_peak_bytes == 0) {
      info.process_peak_bytes =
          static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
    }
  }
  return info;
}

}  // namespace papirepro::papi
