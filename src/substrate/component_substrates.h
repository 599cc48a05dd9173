// Non-CPU measurement components: the PAPI-C motivation was exactly
// that "the substrate" stopped being one thing — memory controllers,
// network adapters, and other off-core units expose their own counter
// files with their own budgets and namespaces.  This module provides
// two simulated ones, registered as components next to the CPU core
// substrate:
//
//   * MemBandwidthSubstrate ("mem::") — memory/uncore traffic counters
//     derived from the simulated cache hierarchy and page map (read
//     bandwidth = L2 fills x line size, L2 traffic, resident bytes).
//   * NetworkSubstrate ("net::") — NIC-style message counters backed by
//     a sim::CommWorld's per-rank statistics (messages/words/bytes
//     sent and received, receive-wait retries).
//
// Both are *free-running* counter files: the sources (cache stats, rank
// stats) increment monotonically for the life of the machine, so the
// contexts latch a base sample at start() and report deltas — the same
// discipline a real uncore PMU driver uses over its MSRs.  Counter
// access is free (no syscall cost model): these units are polled out of
// band, not via the instrumented process.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/comm.h"
#include "sim/machine.h"
#include "substrate/table_substrate.h"
#include "substrate/thread_binding.h"

namespace papirepro::papi {

/// Native event codes in the "mem" component namespace.  Codes are
/// small integers — components own independent namespaces, so they may
/// (and do) collide with CPU native codes; EventSet keys natives on
/// (component, code).
namespace mem_events {
inline constexpr pmu::NativeEventCode kBandwidthRd = 0x01;
inline constexpr pmu::NativeEventCode kL2Traffic = 0x02;
inline constexpr pmu::NativeEventCode kL2Accesses = 0x03;
inline constexpr pmu::NativeEventCode kL2Misses = 0x04;
inline constexpr pmu::NativeEventCode kPagesTouched = 0x05;
inline constexpr pmu::NativeEventCode kResidentBytes = 0x06;
}  // namespace mem_events

/// Native event codes in the "net" component namespace.
namespace net_events {
inline constexpr pmu::NativeEventCode kMsgSent = 0x01;
inline constexpr pmu::NativeEventCode kMsgRecv = 0x02;
inline constexpr pmu::NativeEventCode kWordsSent = 0x03;
inline constexpr pmu::NativeEventCode kWordsRecv = 0x04;
inline constexpr pmu::NativeEventCode kBytesSent = 0x05;
inline constexpr pmu::NativeEventCode kWaitRetries = 0x06;
}  // namespace net_events

/// Shared shape of both component counter files: program a list of
/// native codes from the substrate's table, latch base samples at
/// start(), report monotonic deltas on read(), freeze on stop().  Derived
/// classes supply the source sample for one code.  Overflow interrupts
/// are not supported (these units have no interrupt line — the
/// wrong-component error path the portable layer must surface as
/// kNoSupport).
class DeltaCounterContext : public CounterContext {
 public:
  explicit DeltaCounterContext(const TableSubstrate& table)
      : table_(table), num_counters_(table.num_counters()) {}

  Status program(std::span<const pmu::NativeEventCode> events,
                 std::span<const std::uint32_t> assignment) override;
  Status start() override;
  Status stop() override;
  Status read(std::span<std::uint64_t> out) override;
  Status reset_counts() override;
  Status set_overflow(std::uint32_t event_index, std::uint64_t threshold,
                      OverflowCallback callback,
                      OverflowDeliveryMode mode =
                          OverflowDeliveryMode::kSynchronous) override;
  Status clear_overflow(std::uint32_t event_index) override;
  Status set_domain(std::uint32_t domain_mask) override;
  bool running() const noexcept override { return running_; }

 protected:
  /// Current value of the free-running source counter behind `code`.
  virtual std::uint64_t sample(pmu::NativeEventCode code) const = 0;

 private:
  bool valid_code(pmu::NativeEventCode code) const noexcept {
    return table_.has_event(code);
  }

  const TableSubstrate& table_;
  // Reused across program() calls so reprogramming never reallocates.
  std::vector<pmu::NativeEventCode> events_;
  std::vector<std::uint64_t> base_;
  std::vector<std::uint64_t> frozen_;
  // The two small members share one word, so the context carries no
  // padding (a mem context is 104 bytes on LP64).
  std::uint32_t num_counters_;
  bool running_ = false;
};

/// Memory/uncore bandwidth component over one simulated machine's cache
/// hierarchy and page map.  Thread model mirrors SimSubstrate: threads
/// driving their own machine bind it first; contexts attach to the
/// calling thread's machine, falling back to the primary.
class MemBandwidthSubstrate final : public TableSubstrate {
 public:
  explicit MemBandwidthSubstrate(sim::Machine& primary);

  std::string_view name() const noexcept override { return "sim-mem"; }

  Result<std::unique_ptr<CounterContext>> create_context() override;
  void bind_thread_machine(sim::Machine& machine) { machines_.bind(&machine); }
  void unbind_thread_machine() { machines_.unbind(); }
  sim::Machine& machine_for_current_thread() const {
    return *machines_.current();
  }

  std::uint64_t real_usec() const override { return primary().microseconds(); }
  std::uint64_t real_cycles() const override { return primary().cycles(); }
  std::uint64_t virt_usec() const override { return primary().microseconds(); }

  Result<MemoryInfo> memory_info() const override;

 private:
  const sim::Machine& primary() const noexcept { return *machines_.primary(); }

  ThreadBinding<sim::Machine*> machines_;
};

/// Network component over a sim::CommWorld: per-rank message counters
/// as a NIC-style counter file.  A thread driving one rank binds its
/// rank id first; contexts attach to the calling thread's rank, falling
/// back to rank 0.  RankStats entries are written only by the owning
/// rank's thread, so a context must be used on the thread bound to its
/// rank (the same single-writer contract as sim::Machine).
class NetworkSubstrate final : public TableSubstrate {
 public:
  explicit NetworkSubstrate(sim::CommWorld& world);

  std::string_view name() const noexcept override { return "sim-net"; }

  Result<std::unique_ptr<CounterContext>> create_context() override;
  void bind_thread_rank(std::size_t rank) { ranks_.bind(rank); }
  void unbind_thread_rank() { ranks_.unbind(); }
  std::size_t rank_for_current_thread() const { return ranks_.current(); }

  std::uint64_t real_usec() const override {
    return world_.rank_machine(0).microseconds();
  }
  std::uint64_t real_cycles() const override {
    return world_.rank_machine(0).cycles();
  }
  std::uint64_t virt_usec() const override {
    return world_.rank_machine(0).microseconds();
  }

  Result<MemoryInfo> memory_info() const override {
    return Error::kNoSupport;
  }

 private:
  sim::CommWorld& world_;
  ThreadBinding<std::size_t> ranks_{0};
};

}  // namespace papirepro::papi
