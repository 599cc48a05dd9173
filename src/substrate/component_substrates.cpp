#include "substrate/component_substrates.h"

#include "substrate/sim_substrate.h"

namespace papirepro::papi {

// --- DeltaCounterContext ------------------------------------------------

Status DeltaCounterContext::program(
    std::span<const pmu::NativeEventCode> events,
    std::span<const std::uint32_t> assignment) {
  if (running_) return Error::kIsRunning;
  if (events.size() != assignment.size()) return Error::kInvalid;
  if (events.size() > num_counters_) return Error::kNoCounters;
  for (const pmu::NativeEventCode code : events) {
    if (!valid_code(code)) return Error::kNoEvent;
  }
  events_.assign(events.begin(), events.end());
  base_.assign(events.size(), 0);
  frozen_.assign(events.size(), 0);
  return {};
}

Status DeltaCounterContext::start() {
  if (running_) return Error::kIsRunning;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    base_[i] = sample(events_[i]);
  }
  running_ = true;
  return {};
}

Status DeltaCounterContext::stop() {
  if (!running_) return Error::kNotRunning;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    frozen_[i] = sample(events_[i]) - base_[i];
  }
  running_ = false;
  return {};
}

Status DeltaCounterContext::read(std::span<std::uint64_t> out) {
  if (out.size() < events_.size()) return Error::kInvalid;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out[i] = running_ ? sample(events_[i]) - base_[i] : frozen_[i];
  }
  return {};
}

Status DeltaCounterContext::reset_counts() {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (running_) base_[i] = sample(events_[i]);
    frozen_[i] = 0;
  }
  return {};
}

Status DeltaCounterContext::read_and_reset(std::span<std::uint64_t> out) {
  if (out.size() < events_.size()) return Error::kInvalid;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (running_) {
      const std::uint64_t now = sample(events_[i]);
      out[i] = now - base_[i];
      base_[i] = now;
    } else {
      out[i] = frozen_[i];
    }
    frozen_[i] = 0;
  }
  return {};
}

Status DeltaCounterContext::set_overflow(std::uint32_t /*event_index*/,
                                         std::uint64_t /*threshold*/,
                                         OverflowCallback /*callback*/,
                                         OverflowDeliveryMode /*mode*/) {
  return Error::kNoSupport;  // no interrupt line on these units
}

Status DeltaCounterContext::clear_overflow(std::uint32_t /*event_index*/) {
  return {};
}

Status DeltaCounterContext::set_domain(std::uint32_t domain_mask) {
  // Off-core units count regardless of privilege mode; accept any valid
  // mask (the counts simply do not partition by domain).
  return valid_domain(domain_mask) ? Status() : Status(Error::kInvalid);
}

namespace {

// --- mem component ------------------------------------------------------

constexpr TableEvent kMemEvents[] = {
    {mem_events::kBandwidthRd, "BANDWIDTH_RD",
     "Bytes read from memory (L2 fills x line size)"},
    {mem_events::kL2Traffic, "L2_TRAFFIC",
     "Bytes transferred between L1 and L2 (L1 fills x line size)"},
    {mem_events::kL2Accesses, "L2_ACCESSES", "L2 cache accesses"},
    {mem_events::kL2Misses, "L2_MISSES", "L2 cache misses"},
    {mem_events::kPagesTouched, "PAGES_TOUCHED",
     "Distinct memory pages ever touched"},
    {mem_events::kResidentBytes, "RESIDENT_BYTES",
     "Resident bytes (pages touched x page size)"},
};

constexpr TablePreset kMemPresets[] = {
    {Preset::kL2Tca, mem_events::kL2Accesses},
    {Preset::kL2Tcm, mem_events::kL2Misses},
};

constexpr TableEvent kNetEvents[] = {
    {net_events::kMsgSent, "MSG_SENT", "Messages sent by this rank"},
    {net_events::kMsgRecv, "MSG_RECV", "Messages received by this rank"},
    {net_events::kWordsSent, "WORDS_SENT", "Payload words sent"},
    {net_events::kWordsRecv, "WORDS_RECV", "Payload words received"},
    {net_events::kBytesSent, "BYTES_SENT", "Payload bytes sent"},
    {net_events::kWaitRetries, "WAIT_RETRIES",
     "Receive busy-wait probe retries"},
};

constexpr TablePreset kNetPresets[] = {
    {Preset::kMsgSnt, net_events::kMsgSent},
    {Preset::kMsgRcv, net_events::kMsgRecv},
};

/// Both components expose four counters.
constexpr std::uint32_t kComponentCounters = 4;

class MemBandwidthContext final : public DeltaCounterContext {
 public:
  MemBandwidthContext(const TableSubstrate& table, sim::Machine& machine)
      : DeltaCounterContext(table), machine_(machine) {}

  std::uint64_t cycles() const override { return machine_.cycles(); }

 protected:
  std::uint64_t sample(pmu::NativeEventCode code) const override {
    switch (code) {
      case mem_events::kBandwidthRd:
        return machine_.l2().stats().misses *
               machine_.l2().config().line_bytes;
      case mem_events::kL2Traffic:
        return (machine_.l1i().stats().misses +
                machine_.l1d().stats().misses) *
               machine_.l1d().config().line_bytes;
      case mem_events::kL2Accesses:
        return machine_.l2().stats().accesses;
      case mem_events::kL2Misses:
        return machine_.l2().stats().misses;
      case mem_events::kPagesTouched:
        return machine_.memory().pages_touched();
      case mem_events::kResidentBytes:
        return machine_.memory().bytes_touched();
      default:
        return 0;
    }
  }

 private:
  sim::Machine& machine_;
};

class NetworkContext final : public DeltaCounterContext {
 public:
  NetworkContext(const TableSubstrate& table, const sim::CommWorld& world,
                 std::size_t rank)
      : DeltaCounterContext(table), world_(world), rank_(rank) {}

  std::uint64_t cycles() const override {
    return world_.rank_machine(rank_).cycles();
  }

 protected:
  std::uint64_t sample(pmu::NativeEventCode code) const override {
    const sim::CommWorld::RankStats& stats = world_.stats(rank_);
    switch (code) {
      case net_events::kMsgSent:
        return stats.sends;
      case net_events::kMsgRecv:
        return stats.recvs;
      case net_events::kWordsSent:
        return stats.words_sent;
      case net_events::kWordsRecv:
        return stats.words_recv;
      case net_events::kBytesSent:
        return stats.words_sent * 8;
      case net_events::kWaitRetries:
        return stats.wait_retries;
      default:
        return 0;
    }
  }

 private:
  const sim::CommWorld& world_;
  std::size_t rank_;
};

}  // namespace

// --- MemBandwidthSubstrate ----------------------------------------------

MemBandwidthSubstrate::MemBandwidthSubstrate(sim::Machine& primary)
    : TableSubstrate(kMemEvents, kMemPresets, kComponentCounters),
      machines_(&primary) {}

Result<std::unique_ptr<CounterContext>>
MemBandwidthSubstrate::create_context() {
  return std::unique_ptr<CounterContext>(std::make_unique<
      MemBandwidthContext>(*this, machine_for_current_thread()));
}

Result<MemoryInfo> MemBandwidthSubstrate::memory_info() const {
  return machine_memory_info(machine_for_current_thread());
}

// --- NetworkSubstrate ---------------------------------------------------

NetworkSubstrate::NetworkSubstrate(sim::CommWorld& world)
    : TableSubstrate(kNetEvents, kNetPresets, kComponentCounters),
      world_(world) {}

Result<std::unique_ptr<CounterContext>>
NetworkSubstrate::create_context() {
  return std::unique_ptr<CounterContext>(std::make_unique<NetworkContext>(
      *this, world_, rank_for_current_thread()));
}

}  // namespace papirepro::papi
