// Substrate implementation for the four simulated platforms.  Counter
// programming lives in SimCounterContext objects, each owning a private
// PmuModel attached to one sim::Machine — so N machines (one per
// simulated "rank") can be driven from N threads concurrently, each with
// its own running EventSet.  The context charges the platform's
// system-call cost model on every counter access (the source of the
// "up to 30 %" direct-counting overhead), provides the cycle-timer
// service the multiplexing layer needs, and — on sim-alpha — services
// estimation-mode events from a ProfileMe sampling engine (the DADD
// behaviour: counts estimated from samples at 1-2 % overhead).
//
// Thread model: the substrate is constructed over a *primary* machine
// (the single-rank case).  A thread driving its own machine calls
// bind_thread_machine() first; create_context() then binds the calling
// thread's machine, falling back to the primary.  Each machine must only
// ever be touched by the thread that runs it.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pmu/pmu.h"
#include "pmu/sampling.h"
#include "substrate/substrate.h"
#include "substrate/thread_binding.h"

namespace papirepro::papi {

struct SimSubstrateOptions {
  /// Mean instruction gap between ProfileMe samples.
  std::uint64_t sample_period = 512;
  /// When false, counter accesses are free — used by experiments that
  /// need overhead-less reference counts.
  bool charge_costs = true;
};

/// Memory info of a simulated node: 1 GiB, with resident bytes the pages
/// `machine` ever touched.
MemoryInfo machine_memory_info(const sim::Machine& machine);

class SimSubstrate;

/// One programmable counter file over one simulated machine.
class SimCounterContext final : public CounterContext {
 public:
  SimCounterContext(SimSubstrate& substrate, sim::Machine& machine);
  ~SimCounterContext() override;

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

  std::uint64_t cycles() const override { return machine_.cycles(); }
  /// Everything charge() billed to the bound machine — counter access
  /// costs, overflow delivery, and the ProfileMe sampling engine all
  /// accumulate there, so an EventSet can attribute its own overhead.
  std::uint64_t overhead_cycles() const noexcept override {
    return machine_.overhead_cycles();
  }
  Result<int> add_timer(std::uint64_t period_cycles,
                        TimerCallback callback) override;
  Status cancel_timer(int id) override;

  /// Sample buffer access for tools (DCPI-style precise profiling);
  /// nullptr until estimation events are programmed and started.
  const pmu::ProfileMeEngine* sampling_engine() const noexcept {
    return engine_.get();
  }
  sim::Machine& machine() noexcept { return machine_; }
  const pmu::PmuModel& pmu() const noexcept { return pmu_; }

 private:
  void charge(std::uint64_t cycles, std::uint32_t pollute_lines = 0);

  SimSubstrate& substrate_;
  sim::Machine& machine_;
  const pmu::PlatformDescription& platform_;
  /// options().charge_costs, latched at construction (options are
  /// immutable): charge() is on every counter access, and chasing
  /// substrate_ -> options_ per read costs more than the charge check.
  const bool charge_costs_;
  pmu::PmuModel pmu_;

  // Programming state.
  std::vector<pmu::NativeEventCode> events_;
  std::vector<std::uint32_t> assignment_;
  /// Per sampled slot: (tracked signal index, multiplier) terms.
  struct SampledTermList {
    std::vector<std::pair<std::size_t, std::uint32_t>> terms;
  };
  std::vector<SampledTermList> sampled_terms_;
  std::unique_ptr<pmu::ProfileMeEngine> engine_;
  bool running_ = false;
  std::uint32_t domain_mask_ = domain::kAll;

  /// program() scratch, reused across calls: a multiplexed EventSet
  /// reprograms this context on every slice rotation, so the partition
  /// buffers must not be reallocated per call.
  std::vector<pmu::NativeEventCode> scratch_phys_events_;
  std::vector<std::uint32_t> scratch_phys_counters_;
  std::vector<std::size_t> scratch_sampled_indices_;
  std::vector<sim::SimEvent> scratch_tracked_;
};

class SimSubstrate final : public Substrate {
 public:
  /// Assignment sentinel: events serviced by sampling estimation carry
  /// kSampledBase + tracked-slot instead of a physical counter index.
  static constexpr std::uint32_t kSampledBase = 0x80000000u;

  SimSubstrate(sim::Machine& machine,
               const pmu::PlatformDescription& platform,
               const SimSubstrateOptions& options = {});
  ~SimSubstrate() override;

  // --- identity ---
  std::string_view name() const noexcept override {
    return platform_.name;
  }
  std::uint32_t num_counters() const noexcept override {
    return platform_.num_counters;
  }
  const pmu::PlatformDescription* platform() const noexcept override {
    return &platform_;
  }

  // --- context factory / thread-machine binding ---
  Result<std::unique_ptr<CounterContext>> create_context() override;
  /// Binds `machine` as the calling thread's counter domain: contexts
  /// created by this thread attach to it.  A thread may rebind.
  void bind_thread_machine(sim::Machine& machine) { machines_.bind(&machine); }
  void unbind_thread_machine() { machines_.unbind(); }
  /// The machine create_context() would bind for the calling thread.
  sim::Machine& machine_for_current_thread() const {
    return *machines_.current();
  }

  // --- event namespace ---
  Result<PresetMapping> preset_mapping(Preset preset) const override;
  Result<pmu::NativeEventCode> native_by_name(
      std::string_view event_name) const override;
  Result<std::string> native_name(
      pmu::NativeEventCode code) const override;

  // --- allocation ---
  Result<AllocationInstance> translate_allocation(
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities) const override;
  Result<std::vector<std::uint32_t>> allocate(
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities) const override;
  std::uint64_t allocation_generation() const noexcept override {
    return allocation_generation_.load(std::memory_order_relaxed);
  }

  // --- estimation (sim-alpha) ---
  bool supports_estimation() const noexcept override {
    return platform_.sampling.has_profileme;
  }
  Status set_estimation(bool enabled) override;
  bool estimation_enabled() const noexcept {
    return estimation_.load(std::memory_order_relaxed);
  }
  /// Sampling engine of the calling thread's most recent live context
  /// (DCPI-style tools); nullptr when none has estimation events.
  const pmu::ProfileMeEngine* sampling_engine() const noexcept;

  // --- timers (primary machine's clock) ---
  std::uint64_t real_usec() const override { return machine().microseconds(); }
  std::uint64_t real_cycles() const override { return machine().cycles(); }
  std::uint64_t virt_usec() const override { return machine().microseconds(); }

  bool supports_multiplex() const noexcept override { return true; }
  Result<int> add_timer(std::uint64_t period_cycles,
                        TimerCallback callback) override;
  Status cancel_timer(int id) override;

  // --- memory ---
  Result<MemoryInfo> memory_info() const override {
    return machine_memory_info(machine());
  }

  sim::Machine& machine() const noexcept { return *machines_.primary(); }
  const SimSubstrateOptions& options() const noexcept { return options_; }
  const pmu::PlatformDescription& platform_description() const noexcept {
    return platform_;
  }

 private:
  friend class SimCounterContext;
  void register_context(SimCounterContext* context);
  void unregister_context(SimCounterContext* context);

  ThreadBinding<sim::Machine*> machines_;
  const pmu::PlatformDescription& platform_;
  SimSubstrateOptions options_;
  std::atomic<bool> estimation_{false};
  /// Bumped by set_estimation(): allocation outcomes depend on the mode.
  std::atomic<std::uint64_t> allocation_generation_{0};

  mutable std::mutex contexts_mutex_;
  /// Live contexts per thread, in creation order (newest last).
  std::unordered_map<std::thread::id, std::vector<SimCounterContext*>>
      live_contexts_;
};

}  // namespace papirepro::papi
