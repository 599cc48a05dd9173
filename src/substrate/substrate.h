// The substrate interface: "The machine-dependent part of the
// implementation, called the substrate, is all that needs to be
// rewritten to port PAPI to a new architecture."  Everything above this
// interface (EventSets, multiplexing, overflow dispatch, profiling, the
// high-level calls) is portable; everything below it is one of the
// platform models (or the host).
//
// Since the per-thread CounterContext refactor the substrate is a
// *context factory* plus the stateless services: the event namespace,
// the allocation translation, the process-global timers, and memory
// utilization.  All counter programming state lives in CounterContext
// objects handed out by create_context() — one per thread (the Library's
// ThreadRegistry owns them), so concurrent threads never share mutable
// counter state.
//
// The allocation split (Section 5 / PAPI 3 plan) lives here too: the
// substrate translates its counter-constraint scheme into a pure
// bipartite AllocationInstance (translate_allocation), and the portable
// core solves it (core/allocator) — "the hardware-independent portion
// solving the graph matching problem and the hardware-dependent problem
// translating the counter scheme on a particular platform into the graph
// matching problem."
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/allocator.h"
#include "core/events.h"
#include "core/memory_info.h"
#include "core/options.h"
#include "pmu/platform.h"
#include "substrate/counter_context.h"

namespace papirepro::papi {

class TelemetryRegistry;

class Substrate {
 public:
  using OverflowCallback = CounterContext::OverflowCallback;
  using TimerCallback = CounterContext::TimerCallback;

  virtual ~Substrate() = default;

  /// Called once by the owning Library with its TelemetryRegistry, which
  /// outlives the substrate.  Substrates that observe library-relevant
  /// events (the fault-injecting decorator counts delivered faults)
  /// record them there; the default ignores the registry.
  virtual void bind_telemetry(TelemetryRegistry* /*telemetry*/) {}

  // --- identity ---
  virtual std::string_view name() const noexcept = 0;
  virtual std::uint32_t num_counters() const noexcept = 0;
  /// Platform description for simulated substrates, nullptr on host.
  virtual const pmu::PlatformDescription* platform() const noexcept {
    return nullptr;
  }
  /// Width of the physical counter registers in bits.  Values read from a
  /// context are truncated to this width by the hardware, so sub-64-bit
  /// substrates wrap mid-run; the portable layer (core/eventset) folds
  /// successive reads into wraparound-safe 64-bit totals using this.
  virtual std::uint32_t counter_width_bits() const noexcept { return 64; }

  // --- counter context factory ---
  /// A fresh, independent programming context.  Thread-aware substrates
  /// bind the context to the calling thread's counter domain (the
  /// thread-bound simulated machine, or the calling thread's perf fds);
  /// substrates without counters return a context whose control calls
  /// fail with Error::kNoCounters.  Must be callable from any thread.
  virtual Result<std::unique_ptr<CounterContext>> create_context() = 0;

  // --- event namespace (stateless, thread-safe) ---
  /// Realization of `preset` on this platform (Error::kNoEvent if
  /// unmapped).
  virtual Result<PresetMapping> preset_mapping(Preset preset) const = 0;
  virtual Result<pmu::NativeEventCode> native_by_name(
      std::string_view name) const = 0;
  virtual Result<std::string> native_name(
      pmu::NativeEventCode code) const = 0;
  /// Human-readable description of a native event.  The default answers
  /// from the platform description; substrates without one (host,
  /// component substrates with hand-rolled tables) override.
  virtual Result<std::string> native_description(
      pmu::NativeEventCode code) const {
    const pmu::PlatformDescription* desc = platform();
    if (desc == nullptr) return Error::kNoEvent;
    const pmu::NativeEvent* event = desc->find_event(code);
    if (event == nullptr) return Error::kNoEvent;
    return event->description;
  }

  // --- counter allocation (hardware-dependent half; stateless) ---
  /// Translates the platform constraint scheme for `events` into a pure
  /// bipartite instance.  Group-constrained platforms return one
  /// instance per candidate group via the `group_choices` out-param
  /// semantics below: the default implementation handles mask platforms;
  /// group platforms override allocate() directly.
  virtual Result<AllocationInstance> translate_allocation(
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities) const = 0;

  /// Full allocation: returns the physical counter per event, or
  /// Error::kConflict when no complete assignment exists.
  virtual Result<std::vector<std::uint32_t>> allocate(
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities) const;

  /// Version counter over the substrate's allocation *rules*: bumped
  /// whenever the outcome of allocate()/translate_allocation() for a
  /// fixed event list may change (e.g. sim-alpha's estimation-mode
  /// toggle makes maskless events placeable).  EventSet::start() sums
  /// it over the set's slices and reprograms the thread's contexts when
  /// the sum has moved since the set last latched it, so a restart never
  /// runs on programming the old rules produced.
  virtual std::uint64_t allocation_generation() const noexcept {
    return 0;
  }

  // --- sampling-based count estimation (PAPI 3 option; sim-alpha) ---
  virtual bool supports_estimation() const noexcept { return false; }
  /// When enabled, events that cannot be placed on physical counters are
  /// serviced from ProfileMe sample extrapolation.  Process-global mode
  /// switch: it affects allocation and the *next* program() on every
  /// context.
  virtual Status set_estimation(bool /*enabled*/) {
    return Error::kNoSupport;
  }

  // --- timers (the "most popular feature"; process-global) ---
  virtual std::uint64_t real_usec() const = 0;
  virtual std::uint64_t real_cycles() const = 0;
  /// Process-virtual time; equals real time on the simulated machines.
  virtual std::uint64_t virt_usec() const = 0;

  // --- multiplexing timer service (process-global; per-context timers
  // --- live on CounterContext) ---
  virtual bool supports_multiplex() const noexcept { return false; }
  virtual Result<int> add_timer(std::uint64_t period_cycles,
                                TimerCallback callback);
  virtual Status cancel_timer(int id);

  // --- memory utilization (PAPI 3 extension) ---
  virtual Result<MemoryInfo> memory_info() const = 0;
};

}  // namespace papirepro::papi
