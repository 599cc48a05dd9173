// Fault-injecting substrate decorator.  Wraps any Substrate (and every
// CounterContext it hands out) and injects the partial-failure modes the
// portable layers must survive: transient kConflict/kNoCounters from
// program(), context-creation failures, read errors, multiplex-timer
// misfire (dropped or delayed slices), and counter wraparound at a
// configurable bit width (narrow hardware counters are Section 6's
// silent-accuracy hazard).  Every fault is driven by a seeded FaultPlan —
// per-site "fail N times then succeed" scripts plus a per-site
// deterministic probability stream — so any observed failure sequence is
// reproducible from (plan, call sequence) alone.
//
// The decorator is the test substrate for the retry/degradation hardening
// in core/: the Library's bounded-retry policy, the EventSet's
// wraparound-safe accumulation, and the multiplex sequential-slice
// fallback are all exercised against it (tests/core/
// test_fault_hardening.cpp).  When disabled at runtime it is a pure
// forwarder — one relaxed atomic load per call — so it can stay compiled
// into tools and benchmarks.  bench_feature_cost's report-only rows
// measure that cost on a 4-vCPU Xeon: +6.2–9.8 % on read() and
// +4.3–6.4 % on stop+start.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "substrate/substrate.h"

namespace papirepro::papi {

/// Call sites a FaultScript can target, one scripted stream per site.
enum class FaultSite : std::size_t {
  kCreateContext = 0,  ///< Substrate::create_context
  kProgram,            ///< CounterContext::program
  kStart,              ///< CounterContext::start
  kRead,               ///< CounterContext::read
  kAddTimer,           ///< add_timer (context and process-global)
  kNumSites
};
inline constexpr std::size_t kNumFaultSites =
    static_cast<std::size_t>(FaultSite::kNumSites);

/// Failure schedule for one call site: after `fail_after` untouched
/// calls, the next `fail_times` calls fail unconditionally (scripted
/// hard-down-for-N-calls-then-recover — with fail_after 0 this is the
/// classic "fail N times then succeed"), and later calls fail with
/// `probability` drawn from the site's seeded stream.  `error` is the
/// injected code for both.  The deferred window is what the health-
/// monitor tests script: healthy warm-up, deterministic outage, then
/// recovery at an exact call number.
struct FaultScript {
  int fail_times = 0;
  double probability = 0.0;
  Error error = Error::kConflict;
  /// Calls that pass untouched before the scripted failures begin.
  int fail_after = 0;

  bool armed() const noexcept {
    return fail_times > 0 || probability > 0.0;
  }
};

/// A complete deterministic fault schedule.  Same plan + same call
/// sequence => same injected faults, bit-for-bit.
struct FaultPlan {
  std::uint64_t seed = 0x5eedfa17ULL;
  std::array<FaultScript, kNumFaultSites> scripts{};
  /// Counter register width in bits; reads are truncated to this width
  /// (1..63), emulating narrow hardware counters that wrap mid-run.
  /// 0 or >= 64 means full-width counters.
  std::uint32_t counter_width_bits = 64;
  /// Multiplex-slice timer misfire: each timer firing is swallowed with
  /// this probability (a missed rotation the estimator must absorb).
  double timer_drop_probability = 0.0;
  /// Added to every requested timer period — a slow/late timer service.
  std::uint64_t timer_extra_delay_cycles = 0;
  /// Non-monotonic counter injection: after `read_rewind_after`
  /// successful reads, the next `read_rewind_times` reads report values
  /// rewound by `read_rewind_delta` (clamped at 0) — the impossible
  /// backwards delta the fold path's sanity guard must flag.  Times or
  /// delta of 0 disables the window.
  std::uint32_t read_rewind_after = 0;
  std::uint32_t read_rewind_times = 0;
  std::uint64_t read_rewind_delta = 0;

  FaultScript& at(FaultSite site) {
    return scripts[static_cast<std::size_t>(site)];
  }
  const FaultScript& at(FaultSite site) const {
    return scripts[static_cast<std::size_t>(site)];
  }
  bool narrow_counters() const noexcept {
    return counter_width_bits >= 1 && counter_width_bits < 64;
  }
  std::uint64_t counter_mask() const noexcept {
    return narrow_counters() ? (1ULL << counter_width_bits) - 1
                             : ~0ULL;
  }
};

class FaultInjectingSubstrate final : public Substrate {
 public:
  /// Takes ownership of the decorated substrate.  Injection starts
  /// enabled; set_enabled(false) turns the decorator into a forwarder.
  FaultInjectingSubstrate(std::unique_ptr<Substrate> inner,
                          const FaultPlan& plan);
  ~FaultInjectingSubstrate() override;

  Substrate& inner() noexcept { return *inner_; }
  const Substrate& inner() const noexcept { return *inner_; }

  /// Runtime master switch (the PAPIrepro_inject_faults knob).  While
  /// disabled every call forwards untouched and scripts do not advance.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Replaces the plan and rewinds every script/stream to call zero.
  void set_plan(const FaultPlan& plan);
  const FaultPlan& plan() const noexcept { return plan_; }

  /// Total faults injected at `site` since the last set_plan (test
  /// observability: "was the failure actually exercised?").
  std::uint64_t injected_count(FaultSite site) const;
  /// Calls observed at `site` (injected or forwarded).
  std::uint64_t call_count(FaultSite site) const;

  /// Counts every delivered fault in the library-wide registry
  /// (kFaultsInjected) and forwards the binding to the inner substrate.
  void bind_telemetry(TelemetryRegistry* telemetry) override;

  // --- Substrate interface (decorated) ---
  std::string_view name() const noexcept override;
  std::uint32_t num_counters() const noexcept override {
    return inner_->num_counters();
  }
  const pmu::PlatformDescription* platform() const noexcept override {
    return inner_->platform();
  }
  std::uint32_t counter_width_bits() const noexcept override;
  std::uint64_t allocation_generation() const noexcept override {
    return inner_->allocation_generation();
  }

  Result<std::unique_ptr<CounterContext>> create_context() override;

  Result<PresetMapping> preset_mapping(Preset preset) const override {
    return inner_->preset_mapping(preset);
  }
  Result<pmu::NativeEventCode> native_by_name(
      std::string_view event_name) const override {
    return inner_->native_by_name(event_name);
  }
  Result<std::string> native_name(
      pmu::NativeEventCode code) const override {
    return inner_->native_name(code);
  }
  Result<std::string> native_description(
      pmu::NativeEventCode code) const override {
    return inner_->native_description(code);
  }

  Result<AllocationInstance> translate_allocation(
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities) const override {
    return inner_->translate_allocation(events, priorities);
  }
  Result<std::vector<std::uint32_t>> allocate(
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities) const override {
    return inner_->allocate(events, priorities);
  }

  bool supports_estimation() const noexcept override {
    return inner_->supports_estimation();
  }
  Status set_estimation(bool enable) override {
    return inner_->set_estimation(enable);
  }

  std::uint64_t real_usec() const override { return inner_->real_usec(); }
  std::uint64_t real_cycles() const override {
    return inner_->real_cycles();
  }
  std::uint64_t virt_usec() const override { return inner_->virt_usec(); }

  bool supports_multiplex() const noexcept override {
    return inner_->supports_multiplex();
  }
  Result<int> add_timer(std::uint64_t period_cycles,
                        TimerCallback callback) override;
  Status cancel_timer(int id) override { return inner_->cancel_timer(id); }

  Result<MemoryInfo> memory_info() const override {
    return inner_->memory_info();
  }

 private:
  friend class FaultInjectingContext;

  /// One call at `site`: Error::kOk to forward, otherwise the injected
  /// error.  Advances the site's script and probability stream.
  Error consult(FaultSite site);
  /// Applies the read-rewind window to a successful read's values.
  void apply_read_rewind(std::span<std::uint64_t> out);
  /// Deterministic timer-misfire draw (kOk semantics do not apply).
  bool drop_timer_fire();
  /// Wraps a timer request: injects kAddTimer faults, stretches the
  /// period, and arms the drop stream on the callback.
  Result<int> decorate_timer(
      std::uint64_t period_cycles, TimerCallback callback,
      const std::function<Result<int>(std::uint64_t, TimerCallback)>& arm);

  struct SiteState {
    SplitMix64 rng{0};
    int remaining_scripted_failures = 0;
    std::uint64_t calls = 0;
    std::uint64_t injected = 0;
  };

  std::unique_ptr<Substrate> inner_;
  FaultPlan plan_;
  std::atomic<bool> enabled_{true};
  /// Owned by the Library, which outlives the substrate; written once
  /// by bind_telemetry, relaxed-read on the injection path.
  std::atomic<TelemetryRegistry*> telemetry_{nullptr};
  mutable std::mutex mutex_;  ///< guards sites_, timer_rng_, reads
  std::array<SiteState, kNumFaultSites> sites_;
  SplitMix64 timer_rng_{0};
  /// Successful reads since set_plan — the read-rewind window's clock.
  std::uint64_t successful_reads_ = 0;
  mutable std::string decorated_name_;
};

}  // namespace papirepro::papi
