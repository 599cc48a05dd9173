#include "substrate/fault_substrate.h"

#include <utility>

#include "core/telemetry.h"

namespace papirepro::papi {

namespace {

/// Per-site stream seeds: mix the site index into the plan seed so every
/// site draws from an independent deterministic sequence.
std::uint64_t site_seed(std::uint64_t plan_seed, std::size_t site) {
  SplitMix64 mixer(plan_seed + 0x9e3779b97f4a7c15ULL * (site + 1));
  return mixer.next();
}

double next_unit(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultInjectingContext
// ---------------------------------------------------------------------------

/// Decorates one CounterContext from the inner substrate.  All fault
/// state (scripts, streams, width) lives on the owning substrate so a
/// plan scripts the *process-wide* call sequence, matching how a flaky
/// kernel misbehaves regardless of which thread's context hits it.
class FaultInjectingContext final : public CounterContext {
 public:
  FaultInjectingContext(FaultInjectingSubstrate& owner,
                        std::unique_ptr<CounterContext> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  // The hot counter-control paths check the master switch once and
  // tail-call the inner context when injection is off, keeping the
  // disabled decorator to one relaxed load per call (bench_feature_cost
  // measures +6.2–9.8 % on read() and +4.3–6.4 % on stop+start on a
  // 4-vCPU Xeon).
  Status program(std::span<const pmu::NativeEventCode> events,
                 std::span<const std::uint32_t> assignment) override {
    if (!owner_.enabled()) return inner_->program(events, assignment);
    if (const Error e = owner_.consult(FaultSite::kProgram);
        e != Error::kOk) {
      return e;
    }
    return inner_->program(events, assignment);
  }

  Status start() override {
    if (!owner_.enabled()) return inner_->start();
    if (const Error e = owner_.consult(FaultSite::kStart);
        e != Error::kOk) {
      return e;
    }
    return inner_->start();
  }

  Status stop() override { return inner_->stop(); }

  Status read(std::span<std::uint64_t> out) override {
    if (!owner_.enabled()) return inner_->read(out);
    if (const Error e = owner_.consult(FaultSite::kRead);
        e != Error::kOk) {
      return e;
    }
    PAPIREPRO_RETURN_IF_ERROR(inner_->read(out));
    if (owner_.plan().narrow_counters()) {
      const std::uint64_t mask = owner_.plan().counter_mask();
      for (std::uint64_t& v : out) v &= mask;
    }
    owner_.apply_read_rewind(out);
    return Error::kOk;
  }

  Status reset_counts() override { return inner_->reset_counts(); }

  Status set_overflow(std::uint32_t event_index, std::uint64_t threshold,
                      OverflowCallback callback,
                      OverflowDeliveryMode mode) override {
    return inner_->set_overflow(event_index, threshold,
                                std::move(callback), mode);
  }
  Status clear_overflow(std::uint32_t event_index) override {
    return inner_->clear_overflow(event_index);
  }
  Status set_domain(std::uint32_t domain_mask) override {
    return inner_->set_domain(domain_mask);
  }
  bool running() const noexcept override { return inner_->running(); }

  std::uint64_t cycles() const override { return inner_->cycles(); }
  std::uint64_t overhead_cycles() const noexcept override {
    return inner_->overhead_cycles();
  }

  Result<int> add_timer(std::uint64_t period_cycles,
                        TimerCallback callback) override {
    return owner_.decorate_timer(
        period_cycles, std::move(callback),
        [this](std::uint64_t period, TimerCallback cb) {
          return inner_->add_timer(period, std::move(cb));
        });
  }
  Status cancel_timer(int id) override { return inner_->cancel_timer(id); }

 private:
  FaultInjectingSubstrate& owner_;
  std::unique_ptr<CounterContext> inner_;
};

// ---------------------------------------------------------------------------
// FaultInjectingSubstrate
// ---------------------------------------------------------------------------

FaultInjectingSubstrate::FaultInjectingSubstrate(
    std::unique_ptr<Substrate> inner, const FaultPlan& plan)
    : inner_(std::move(inner)) {
  decorated_name_ = "fault+" + std::string(inner_->name());
  set_plan(plan);
}

FaultInjectingSubstrate::~FaultInjectingSubstrate() = default;

void FaultInjectingSubstrate::set_plan(const FaultPlan& plan) {
  const std::lock_guard<std::mutex> lock(mutex_);
  plan_ = plan;
  for (std::size_t s = 0; s < kNumFaultSites; ++s) {
    sites_[s].rng = SplitMix64(site_seed(plan_.seed, s));
    sites_[s].remaining_scripted_failures = plan_.scripts[s].fail_times;
    sites_[s].calls = 0;
    sites_[s].injected = 0;
  }
  timer_rng_ = SplitMix64(site_seed(plan_.seed, kNumFaultSites));
  successful_reads_ = 0;
}

std::uint64_t FaultInjectingSubstrate::injected_count(
    FaultSite site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sites_[static_cast<std::size_t>(site)].injected;
}

std::uint64_t FaultInjectingSubstrate::call_count(FaultSite site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sites_[static_cast<std::size_t>(site)].calls;
}

std::string_view FaultInjectingSubstrate::name() const noexcept {
  return decorated_name_;
}

std::uint32_t FaultInjectingSubstrate::counter_width_bits() const noexcept {
  if (enabled() && plan_.narrow_counters()) {
    return plan_.counter_width_bits;
  }
  return inner_->counter_width_bits();
}

void FaultInjectingSubstrate::bind_telemetry(
    TelemetryRegistry* telemetry) {
  telemetry_.store(telemetry, std::memory_order_relaxed);
  inner_->bind_telemetry(telemetry);
}

Error FaultInjectingSubstrate::consult(FaultSite site) {
  if (!enabled()) return Error::kOk;
  Error injected = Error::kOk;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const FaultScript& script = plan_.at(site);
    SiteState& state = sites_[static_cast<std::size_t>(site)];
    ++state.calls;
    if (!script.armed()) return Error::kOk;
    if (state.remaining_scripted_failures > 0 &&
        state.calls > static_cast<std::uint64_t>(script.fail_after)) {
      // The deferred hard-down window: the first fail_after calls pass
      // untouched, then fail_times consecutive calls fail, then the
      // site recovers (calls is already incremented, so fail_after == 0
      // keeps the legacy fail-from-the-first-call behaviour).
      --state.remaining_scripted_failures;
      ++state.injected;
      injected = script.error;
    } else if (state.remaining_scripted_failures == 0 &&
               script.probability > 0.0 &&
               next_unit(state.rng) < script.probability) {
      ++state.injected;
      injected = script.error;
    }
  }
  if (injected != Error::kOk) {
    if (TelemetryRegistry* telemetry =
            telemetry_.load(std::memory_order_relaxed)) {
      telemetry->bump(TelemetryCounter::kFaultsInjected);
    }
  }
  return injected;
}

void FaultInjectingSubstrate::apply_read_rewind(
    std::span<std::uint64_t> out) {
  // Unlocked disabled-window check: rewind fields are only written by
  // set_plan, same benign pattern as the narrow-counter mask in read().
  if (plan_.read_rewind_times == 0 || plan_.read_rewind_delta == 0) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t n = successful_reads_++;
  if (n < plan_.read_rewind_after ||
      n >= static_cast<std::uint64_t>(plan_.read_rewind_after) +
               plan_.read_rewind_times) {
    return;
  }
  for (std::uint64_t& v : out) {
    v = v > plan_.read_rewind_delta ? v - plan_.read_rewind_delta : 0;
  }
}

bool FaultInjectingSubstrate::drop_timer_fire() {
  if (!enabled() || plan_.timer_drop_probability <= 0.0) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_unit(timer_rng_) < plan_.timer_drop_probability;
}

Result<int> FaultInjectingSubstrate::decorate_timer(
    std::uint64_t period_cycles, TimerCallback callback,
    const std::function<Result<int>(std::uint64_t, TimerCallback)>& arm) {
  if (const Error e = consult(FaultSite::kAddTimer); e != Error::kOk) {
    return e;
  }
  std::uint64_t period = period_cycles;
  if (enabled()) period += plan_.timer_extra_delay_cycles;
  return arm(period, [this, cb = std::move(callback)] {
    if (drop_timer_fire()) return;  // the slice timer misfired
    cb();
  });
}

Result<std::unique_ptr<CounterContext>>
FaultInjectingSubstrate::create_context() {
  if (const Error e = consult(FaultSite::kCreateContext);
      e != Error::kOk) {
    return e;
  }
  auto inner = inner_->create_context();
  if (!inner.ok()) return inner.error();
  return std::unique_ptr<CounterContext>(
      new FaultInjectingContext(*this, std::move(inner).value()));
}

Result<int> FaultInjectingSubstrate::add_timer(std::uint64_t period_cycles,
                                               TimerCallback callback) {
  return decorate_timer(
      period_cycles, std::move(callback),
      [this](std::uint64_t period, TimerCallback cb) {
        return inner_->add_timer(period, std::move(cb));
      });
}

}  // namespace papirepro::papi
