#include "substrate/sim_substrate.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "substrate/preset_maps.h"

namespace papirepro::papi {
namespace {

/// Seed of every ProfileMe sampling stream: fixed, so estimates repeat
/// bit for bit from run to run.
constexpr std::uint64_t kSampleSeed = 0x5eed5a3715ULL;

}  // namespace

// ---------------------------------------------------------------------------
// SimCounterContext
// ---------------------------------------------------------------------------

SimCounterContext::SimCounterContext(SimSubstrate& substrate,
                                     sim::Machine& machine)
    : substrate_(substrate),
      machine_(machine),
      platform_(substrate.platform_description()),
      charge_costs_(substrate.options().charge_costs),
      pmu_(platform_, machine) {
  substrate_.register_context(this);
}

SimCounterContext::~SimCounterContext() {
  substrate_.unregister_context(this);
}

void SimCounterContext::charge(std::uint64_t cycles,
                               std::uint32_t pollute_lines) {
  if (charge_costs_) {
    machine_.charge_cycles(cycles, pollute_lines);
  }
}

Status SimCounterContext::program(
    std::span<const pmu::NativeEventCode> events,
    std::span<const std::uint32_t> assignment) {
  if (running_) return Error::kIsRunning;
  if (events.size() != assignment.size()) return Error::kInvalid;

  // Partition physical vs sampled (into reused scratch: slice rotations
  // call program() continually and must not allocate).
  std::vector<pmu::NativeEventCode>& phys_events = scratch_phys_events_;
  std::vector<std::uint32_t>& phys_counters = scratch_phys_counters_;
  std::vector<std::size_t>& sampled_indices = scratch_sampled_indices_;
  phys_events.clear();
  phys_counters.clear();
  sampled_indices.clear();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (assignment[i] >= SimSubstrate::kSampledBase) {
      sampled_indices.push_back(i);
    } else {
      phys_events.push_back(events[i]);
      phys_counters.push_back(assignment[i]);
    }
  }

  if (!sampled_indices.empty() && (!substrate_.estimation_enabled() ||
                                   !platform_.sampling.has_profileme)) {
    return Error::kNoSupport;
  }

  PAPIREPRO_RETURN_IF_ERROR(pmu_.program(phys_events, phys_counters));

  // Build the sampling engine's tracked-signal set: the union of the
  // sampled events' signal terms.
  sampled_terms_.clear();
  if (sampled_indices.empty()) {
    // Keep any existing engine alive but dormant: a multiplexed
    // EventSet will re-program the sampled group shortly, and the
    // engine's RNG/countdown continuity is what keeps slice estimates
    // unbiased.  start()/stop() only touch it when the *current*
    // programming has sampled events.
    if (engine_) engine_->stop();
  } else {
    std::vector<sim::SimEvent>& tracked = scratch_tracked_;
    tracked.clear();
    sampled_terms_.resize(sampled_indices.size());
    for (std::size_t s = 0; s < sampled_indices.size(); ++s) {
      const pmu::NativeEvent* ev =
          platform_.find_event(events[sampled_indices[s]]);
      assert(ev != nullptr && ev->counter_mask == 0);
      for (const pmu::SignalTerm& t : ev->terms) {
        auto it = std::find(tracked.begin(), tracked.end(), t.signal);
        if (it == tracked.end()) {
          if (tracked.size() >= pmu::ProfileMeEngine::kMaxTracked) {
            return Error::kConflict;  // out of sampling slots
          }
          tracked.push_back(t.signal);
          it = tracked.end() - 1;
        }
        sampled_terms_[s].terms.emplace_back(
            static_cast<std::size_t>(it - tracked.begin()), t.multiplier);
      }
    }
    // Reuse a live engine whose tracked set is unchanged (the common
    // case when a multiplexed EventSet reprograms the same group):
    // keeping it preserves the sampling stream's RNG/countdown state,
    // so successive slices see decorrelated sample alignments.
    const bool reuse =
        engine_ != nullptr &&
        std::equal(tracked.begin(), tracked.end(),
                   engine_->tracked().begin(), engine_->tracked().end());
    if (!reuse) {
      engine_ = std::make_unique<pmu::ProfileMeEngine>(
          machine_, tracked, substrate_.options().sample_period,
          kSampleSeed, platform_.costs.sample_cost_cycles);
    }
  }

  // Apply the counting domain to the freshly-programmed counters.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (assignment[i] < SimSubstrate::kSampledBase) {
      PAPIREPRO_RETURN_IF_ERROR(
          pmu_.set_domain(assignment[i], domain_mask_));
    }
  }

  events_.assign(events.begin(), events.end());
  assignment_.assign(assignment.begin(), assignment.end());
  return Error::kOk;
}

Status SimCounterContext::set_domain(std::uint32_t domain_mask) {
  if (!valid_domain(domain_mask)) return Error::kInvalid;
  if (running_) return Error::kIsRunning;
  domain_mask_ = domain_mask;
  return Error::kOk;
}

Status SimCounterContext::start() {
  if (running_) return Error::kIsRunning;
  charge(platform_.costs.start_stop_cost_cycles);
  PAPIREPRO_RETURN_IF_ERROR(pmu_.start());
  if (engine_ && !sampled_terms_.empty()) engine_->start();
  running_ = true;
  return Error::kOk;
}

Status SimCounterContext::stop() {
  if (!running_) return Error::kNotRunning;
  charge(platform_.costs.start_stop_cost_cycles);
  PAPIREPRO_RETURN_IF_ERROR(pmu_.stop());
  if (engine_) engine_->stop();
  running_ = false;
  return Error::kOk;
}

Status SimCounterContext::read(std::span<std::uint64_t> out) {
  if (out.size() < events_.size()) return Error::kInvalid;
  charge(platform_.costs.read_cost_cycles,
         platform_.costs.read_pollute_lines);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (assignment_[i] >= SimSubstrate::kSampledBase) {
      const auto slot = assignment_[i] - SimSubstrate::kSampledBase;
      double v = 0.0;
      for (const auto& [tracked_idx, mult] : sampled_terms_[slot].terms) {
        v += static_cast<double>(mult) * engine_->estimate(tracked_idx);
      }
      out[i] = static_cast<std::uint64_t>(std::llround(v));
    } else {
      auto v = pmu_.read(assignment_[i]);
      if (!v.ok()) return v.error();
      out[i] = v.value();
    }
  }
  return Error::kOk;
}

Status SimCounterContext::reset_counts() {
  pmu_.reset_counts();
  if (engine_ && !sampled_terms_.empty()) engine_->reset();
  return Error::kOk;
}

Status SimCounterContext::set_overflow(std::uint32_t event_index,
                                       std::uint64_t threshold,
                                       OverflowCallback callback,
                                       OverflowDeliveryMode mode) {
  if (event_index >= events_.size() || !callback) return Error::kInvalid;
  if (assignment_[event_index] >= SimSubstrate::kSampledBase) {
    return Error::kNoSupport;
  }
  // A deferred callback only captures the sample into a ring; the
  // counting thread pays the (much cheaper) enqueue cost while the full
  // handler price moves to the aggregator thread.  This is the cost
  // asymmetry behind the paper's sampling-vs-direct-counting gap.
  const std::uint64_t handler_cost =
      mode == OverflowDeliveryMode::kDeferred
          ? platform_.costs.overflow_enqueue_cost_cycles
          : platform_.costs.overflow_handler_cost_cycles;
  auto wrapped = [this, event_index, handler_cost,
                  cb = std::move(callback)](const pmu::OverflowInfo& info) {
    charge(handler_cost);
    cb(SubstrateOverflow{.event_index = event_index,
                         .pc_observed = info.pc_skidded,
                         .pc_precise = info.pc_precise,
                         .has_precise = info.has_precise,
                         .addr = info.addr});
  };
  return pmu_.set_overflow(assignment_[event_index], threshold,
                           std::move(wrapped));
}

Status SimCounterContext::clear_overflow(std::uint32_t event_index) {
  if (event_index >= events_.size()) return Error::kInvalid;
  if (assignment_[event_index] >= SimSubstrate::kSampledBase) {
    return Error::kNoSupport;
  }
  return pmu_.clear_overflow(assignment_[event_index]);
}

Result<int> SimCounterContext::add_timer(std::uint64_t period_cycles,
                                         TimerCallback callback) {
  if (period_cycles == 0) return Error::kInvalid;
  return machine_.add_cycle_timer(
      period_cycles, [cb = std::move(callback)](sim::Machine&) { cb(); });
}

Status SimCounterContext::cancel_timer(int id) {
  machine_.cancel_timer(id);
  return Error::kOk;
}

// ---------------------------------------------------------------------------
// SimSubstrate
// ---------------------------------------------------------------------------

SimSubstrate::SimSubstrate(sim::Machine& machine,
                           const pmu::PlatformDescription& platform,
                           const SimSubstrateOptions& options)
    : machines_(&machine), platform_(platform), options_(options) {}

SimSubstrate::~SimSubstrate() = default;

Result<std::unique_ptr<CounterContext>> SimSubstrate::create_context() {
  return std::unique_ptr<CounterContext>(
      new SimCounterContext(*this, machine_for_current_thread()));
}

void SimSubstrate::register_context(SimCounterContext* context) {
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  live_contexts_[std::this_thread::get_id()].push_back(context);
}

void SimSubstrate::unregister_context(SimCounterContext* context) {
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (auto& [tid, contexts] : live_contexts_) {
    contexts.erase(
        std::remove(contexts.begin(), contexts.end(), context),
        contexts.end());
  }
}

const pmu::ProfileMeEngine* SimSubstrate::sampling_engine() const noexcept {
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  const auto it = live_contexts_.find(std::this_thread::get_id());
  if (it == live_contexts_.end()) return nullptr;
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (const auto* engine = (*rit)->sampling_engine()) return engine;
  }
  return nullptr;
}

Result<PresetMapping> SimSubstrate::preset_mapping(Preset preset) const {
  return map_preset(platform_, preset);
}

Result<pmu::NativeEventCode> SimSubstrate::native_by_name(
    std::string_view event_name) const {
  const pmu::NativeEvent* ev = platform_.find_event(event_name);
  if (ev == nullptr) return Error::kNoEvent;
  return ev->code;
}

Result<std::string> SimSubstrate::native_name(
    pmu::NativeEventCode code) const {
  const pmu::NativeEvent* ev = platform_.find_event(code);
  if (ev == nullptr) return Error::kNoEvent;
  return ev->name;
}

Result<AllocationInstance> SimSubstrate::translate_allocation(
    std::span<const pmu::NativeEventCode> events,
    std::span<const int> priorities) const {
  AllocationInstance inst;
  inst.num_counters = platform_.num_counters;
  inst.priority.assign(priorities.begin(), priorities.end());

  if (!platform_.group_constrained()) {
    for (const auto code : events) {
      const pmu::NativeEvent* ev = platform_.find_event(code);
      if (ev == nullptr) return Error::kNoEvent;
      inst.allowed.push_back(ev->counter_mask &
                             ((1u << platform_.num_counters) - 1));
    }
    return inst;
  }

  // Group-constrained: translate against the first group containing all
  // requested events (each event then has exactly one legal counter —
  // its slot).  No group => unsatisfiable instance signalled as conflict.
  for (const pmu::CounterGroup& g : platform_.groups) {
    std::vector<std::uint32_t> allowed;
    allowed.reserve(events.size());
    bool all = true;
    for (const auto code : events) {
      const auto it = std::find(g.slots.begin(), g.slots.end(), code);
      if (it == g.slots.end()) {
        all = false;
        break;
      }
      allowed.push_back(
          1u << static_cast<std::uint32_t>(it - g.slots.begin()));
    }
    if (all) {
      inst.allowed = std::move(allowed);
      return inst;
    }
  }
  return Error::kConflict;
}

Result<std::vector<std::uint32_t>> SimSubstrate::allocate(
    std::span<const pmu::NativeEventCode> events,
    std::span<const int> priorities) const {
  // Split estimation-serviced events (counter_mask == 0) from countable
  // ones; only the countable subset goes through the matcher.
  std::vector<pmu::NativeEventCode> countable;
  std::vector<int> countable_prio;
  std::vector<std::size_t> countable_pos, sampled_pos;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const pmu::NativeEvent* ev = platform_.find_event(events[i]);
    if (ev == nullptr) return Error::kNoEvent;
    if (ev->counter_mask == 0) {
      if (!estimation_enabled() || !platform_.sampling.has_profileme) {
        return Error::kConflict;  // not countable without sampling mode
      }
      sampled_pos.push_back(i);
    } else {
      countable.push_back(events[i]);
      if (!priorities.empty()) countable_prio.push_back(priorities[i]);
      countable_pos.push_back(i);
    }
  }

  std::vector<std::uint32_t> out(events.size());
  for (std::size_t s = 0; s < sampled_pos.size(); ++s) {
    out[sampled_pos[s]] = kSampledBase + static_cast<std::uint32_t>(s);
  }
  if (!countable.empty()) {
    auto sub = Substrate::allocate(countable, countable_prio);
    if (!sub.ok()) return sub.error();
    for (std::size_t i = 0; i < countable_pos.size(); ++i) {
      out[countable_pos[i]] = sub.value()[i];
    }
  }
  return out;
}

Status SimSubstrate::set_estimation(bool enabled) {
  if (!platform_.sampling.has_profileme) return Error::kNoSupport;
  estimation_.store(enabled, std::memory_order_relaxed);
  allocation_generation_.fetch_add(1, std::memory_order_relaxed);
  return Error::kOk;
}

Result<int> SimSubstrate::add_timer(std::uint64_t period_cycles,
                                    TimerCallback callback) {
  if (period_cycles == 0) return Error::kInvalid;
  return machine().add_cycle_timer(
      period_cycles, [cb = std::move(callback)](sim::Machine&) { cb(); });
}

Status SimSubstrate::cancel_timer(int id) {
  machine().cancel_timer(id);
  return Error::kOk;
}

MemoryInfo machine_memory_info(const sim::Machine& machine) {
  constexpr std::uint64_t kNodeBytes = 1ULL << 30;  // 1 GiB node
  MemoryInfo info;
  info.total_bytes = kNodeBytes;
  info.process_resident_bytes = machine.memory().bytes_touched();
  info.process_peak_bytes = info.process_resident_bytes;
  info.available_bytes =
      kNodeBytes > info.process_resident_bytes
          ? kNodeBytes - info.process_resident_bytes
          : 0;
  info.page_size_bytes = sim::kPageSize;
  info.page_faults = machine.memory().pages_touched();
  return info;
}

}  // namespace papirepro::papi
