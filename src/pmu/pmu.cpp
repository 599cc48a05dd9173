#include "pmu/pmu.h"

#include <algorithm>
#include <cassert>

namespace papirepro::pmu {

bool is_ear_signal(sim::SimEvent signal) noexcept {
  switch (signal) {
    case sim::SimEvent::kL1DMiss:
    case sim::SimEvent::kL1IMiss:
    case sim::SimEvent::kL2Miss:
    case sim::SimEvent::kDTlbMiss:
    case sim::SimEvent::kITlbMiss:
      return true;
    default:
      return false;
  }
}

PmuModel::PmuModel(const PlatformDescription& platform,
                   sim::Machine& machine)
    : sim::EventListener(0), platform_(platform), machine_(machine) {
  counters_.resize(platform.num_counters);
  machine_.add_listener(this);
}

PmuModel::~PmuModel() { machine_.remove_listener(this); }

Status PmuModel::program(std::span<const NativeEventCode> events,
                         std::span<const std::uint32_t> assignment) {
  if (running_) return Error::kIsRunning;
  if (events.size() != assignment.size()) return Error::kInvalid;
  if (events.size() > platform_.num_counters) return Error::kConflict;

  // Validate before mutating anything.
  std::uint32_t used = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const NativeEvent* ev = platform_.find_event(events[i]);
    if (ev == nullptr) return Error::kNoEvent;
    const std::uint32_t c = assignment[i];
    if (c >= platform_.num_counters) return Error::kInvalid;
    if (used & (1u << c)) return Error::kConflict;
    used |= 1u << c;
    if (!platform_.group_constrained() &&
        (ev->counter_mask & (1u << c)) == 0) {
      return Error::kConflict;
    }
  }
  if (platform_.group_constrained()) {
    const bool some_group_fits = std::any_of(
        platform_.groups.begin(), platform_.groups.end(),
        [&](const CounterGroup& g) {
          for (std::size_t i = 0; i < events.size(); ++i) {
            if (g.slots[assignment[i]] != events[i]) return false;
          }
          return true;
        });
    if (!some_group_fits) return Error::kConflict;
  }

  clear();
  for (std::size_t i = 0; i < events.size(); ++i) {
    Counter& c = counters_[assignment[i]];
    c.event = events[i];
    const NativeEvent* ev = platform_.find_event(events[i]);
    c.ear_capable =
        platform_.sampling.has_ear &&
        std::any_of(ev->terms.begin(), ev->terms.end(),
                    [](const SignalTerm& t) { return is_ear_signal(t.signal); });
  }
  rebuild_dispatch();
  return Error::kOk;
}

void PmuModel::clear() {
  for (auto& c : counters_) c = Counter{};
  for (auto& d : dispatch_) d.clear();
  dispatched_ = 0;
  running_ = false;
  update_wanted();
}

void PmuModel::rebuild_dispatch() {
  for (auto& d : dispatch_) d.clear();
  dispatched_ = 0;
  for (std::uint32_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i].event == kNoNativeEvent) continue;
    const NativeEvent* ev = platform_.find_event(counters_[i].event);
    assert(ev != nullptr);
    for (const SignalTerm& t : ev->terms) {
      dispatch_[static_cast<std::size_t>(t.signal)].push_back(
          {i, t.multiplier});
      dispatched_ |= sim::sim_event_bit(t.signal);
    }
  }
  update_wanted();
}

Status PmuModel::start() {
  if (running_) return Error::kIsRunning;
  running_ = true;
  update_wanted();
  return Error::kOk;
}

Status PmuModel::stop() {
  if (!running_) return Error::kNotRunning;
  running_ = false;
  update_wanted();
  return Error::kOk;
}

void PmuModel::reset_counts() {
  for (auto& c : counters_) {
    c.value = 0;
    if (c.overflow_threshold > 0) c.next_overflow_at = c.overflow_threshold;
  }
}

Status PmuModel::set_overflow(std::uint32_t idx, std::uint64_t threshold,
                              OverflowHandler handler) {
  if (idx >= counters_.size() || threshold == 0 || !handler) {
    return Error::kInvalid;
  }
  if (counters_[idx].event == kNoNativeEvent) return Error::kNoEvent;
  Counter& c = counters_[idx];
  c.overflow_threshold = threshold;
  c.next_overflow_at = c.value + threshold;
  c.handler = std::move(handler);
  return Error::kOk;
}

Status PmuModel::clear_overflow(std::uint32_t idx) {
  if (idx >= counters_.size()) return Error::kInvalid;
  counters_[idx].overflow_threshold = 0;
  counters_[idx].handler = nullptr;
  return Error::kOk;
}

Status PmuModel::set_domain(std::uint32_t idx,
                            std::uint32_t domain_mask) {
  if (idx >= counters_.size()) return Error::kInvalid;
  if (domain_mask == 0 || (domain_mask & ~0x3u) != 0) {
    return Error::kInvalid;
  }
  counters_[idx].domain_mask = domain_mask;
  return Error::kOk;
}

void PmuModel::on_event(sim::SimEvent event, std::uint64_t weight,
                        const sim::EventContext& ctx) {
  const std::uint32_t domain_bit = ctx.kernel ? 0x2u : 0x1u;
  const auto& entries = dispatch_[static_cast<std::size_t>(event)];
  for (const DispatchEntry& e : entries) {
    Counter& c = counters_[e.counter];
    if ((c.domain_mask & domain_bit) == 0) continue;
    c.value += static_cast<std::uint64_t>(e.multiplier) * weight;
    if (c.ear_capable && is_ear_signal(event)) {
      c.ear_pc = ctx.pc;
      c.ear_addr = ctx.addr;
      c.ear_valid = true;
    }
    if (c.overflow_threshold > 0 && c.value >= c.next_overflow_at) {
      // Coalesce multiple crossings from one large increment into a
      // single interrupt, as real PMUs do.
      while (c.next_overflow_at <= c.value) {
        c.next_overflow_at += c.overflow_threshold;
      }
      const bool precise = c.ear_capable && c.ear_valid;
      OverflowInfo info{
          .counter = e.counter,
          .pc_skidded = 0,  // filled at delivery
          .pc_precise = precise ? c.ear_pc : ctx.pc,
          .addr = precise ? c.ear_addr : ctx.addr,
          .has_precise = precise,
      };
      const std::uint32_t delay = platform_.skid.draw(machine_.skid_rng());
      // Copy the handler: the counter file may be reprogrammed while the
      // interrupt is still in flight.
      OverflowHandler handler = c.handler;
      machine_.schedule_interrupt(
          delay, ctx.pc,
          [info, handler = std::move(handler)](
              const sim::InterruptContext& ictx) mutable {
            info.pc_skidded = ictx.pc_delivered;
            info.retired = ictx.retired;
            info.cycles = ictx.cycles;
            if (handler) handler(info);
          });
    }
  }
}

}  // namespace papirepro::pmu
