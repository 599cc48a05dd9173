#include "core/eventset.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "core/library.h"

namespace papirepro::papi {

EventSet::EventSet(Library& library, int handle)
    : library_(library), handle_(handle) {}

EventSet::~EventSet() {
  // A set destroyed while its ring is still registered would leave the
  // aggregator draining into freed storage.
  if (ring_attached_) {
    library_.sampling().detach(sample_ring_.get());
    ring_attached_ = false;
  }
}

int EventSet::find_entry(EventId id) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

std::vector<EventId> EventSet::events() const {
  std::vector<EventId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.id);
  return out;
}

Status EventSet::rebuild(
    const std::vector<Entry>& candidate_entries,
    const std::vector<pmu::NativeEventCode>& candidate_natives,
    const std::vector<std::uint32_t>& candidate_components) {
  std::vector<Entry> entries = candidate_entries;
  std::vector<pmu::NativeEventCode> natives;
  std::vector<std::uint32_t> components;
  std::vector<ComponentSlice> slices;
  if (multiplex_) {
    // Multiplexing stays a single-component (CPU core) feature: slices
    // of one counter file rotated on one timer.
    for (const std::uint32_t component : candidate_components) {
      if (component != 0) return Error::kConflict;
    }
    auto plans = plan_multiplex(library_.substrate(), candidate_natives);
    if (!plans.ok()) return plans.error();
    mux_plans_ = std::move(plans.value());
    mux_group_events_.assign(mux_plans_.size(), {});
    for (std::size_t g = 0; g < mux_plans_.size(); ++g) {
      mux_group_events_[g].reserve(mux_plans_[g].members.size());
      for (std::size_t idx : mux_plans_[g].members) {
        mux_group_events_[g].push_back(candidate_natives[idx]);
      }
    }
    if (!candidate_natives.empty()) {
      ComponentSlice slice;
      slice.count = candidate_natives.size();
      slice.comp = library_.components_.at(0);
      slices.push_back(std::move(slice));
    }
    natives = candidate_natives;
    components = candidate_components;
  } else {
    // Order natives ascending by component (stable within a component)
    // so each component's share is contiguous, and remap every entry's
    // term indices to the new order.
    std::vector<std::size_t> order(candidate_natives.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return candidate_components[a] <
                              candidate_components[b];
                     });
    std::vector<std::size_t> remap(order.size());
    natives.reserve(order.size());
    components.reserve(order.size());
    for (std::size_t new_index = 0; new_index < order.size();
         ++new_index) {
      const std::size_t old_index = order[new_index];
      remap[old_index] = new_index;
      natives.push_back(candidate_natives[old_index]);
      components.push_back(candidate_components[old_index]);
    }

    // One allocation per component slice, each against its own
    // substrate.
    std::size_t begin = 0;
    while (begin < natives.size()) {
      const std::uint32_t component = components[begin];
      std::size_t end = begin;
      while (end < natives.size() && components[end] == component) ++end;
      Substrate* substrate = library_.component_substrate(component);
      if (substrate == nullptr) return Error::kNoComponent;
      auto assignment = substrate->allocate(
          std::span<const pmu::NativeEventCode>(natives).subspan(
              begin, end - begin),
          {});
      if (!assignment.ok()) return assignment.error();
      ComponentSlice slice;
      slice.component = component;
      slice.offset = begin;
      slice.count = end - begin;
      slice.assignment = std::move(assignment).value();
      slice.comp = library_.components_.at(component);
      slices.push_back(std::move(slice));
      begin = end;
    }

    for (Entry& entry : entries) {
      for (TermRef& term : entry.terms) {
        term.native_index = remap[term.native_index];
      }
    }
  }

  entries_ = std::move(entries);
  natives_ = std::move(natives);
  native_components_ = std::move(components);
  slices_ = std::move(slices);
  rebuild_flat_terms();
  refresh_program_id();
  // Membership changed: the stop() snapshot and the cross-thread
  // publication describe the old member list — drop both.
  stopped_raw_valid_ = false;
  publish_clear();
  return Error::kOk;
}

void EventSet::rebuild_flat_terms() {
  // Flatten the term lists for the read hot path: one contiguous array,
  // rebuilt whenever membership changes.
  flat_terms_.clear();
  calc_.clear();
  calc_.reserve(entries_.size());
  for (const Entry& e : entries_) {
    calc_.push_back({static_cast<std::uint32_t>(flat_terms_.size()),
                     static_cast<std::uint32_t>(e.terms.size())});
    for (const TermRef& t : e.terms) {
      flat_terms_.push_back({static_cast<std::uint32_t>(t.native_index),
                             static_cast<std::int32_t>(t.coefficient)});
    }
  }
  terms_identity_ = flat_terms_.size() == calc_.size();
  if (terms_identity_) {
    for (std::size_t i = 0; i < flat_terms_.size(); ++i) {
      if (flat_terms_[i].native_index != i ||
          flat_terms_[i].coefficient != 1) {
        terms_identity_ = false;
        break;
      }
    }
  }
}

void EventSet::refresh_program_id() noexcept {
  program_id_ = library_.next_program_id();
  program_generation_ = allocation_generation();
}

std::uint64_t EventSet::allocation_generation() const noexcept {
  std::uint64_t sum = 0;
  for (const ComponentSlice& slice : slices_) {
    sum += slice.comp->substrate->allocation_generation();
  }
  return sum;
}

namespace {

/// Dedup key for a native within a set: codes repeat across component
/// namespaces, so identity is the (component, code) pair.
constexpr std::uint64_t native_key(std::uint32_t component,
                                   pmu::NativeEventCode code) noexcept {
  return (static_cast<std::uint64_t>(component) << 32) | code;
}

}  // namespace

Status EventSet::add_event(EventId id) {
  if (running()) return Error::kIsRunning;
  if (find_entry(id) >= 0) return Error::kConflict;  // already present
  auto info = library_.component_info(id.component);
  if (!info.ok()) return info.error();
  if (!info.value().enabled) return Error::kComponentDisabled;
  if (multiplex_ && id.component != 0) {
    return Error::kConflict;  // mux is a single-component feature
  }
  Substrate& substrate = *library_.component_substrate(id.component);

  // Resolve the event into native terms within its component's
  // namespace.
  std::vector<MappingTerm> terms;
  if (id.is_preset()) {
    auto mapping = substrate.preset_mapping(id.as_preset());
    if (!mapping.ok()) return mapping.error();
    terms = std::move(mapping.value().terms);
  } else {
    auto name = substrate.native_name(id.as_native());
    if (!name.ok()) return name.error();
    terms = {{id.as_native(), 1}};
  }

  // Expand into the candidate native list, sharing natives already
  // required by other member events (hashed index instead of a linear
  // scan per term).
  std::vector<pmu::NativeEventCode> candidate_natives = natives_;
  std::vector<std::uint32_t> candidate_components = native_components_;
  std::unordered_map<std::uint64_t, std::size_t> native_index;
  native_index.reserve(candidate_natives.size() + terms.size());
  for (std::size_t i = 0; i < candidate_natives.size(); ++i) {
    native_index.emplace(
        native_key(candidate_components[i], candidate_natives[i]), i);
  }
  Entry entry{id, {}};
  for (const MappingTerm& t : terms) {
    const auto [it, inserted] = native_index.try_emplace(
        native_key(id.component, t.native), candidate_natives.size());
    if (inserted) {
      candidate_natives.push_back(t.native);
      candidate_components.push_back(id.component);
    }
    entry.terms.push_back({it->second, t.coefficient});
  }
  std::vector<Entry> candidate_entries = entries_;
  candidate_entries.push_back(std::move(entry));

  return rebuild(candidate_entries, candidate_natives,
                 candidate_components);
}

Status EventSet::add_named(std::string_view name) {
  auto id = library_.event_from_name(name);
  if (!id.ok()) return id.error();
  return add_event(id.value());
}

Status EventSet::remove_event(EventId id) {
  if (running()) return Error::kIsRunning;
  const int pos = find_entry(id);
  if (pos < 0) return Error::kNoEvent;

  std::vector<Entry> candidate_entries = entries_;
  candidate_entries.erase(candidate_entries.begin() + pos);

  // Recompute the native list from scratch (drop now-unused natives),
  // deduplicating through a hashed index instead of a scan per term.
  std::vector<pmu::NativeEventCode> candidate_natives;
  std::vector<std::uint32_t> candidate_components;
  std::unordered_map<std::uint64_t, std::size_t> native_index;
  for (Entry& e : candidate_entries) {
    for (TermRef& ref : e.terms) {
      const pmu::NativeEventCode code = natives_[ref.native_index];
      const std::uint32_t component =
          native_components_[ref.native_index];
      const auto [it, inserted] = native_index.try_emplace(
          native_key(component, code), candidate_natives.size());
      if (inserted) {
        candidate_natives.push_back(code);
        candidate_components.push_back(component);
      }
      ref.native_index = it->second;
    }
  }
  overflow_configs_.erase(
      std::remove_if(
          overflow_configs_.begin(), overflow_configs_.end(),
          [&](const std::shared_ptr<OverflowConfig>& c) {
            return c->id == id;
          }),
      overflow_configs_.end());
  return rebuild(candidate_entries, candidate_natives,
                 candidate_components);
}

Status EventSet::enable_multiplex(std::uint64_t slice_cycles) {
  if (running()) return Error::kIsRunning;
  if (!library_.substrate().supports_multiplex()) return Error::kNoSupport;
  if (slice_cycles == 0) return Error::kInvalid;
  if (!overflow_configs_.empty()) return Error::kConflict;
  for (const std::uint32_t component : native_components_) {
    if (component != 0) return Error::kConflict;  // mux is CPU-only
  }
  multiplex_ = true;
  mux_slice_cycles_ = slice_cycles;
  return rebuild(entries_, natives_, native_components_);
}

Status EventSet::program_mux_group(std::size_t g) {
  // The member event list is prebuilt at rebuild(): a slice rotation
  // reprograms the counters without allocating.
  return context_->program(mux_group_events_[g], mux_plans_[g].assignment);
}

Status EventSet::set_domain(std::uint32_t domain_mask) {
  if (running()) return Error::kIsRunning;
  if (!valid_domain(domain_mask)) return Error::kInvalid;
  domain_mask_ = domain_mask;
  refresh_program_id();
  return Error::kOk;
}

Status EventSet::program_and_arm(bool programmed) {
  const auto apply_domain = [this](CounterContext* context) -> Status {
    const Status s = context->set_domain(domain_mask_);
    if (!s.ok() && !(s.error() == Error::kNoSupport &&
                     domain_mask_ == domain::kAll)) {
      return s;
    }
    return Error::kOk;
  };
  if (multiplex_) {
    PAPIREPRO_RETURN_IF_ERROR(apply_domain(context_));
    mux_state_.assign(mux_plans_.size(), {});
    for (std::size_t g = 0; g < mux_plans_.size(); ++g) {
      mux_state_[g].accum.assign(mux_plans_[g].members.size(), 0);
    }
    mux_current_ = 0;
    PAPIREPRO_RETURN_IF_ERROR(program_mux_group(0));
    return Error::kOk;
  }
  // Program every component slice, ascending component order, unless
  // the thread's contexts already hold exactly this programming.
  if (!programmed) {
    for (ComponentSlice& slice : slices_) {
      attributed_component_ = slice.component;
      PAPIREPRO_RETURN_IF_ERROR(apply_domain(slice.context));
      PAPIREPRO_RETURN_IF_ERROR(slice.context->program(
          std::span<const pmu::NativeEventCode>(natives_)
              .subspan(slice.offset, slice.count),
          slice.assignment));
    }
  }
  attributed_component_ = 0;  // overflow arming is a CPU-core feature
  return arm_overflows();
}

Status EventSet::arm_overflows() {
  armed_event_indices_.clear();
  for (std::size_t i = 0; i < overflow_configs_.size(); ++i) {
    PAPIREPRO_RETURN_IF_ERROR(arm_overflow(i));
  }
  return Error::kOk;
}

void EventSet::dispatch_overflow(const OverflowConfig& config,
                                 const SubstrateOverflow& o) {
  // An interrupt in flight when clear_overflow() disarmed this config
  // still gets delivered (the PMU latches the handler at trigger time);
  // drop it here so a cleared event never dispatches again.
  if (config.retired.load(std::memory_order_acquire)) {
    library_.telemetry().bump(TelemetryCounter::kOverflowsSuppressed);
    return;
  }
  if (config.profile != nullptr) {
    config.profile->record(config.prefer_precise && o.has_precise
                               ? o.pc_precise
                               : o.pc_observed);
    return;
  }
  if (config.handler) {
    config.handler(*this, OverflowEvent{.event = config.id,
                                        .pc_observed = o.pc_observed,
                                        .pc_precise = o.pc_precise,
                                        .has_precise = o.has_precise,
                                        .addr = o.addr});
  }
}

Status EventSet::arm_overflow(std::size_t config_index) {
  // The armed callback owns its config through the shared_ptr: later
  // clear_overflow()/set_overflow() calls may erase or reallocate
  // overflow_configs_ without invalidating anything the substrate still
  // holds.
  std::shared_ptr<OverflowConfig> config = overflow_configs_[config_index];
  const int pos = find_entry(config->id);
  assert(pos >= 0);
  const Entry& entry = entries_[pos];
  assert(entry.terms.size() == 1);
  const auto event_index =
      static_cast<std::uint32_t>(entry.terms.front().native_index);
  Status armed = Error::kOk;
  if (async_active_) {
    // Deferred delivery: the interrupt-side callback is a wait-free,
    // allocation-free ring enqueue; the aggregator runs the heavy half.
    // The callback co-owns the ring — a late delivery after this run's
    // ring is replaced pushes into a detached (but live) ring and is
    // simply never drained.
    std::shared_ptr<SpscRing<SampleRecord>> ring = sample_ring_;
    const auto idx = static_cast<std::uint32_t>(config_index);
    // The registry outlives every armed callback (it is the Library's
    // first member); counter bumps are safe from the delivery context,
    // but no trace record here — tracing reads the counting thread's
    // clock, and deferred delivery may run elsewhere.
    TelemetryRegistry* telemetry = &library_.telemetry();
    armed = context_->set_overflow(
        event_index, config->threshold,
        [ring, idx, telemetry](const SubstrateOverflow& o) {
          const bool pushed = ring->try_push(SampleRecord{
              .config_index = idx,
              .has_precise = o.has_precise ? 1u : 0u,
              .pc_observed = o.pc_observed,
              .pc_precise = o.pc_precise,
              .addr = o.addr});
          telemetry->bump(pushed ? TelemetryCounter::kSamplesEnqueued
                                 : TelemetryCounter::kSamplesDropped);
        },
        OverflowDeliveryMode::kDeferred);
  } else {
    armed = context_->set_overflow(
        event_index, config->threshold,
        [this, config](const SubstrateOverflow& o) {
          // Synchronous delivery runs on the counting thread, so the
          // context clock is safe to stamp here.
          if (context_ != nullptr) {
            library_.telemetry().trace_instant(
                TraceEventKind::kOverflowDispatch, context_->cycles(),
                static_cast<std::uint64_t>(handle_));
          }
          dispatch_overflow(*config, o);
        },
        OverflowDeliveryMode::kSynchronous);
  }
  if (armed.ok()) armed_event_indices_.push_back(event_index);
  return armed;
}

void EventSet::disarm() {
  for (const std::uint32_t event_index : armed_event_indices_) {
    (void)context_->clear_overflow(event_index);
  }
  armed_event_indices_.clear();
  if (mux_timer_id_ >= 0) {
    (void)context_->cancel_timer(mux_timer_id_);
    mux_timer_id_ = -1;
  }
  if (ring_attached_) {
    // Synchronous drain: every sample enqueued before this point is
    // dispatched before detach() returns, so a stopped set's histogram
    // is complete (minus accounted drops).
    library_.sampling().detach(sample_ring_.get());
    ring_attached_ = false;
  }
  async_active_ = false;
}

void EventSet::preallocate_scratch() {
  // Size every buffer the running paths touch, so read()/accum()/stop()
  // and the mux slice rotation reuse capacity instead of allocating.
  raw_.assign(natives_.size(), 0);
  scratch_values_.assign(entries_.size(), 0);
  std::size_t max_group = 0;
  for (const MuxGroupPlan& plan : mux_plans_) {
    max_group = std::max(max_group, plan.members.size());
  }
  scratch_live_.assign(multiplex_ ? max_group : 0, 0);
  // Per-native fold/latch/flag state: last good values start at the
  // post-reset zero point, fidelity flags start clean.
  folds_.assign(natives_.size(), NativeFold{});
}

Status EventSet::start() {
  if (running()) return Error::kIsRunning;
  if (entries_.empty()) return Error::kInvalid;
  // Claim the calling thread's running slot; kIsRunning when another
  // set already runs on this thread (the per-thread rule).  Then bind
  // each component slice to this thread's context for that component
  // (component 0's exists from registration; the rest are created
  // lazily, on this thread, on first use).
  auto thread = library_.acquire_thread(this);
  if (!thread.ok()) return thread.error();
  ThreadRegistry::ThreadState& tstate = *thread.value();
  for (ComponentSlice& slice : slices_) {
    auto ctx = library_.component_context(tstate, slice.component);
    if (!ctx.ok()) {
      for (ComponentSlice& s : slices_) s.context = nullptr;
      library_.release_context(this);
      return ctx.error();
    }
    slice.context = ctx.value();
  }
  // The primary (lowest-component) context drives clocks, overflow, and
  // multiplexing; slices are never empty here (entries_ is not).
  context_ = slices_.front().context;

  // A restart on the thread that last programmed this set, unchanged
  // since, skips program(): real substrates program the kernel when a
  // set changes and only enable counters at start.  A substrate whose
  // allocation rules moved (sim estimation toggled) may now refuse the
  // programming, so that draws a new id.  Multiplexed sets always
  // program (rotation reprograms the context).  The tag is cleared
  // until this start succeeds, so a failed start reprograms next time.
  if (allocation_generation() != program_generation_) refresh_program_id();
  const bool programmed = !multiplex_ && tstate.programmed == program_id_;
  tstate.programmed = 0;

  // Delivery mode is latched per run from the library-wide sampling
  // config (read only when the run can sample: it takes the
  // aggregator's lock); the ring is created before the (retryable)
  // arming sequence and registered with the aggregator only once, after
  // success.
  async_active_ = false;
  if (!multiplex_ && !overflow_configs_.empty()) {
    const SamplingConfig sampling_config = library_.sampling().config();
    async_active_ = sampling_config.async;
    if (async_active_) {
      sample_ring_ = std::make_shared<SpscRing<SampleRecord>>(
          sampling_config.ring_capacity);
    }
  }

  auto abort_start = [this](Status status) {
    // A partially-armed run must not leave stale callbacks on the
    // context it is about to hand back.
    disarm();
    library_.release_context(this);
    context_ = nullptr;
    for (ComponentSlice& s : slices_) s.context = nullptr;
    return status;
  };
  // Transient substrate faults (a counter file briefly busy, an
  // interrupted syscall) are retried as one unit — program is idempotent
  // on a stopped context, so re-running the whole sequence is safe.
  // Slices start ascending by component; a mid-sequence failure unwinds
  // the already-started slices (descending) before the unit returns, so
  // a retry never observes a half-started fan-out.
  const Status started = library_.run_with_retries([&]() -> Status {
    // Health gate first: a quarantined slice rejects the whole start
    // fast (kComponentQuarantined is not transient, so the retry loop
    // never sleeps in backoff on a dead component).
    for (const ComponentSlice& slice : slices_) {
      attributed_component_ = slice.component;
      PAPIREPRO_RETURN_IF_ERROR(library_.health_admit(slice.component));
    }
    PAPIREPRO_RETURN_IF_ERROR(program_and_arm(programmed));
    for (ComponentSlice& slice : slices_) {
      attributed_component_ = slice.component;
      PAPIREPRO_RETURN_IF_ERROR(slice.context->reset_counts());
    }
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      attributed_component_ = slices_[i].component;
      const Status s = slices_[i].context->start();
      if (!s.ok()) {
        for (std::size_t j = i; j-- > 0;) (void)slices_[j].context->stop();
        return s;
      }
    }
    return Error::kOk;
  });
  if (!started.ok()) {
    library_.health_record(attributed_component_, started.error());
    return abort_start(started);
  }
  for (const ComponentSlice& slice : slices_) {
    library_.health_record(slice.component, Error::kOk);
  }
  if (!multiplex_) tstate.programmed = program_id_;
  state_ = State::kRunning;
  degradations_ = 0;
  preallocate_scratch();

  // Overhead attribution window: everything the context's clock charges
  // to measurement infrastructure between here and stop() is this run's
  // overhead; the wall window is its denominator.
  overhead_base_ = context_->overhead_cycles();
  window_base_ = context_->cycles();
  library_.telemetry().bump(TelemetryCounter::kStarts);
  for (const ComponentSlice& slice : slices_) {
    library_.telemetry().bump_component(slice.component,
                                        ComponentCounter::kStarts);
  }
  library_.telemetry().trace_instant(TraceEventKind::kStart, window_base_,
                                     static_cast<std::uint64_t>(handle_));

  if (async_active_) {
    // The dispatch closure owns a snapshot of the armed configs (each a
    // shared_ptr copy), so records drained after a clear_overflow() or
    // reconfiguration still resolve to live storage.
    std::vector<std::shared_ptr<OverflowConfig>> snapshot =
        overflow_configs_;
    library_.sampling().attach(
        sample_ring_.get(),
        [this, snapshot = std::move(snapshot)](const SampleRecord& r) {
          if (r.config_index >= snapshot.size()) return;
          dispatch_overflow(
              *snapshot[r.config_index],
              SubstrateOverflow{.event_index = 0,
                                .pc_observed = r.pc_observed,
                                .pc_precise = r.pc_precise,
                                .has_precise = r.has_precise != 0,
                                .addr = r.addr});
        });
    ring_attached_ = true;
  }

  // Arm wraparound folding against each component substrate's counter
  // width; the accumulators live in folds_ (zeroed by
  // preallocate_scratch above), the masks per slice.
  for (ComponentSlice& slice : slices_) {
    const std::uint32_t width =
        library_.component_substrate(slice.component)->counter_width_bits();
    slice.wrap_mask = width < 64 ? (1ULL << width) - 1 : ~0ULL;
  }

  // Counters are at the post-reset zero point: publish it so batch
  // readers on other threads see this set as running-from-zero rather
  // than serving the previous run's finals.
  publish_values({}, kPubRunning);

  if (multiplex_) {
    mux_window_start_ = mux_slice_start_ = context_->cycles();
    auto timer =
        context_->add_timer(mux_slice_cycles_, [this] { rotate_mux(); });
    if (!timer.ok()) {
      // Degradation ladder: no timer service — fall back to sequential
      // slices, rotated by read()/accum() instead of aborting the run.
      mux_timer_id_ = -1;
      degradations_ |= degradation::kMuxSequential;
      library_.telemetry().bump(TelemetryCounter::kDegradations);
      library_.telemetry().trace_instant(TraceEventKind::kDegrade,
                                         context_->cycles(),
                                         degradation::kMuxSequential);
    } else {
      mux_timer_id_ = timer.value();
    }
  }
  return Error::kOk;
}

void EventSet::rotate_mux() {
  if (!running() || mux_plans_.size() < 2) return;

  // One clock snapshot at entry, reused for both the closing slice's
  // active-cycle accounting and the opening slice's start mark: the
  // rotation's own stop/read/program overhead is charged to neither
  // slice (it used to inflate the closing slice's active window, biasing
  // its scale-up factor low).
  const std::uint64_t now = context_->cycles();

  // Close the current slice.
  (void)context_->stop();
  scratch_live_.assign(mux_plans_[mux_current_].members.size(), 0);
  (void)context_->read(scratch_live_);
  MuxGroupState& st = mux_state_[mux_current_];
  for (std::size_t i = 0; i < scratch_live_.size(); ++i) {
    st.accum[i] += scratch_live_[i];
  }
  st.active_cycles += now - mux_slice_start_;

  // Open the next one.
  mux_current_ = (mux_current_ + 1) % mux_plans_.size();
  (void)program_mux_group(mux_current_);
  (void)context_->reset_counts();
  (void)context_->start();
  mux_slice_start_ = now;

  TelemetryRegistry& telemetry = library_.telemetry();
  telemetry.bump(TelemetryCounter::kMuxRotations);
  if (telemetry.tracing()) {
    const std::uint64_t after = context_->cycles();
    telemetry.trace(TraceEventKind::kRotate, now,
                    after > now ? after - now : 0,
                    static_cast<std::uint64_t>(mux_current_));
  }
}

Status EventSet::serve_latched(const ComponentSlice& slice,
                               Status status) {
  // Partial-failure semantics: serve the last latched good values and
  // flag them.  read_ex() keeps going; read() propagates the error.
  const std::uint8_t fail_flags = static_cast<std::uint8_t>(
      read_flag::kStale | (status.error() == Error::kComponentQuarantined
                               ? read_flag::kQuarantined
                               : 0));
  for (std::size_t i = slice.offset; i < slice.offset + slice.count; ++i) {
    raw_[i] = folds_[i].latched;
    folds_[i].read_flags = folds_[i].sticky_flags | fail_flags;
  }
  return status;
}

inline Status EventSet::read_slice(ComponentSlice& slice) {
  if (multiplex_) [[unlikely]] return read_mux(slice);
  std::span<std::uint64_t> window(raw_.data() + slice.offset, slice.count);
  // Health breaker + retry wrapper around the substrate read; the
  // lambda captures by reference, so the hot path stays allocation-free,
  // and the component entry was resolved at rebuild() so the bracket is
  // two relaxed loads on one already-hot line.
  const Status status = library_.run_slice_op(
      *slice.comp, [&] { return slice.context->read(window); });
  if (!status.ok()) [[unlikely]] return serve_latched(slice, status);
  NativeFold* folds = folds_.data() + slice.offset;
  if (slice.wrap_mask == ~0ULL) {
    // Full-width counters count up monotonically from the start()/
    // reset() zero point; a regression is an impossible delta — flag
    // the native suspect (sticky) and serve the last good value rather
    // than silently trusting it.  Narrow counters cannot make this
    // call (a wrap is indistinguishable from a regression).
    for (std::size_t i = 0; i < slice.count; ++i) {
      NativeFold& f = folds[i];
      const std::uint64_t raw = window[i];
      if (raw < f.wrap_last) [[unlikely]] {
        f.sticky_flags |= read_flag::kSuspect;
        library_.telemetry().bump(TelemetryCounter::kSanityFaults);
        window[i] = f.latched;
      } else {
        f.wrap_last = raw;
        f.latched = raw;
      }
      f.read_flags = f.sticky_flags;
    }
    return Error::kOk;
  }
  // Narrow counters wrap: trust only the delta since the previous
  // read, folded modulo the counter width into the 64-bit
  // accumulator.  Any reader cadence faster than one wrap period
  // recovers exact totals.
  for (std::size_t i = 0; i < slice.count; ++i) {
    NativeFold& f = folds[i];
    const std::uint64_t raw = window[i] & slice.wrap_mask;
    f.wrap_accum += (raw - f.wrap_last) & slice.wrap_mask;
    f.wrap_last = raw;
    window[i] = f.wrap_accum;
    f.latched = f.wrap_accum;
    f.read_flags = f.sticky_flags;
  }
  return Error::kOk;
}

Status EventSet::read_mux(ComponentSlice& slice) {
  if ((degradations_ & degradation::kMuxSequential) != 0) {
    rotate_mux();  // sequential-slice fallback: reads drive rotation
  }
  // The clock is taken before the read, so the read's own cost is
  // billed to neither the window nor the open group.
  const std::uint64_t now = context_->cycles();
  const std::span<std::uint64_t> live(scratch_live_.data(),
                                      mux_plans_[mux_current_].members.size());
  const Status status = library_.run_slice_op(
      *slice.comp, [&] { return slice.context->read(live); });
  if (!status.ok()) return serve_latched(slice, status);
  const std::uint64_t window =
      now > mux_window_start_ ? now - mux_window_start_ : 0;
  for (std::size_t g = 0; g < mux_plans_.size(); ++g) {
    const MuxGroupPlan& plan = mux_plans_[g];
    const MuxGroupState& st = mux_state_[g];
    const bool open = g == mux_current_;
    std::uint64_t active = st.active_cycles;
    if (open && now > mux_slice_start_) active += now - mux_slice_start_;
    for (std::size_t i = 0; i < plan.members.size(); ++i) {
      const std::uint64_t raw = st.accum[i] + (open ? live[i] : 0);
      // Scale the observed counts up by the fraction of the window this
      // group was actually live — the estimation step whose convergence
      // Section 2 warns about.
      double scaled = static_cast<double>(raw);
      if (active > 0 && window > 0) {
        scaled *= static_cast<double>(window) / static_cast<double>(active);
      }
      raw_[slice.offset + plan.members[i]] =
          static_cast<std::uint64_t>(std::llround(scaled));
    }
  }
  // Estimates are 64-bit totals already, and they may dip between reads
  // as slices rotate: latch them, with nothing to fold and no monotonic
  // verdict to pass.
  for (std::size_t i = slice.offset; i < slice.offset + slice.count; ++i) {
    folds_[i].latched = raw_[i];
    folds_[i].read_flags = folds_[i].sticky_flags;
  }
  return Error::kOk;
}

inline void EventSet::compute_values(std::span<const std::uint64_t> raw,
                              std::span<long long> out) const {
  // Walks the rebuild-time flattened term array sequentially — no
  // per-entry vector indirection on the hot path.
  const std::size_t n = std::min(calc_.size(), out.size());
  if (terms_identity_) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<long long>(raw[i]);
    }
    return;
  }
  const FlatTerm* terms = flat_terms_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const EntryCalc c = calc_[i];
    long long v = 0;
    for (std::uint32_t t = 0; t < c.count; ++t) {
      const FlatTerm& ft = terms[c.begin + t];
      v += static_cast<long long>(ft.coefficient) *
           static_cast<long long>(raw[ft.native_index]);
    }
    out[i] = v;
  }
}

void EventSet::compute_flags(std::span<std::uint32_t> flags) const {
  // An event's fidelity is the OR over its term natives: one stale term
  // makes a derived value stale.
  const FlatTerm* terms = flat_terms_.data();
  const std::size_t n = std::min(calc_.size(), flags.size());
  for (std::size_t i = 0; i < n; ++i) {
    const EntryCalc c = calc_[i];
    std::uint32_t f = read_flag::kValid;
    for (std::uint32_t t = 0; t < c.count; ++t) {
      f |= folds_[terms[c.begin + t].native_index].read_flags;
    }
    flags[i] = f;
  }
}

std::uint32_t EventSet::folded_read_flags() const noexcept {
  std::uint32_t f = read_flag::kValid;
  for (const NativeFold& fold : folds_) f |= fold.read_flags;
  return f;
}

// --- cross-thread value publication ----------------------------------------

inline void EventSet::publish_values(std::span<const long long> values,
                              std::uint32_t pub_state) noexcept {
  // Stamp the publication age before opening the bracket: the stamp is
  // the liveness signal collectors key on (a publication whose stamp
  // stops advancing belongs to a stalled or dead rank).  The running
  // context's clock is authoritative while live; a stopped set has
  // released it, so fall back to the library's timer substrate.
  const std::uint64_t now = context_ != nullptr
                                ? context_->cycles()
                                : library_.real_cycles();
  Published& p = published_;
  const std::size_t n = std::min(calc_.size(), kMaxPublishedValues);
  const NativeFold* folds = folds_.data();
  // Every read publishes: the cell lambda is force-inlined like the
  // bracket, or GCC leaves it behind a call.
  p.lock.write([&]() __attribute__((always_inline)) {
    p.state.store(pub_state, std::memory_order_relaxed);
    p.pub_cycles.store(now, std::memory_order_relaxed);
    p.num_events.store(static_cast<std::uint32_t>(calc_.size()),
                       std::memory_order_relaxed);
    p.stored.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
    if (terms_identity_ && values.size() >= n) [[likely]] {
      // One fused pass, flags straight from the per-native fold records
      // — the steady-state read's publication cost is this loop plus
      // the seq bracket.
      for (std::size_t i = 0; i < n; ++i) {
        p.values[i].store(values[i], std::memory_order_relaxed);
        p.flags[i].store(folds[i].read_flags, std::memory_order_relaxed);
      }
      return;
    }
    const FlatTerm* terms = flat_terms_.data();
    for (std::size_t i = 0; i < n; ++i) {
      p.values[i].store(i < values.size() ? values[i] : 0,
                        std::memory_order_relaxed);
      const EntryCalc c = calc_[i];
      std::uint8_t f = 0;
      for (std::uint32_t t = 0; t < c.count; ++t) {
        f |= folds[terms[c.begin + t].native_index].read_flags;
      }
      p.flags[i].store(f, std::memory_order_relaxed);
    }
  });
}

void EventSet::publish_clear() noexcept {
  Published& p = published_;
  p.lock.write([&p] {
    p.state.store(kPubNeverRan, std::memory_order_relaxed);
    p.pub_cycles.store(0, std::memory_order_relaxed);
    p.num_events.store(0, std::memory_order_relaxed);
    p.stored.store(0, std::memory_order_relaxed);
  });
}

inline Status EventSet::read_pass(std::span<long long> out,
                                  std::span<std::uint32_t> flags,
                                  Pass pass) {
  TelemetryRegistry& telemetry = library_.telemetry();
  if (context_ == nullptr) {
    if (!stopped_raw_valid_) return Error::kNotRunning;
    // stop() persisted the snapshot's fidelity as the sticky flags, and
    // nothing has read the slices since: read_flags still equal them.
    telemetry.bump(TelemetryCounter::kReads);
    compute_values(raw_, out);
    if (!flags.empty()) compute_flags(flags);
    return Error::kOk;
  }
  const bool traced = pass != Pass::kFinal && telemetry.tracing();
  const std::uint64_t ts = traced ? context_->cycles() : 0;
  // Fan out across the component slices in ascending component order —
  // the coherent snapshot order every reader shares.  Slices partition
  // natives_ and read_slice overwrites its whole window, so raw_ needs
  // no zero-fill first.
  const bool all_or_nothing = pass == Pass::kRead || pass == Pass::kAccum;
  Status status = Error::kOk;
  std::size_t attempted = slices_.size();
  std::uint32_t failed = 0;  // bit i: slice i failed
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    const Status s = read_slice(slices_[i]);
    if (s.ok()) [[likely]] continue;
    failed |= 1u << i;
    if (status.ok()) status = s;
    if (all_or_nothing) {
      attempted = i + 1;
      break;
    }
  }
  if (pass != Pass::kFinal) {
    // One kReads per call, one component kReads per slice read; the
    // first slice's pair lands in one fused bump.
    if ((failed & 1u) == 0) {
      telemetry.bump_read(slices_.front().component);
    } else {
      telemetry.bump(TelemetryCounter::kReads);
    }
    for (std::size_t i = 1; i < attempted; ++i) {
      if (((failed >> i) & 1u) == 0) {
        telemetry.bump_component(slices_[i].component,
                                 ComponentCounter::kReads);
      }
    }
  }
  if (all_or_nothing && !status.ok()) return status;
  compute_values(raw_, out);
  if (!flags.empty()) compute_flags(flags);
  if (pass == Pass::kRead || pass == Pass::kPartial) {
    publish_values(out, kPubRunning);
  }
  if (traced) {
    const std::uint64_t after = context_->cycles();
    telemetry.trace(TraceEventKind::kRead, ts, after > ts ? after - ts : 0,
                    static_cast<std::uint64_t>(handle_));
  }
  return pass == Pass::kPartial ? Status() : status;
}

Status EventSet::read(std::span<long long> out) {
  if (out.size() < entries_.size()) return Error::kInvalid;
  return read_pass(out, {}, Pass::kRead);
}

Status EventSet::read_ex(std::span<long long> out,
                         std::span<std::uint32_t> flags) {
  if (out.size() < entries_.size() || flags.size() < entries_.size()) {
    return Error::kInvalid;
  }
  return read_pass(out, flags, Pass::kPartial);
}

Status EventSet::accum(std::span<long long> inout) {
  if (inout.size() < entries_.size()) return Error::kInvalid;
  library_.telemetry().bump(TelemetryCounter::kAccums);
  PAPIREPRO_RETURN_IF_ERROR(read_pass(scratch_values_, {}, Pass::kAccum));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    inout[i] += scratch_values_[i];
  }
  return reset();  // publishes the zeroed counters: accum's one publication
}

Status EventSet::reset() {
  library_.telemetry().bump(TelemetryCounter::kResets);
  // When stopped there is no context and nothing live to reset: just
  // drop the snapshot so read() reports kNotRunning again.
  if (running()) {
    for (ComponentSlice& slice : slices_) {
      PAPIREPRO_RETURN_IF_ERROR(slice.context->reset_counts());
    }
  }
  for (NativeFold& f : folds_) f = NativeFold{};
  if (multiplex_) {
    for (auto& st : mux_state_) {
      std::fill(st.accum.begin(), st.accum.end(), 0ULL);
      st.active_cycles = 0;
    }
    if (running()) {
      mux_window_start_ = mux_slice_start_ = context_->cycles();
    }
  }
  stopped_raw_valid_ = false;
  if (running()) {
    publish_values({}, kPubRunning);  // batched readers see zeros, not stale
  } else {
    publish_clear();
  }
  return Error::kOk;
}

Status EventSet::stop(std::span<long long> out) {
  if (!running()) return Error::kNotRunning;
  // Validate before stopping, as read() does: a short `out` must leave
  // the set running with its values intact, not stopped with them lost.
  if (!out.empty() && out.size() < entries_.size()) return Error::kInvalid;

  // Stop descending by component — the mirror image of start()'s
  // ascending order, so the snapshot window nests coherently.  Every
  // slice is attempted (through its breaker): a quarantined or failing
  // component records the first error but cannot leave the healthy
  // slices counting, and must not abort the unwind mid-way (the context
  // would never release).
  Status partial = Error::kOk;
  for (std::size_t i = slices_.size(); i-- > 0;) {
    ComponentSlice& slice = slices_[i];
    const Status s = library_.run_slice_op(
        *slice.comp, [&] { return slice.context->stop(); });
    if (!s.ok() && partial.ok()) partial = s;
  }
  state_ = State::kStopped;
  // Resilient final snapshot of the halted counters into raw_, which
  // reads of the stopped set then serve: a failing slice latches its
  // last good values instead of losing the healthy slices' finals, and
  // the snapshot's fidelity bits persist so read_ex() after stop()
  // reports it.
  const Status final_read = read_pass(scratch_values_, {}, Pass::kFinal);
  if (!final_read.ok() && partial.ok()) partial = final_read;
  for (NativeFold& f : folds_) f.sticky_flags = f.read_flags;
  stopped_raw_valid_ = true;

  // Disarm before the context goes back to the library: the substrate
  // keeps callbacks armed until told otherwise, and the next user of
  // this thread's context must not inherit them.  In async mode this
  // also drains the ring, completing the histogram.
  disarm();

  // Close the attribution window while the context is still ours: its
  // overhead clock keeps running for the thread's next user.
  const std::uint64_t overhead_now = context_->overhead_cycles();
  if (overhead_now > overhead_base_) {
    total_overhead_cycles_ += overhead_now - overhead_base_;
  }
  const std::uint64_t clock_now = context_->cycles();
  if (clock_now > window_base_) {
    total_window_cycles_ += clock_now - window_base_;
  }
  library_.telemetry().bump(TelemetryCounter::kStops);
  for (const ComponentSlice& slice : slices_) {
    library_.telemetry().bump_component(slice.component,
                                        ComponentCounter::kStops);
  }
  library_.telemetry().trace_instant(TraceEventKind::kStop, clock_now,
                                     static_cast<std::uint64_t>(handle_));

  // Publish the final totals so batched readers on other threads keep
  // seeing this set's values after it stops.
  publish_values(scratch_values_, kPubStopped);
  library_.release_context(this);
  context_ = nullptr;
  for (ComponentSlice& slice : slices_) slice.context = nullptr;
  if (!out.empty()) {
    std::copy(scratch_values_.begin(), scratch_values_.end(), out.begin());
  }
  return partial;
}

Status EventSet::set_overflow(EventId id, std::uint64_t threshold,
                              OverflowHandler handler) {
  auto config = std::make_shared<OverflowConfig>();
  config->handler = std::move(handler);
  return install_overflow(id, threshold, std::move(config));
}

Status EventSet::install_overflow(EventId id, std::uint64_t threshold,
                                  std::shared_ptr<OverflowConfig> config) {
  if (running()) return Error::kIsRunning;
  if (multiplex_) return Error::kConflict;  // PAPI: no overflow while muxed
  // Overflow interrupts are a CPU-core (component 0) feature: the sim
  // memory/network substrates have no interrupt line.
  if (id.component != 0) return Error::kNoSupport;
  // A config must deliver somewhere: set_overflow() with a null handler
  // has nowhere to (profil() always brings its buffer).
  if (threshold == 0 || (!config->handler && config->profile == nullptr)) {
    return Error::kInvalid;
  }
  const int pos = find_entry(id);
  if (pos < 0) return Error::kNoEvent;
  if (entries_[pos].terms.size() != 1 ||
      entries_[pos].terms.front().coefficient != 1) {
    return Error::kInvalid;  // overflow on derived events is not allowed
  }
  clear_overflow(id).ok();  // replace any prior config
  config->id = id;
  config->threshold = threshold;
  overflow_configs_.push_back(std::move(config));
  return Error::kOk;
}

Status EventSet::clear_overflow(EventId id) {
  const auto it = std::find_if(
      overflow_configs_.begin(), overflow_configs_.end(),
      [&](const std::shared_ptr<OverflowConfig>& c) { return c->id == id; });
  if (it == overflow_configs_.end()) return Error::kNoEvent;
  if (running()) {
    // Disarm at the substrate first — erasing only the config used to
    // leave the armed callback firing into freed state for the rest of
    // the run (and beyond: the context is shared across runs).
    const int pos = find_entry(id);
    if (pos >= 0 && !entries_[pos].terms.empty()) {
      const auto event_index =
          static_cast<std::uint32_t>(entries_[pos].terms.front().native_index);
      (void)context_->clear_overflow(event_index);
      armed_event_indices_.erase(
          std::remove(armed_event_indices_.begin(),
                      armed_event_indices_.end(), event_index),
          armed_event_indices_.end());
    }
    // Samples already enqueued dispatch now (they occurred while
    // armed); nothing for `id` can arrive after the disarm above.
    if (ring_attached_) library_.sampling().flush(sample_ring_.get());
  }
  // An interrupt the PMU latched before the disarm may still be in
  // flight; mark the config retired so dispatch drops it on delivery.
  (*it)->retired.store(true, std::memory_order_release);
  overflow_configs_.erase(it);
  return Error::kOk;
}

Status EventSet::profil(ProfileBuffer& buffer, EventId id,
                        std::uint64_t threshold, bool prefer_precise) {
  auto config = std::make_shared<OverflowConfig>();
  config->profile = &buffer;
  config->prefer_precise = prefer_precise;
  return install_overflow(id, threshold, std::move(config));
}

Status EventSet::profil_stop(EventId id) { return clear_overflow(id); }

// --- self-overhead attribution --------------------------------------------

std::uint64_t EventSet::overhead_cycles() const noexcept {
  std::uint64_t total = total_overhead_cycles_;
  if (running() && context_ != nullptr) {
    const std::uint64_t now = context_->overhead_cycles();
    if (now > overhead_base_) total += now - overhead_base_;
  }
  return total;
}

std::uint64_t EventSet::measured_cycles() const noexcept {
  std::uint64_t total = total_window_cycles_;
  if (running() && context_ != nullptr) {
    const std::uint64_t now = context_->cycles();
    if (now > window_base_) total += now - window_base_;
  }
  return total;
}

double EventSet::overhead_ratio() const noexcept {
  const std::uint64_t window = measured_cycles();
  if (window == 0) return 0.0;
  return static_cast<double>(overhead_cycles()) /
         static_cast<double>(window);
}

}  // namespace papirepro::papi
