#include "core/library.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>

#include "substrate/preset_maps.h"

namespace papirepro::papi {

namespace {

unsigned long default_thread_id() {
  return static_cast<unsigned long>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

/// Monotonic source of Library::instance_token_ values (never reused,
/// so a stale thread-local cache can never match a new Library).
std::atomic<std::uint64_t> next_library_token{1};

/// Per-thread memo of this thread's registry slot: repeat start()/read()
/// on the same thread skip the ThreadRegistry shared_mutex entirely.
/// Valid only while `token` matches the Library asking; cleared by
/// Library::unregister_thread (erase_current frees the ThreadState, and
/// only the owning thread can erase itself, so clearing here is safe
/// and sufficient — no other thread can hold a cache for this slot).
struct TlsContextCache {
  std::uint64_t token = 0;
  ThreadRegistry::ThreadState* state = nullptr;
};
thread_local TlsContextCache tls_context_cache;

}  // namespace

Library::Library(std::unique_ptr<Substrate> substrate)
    : instance_token_(
          next_library_token.fetch_add(1, std::memory_order_relaxed)) {
  assert(substrate != nullptr);
  substrate_ = substrate.get();
  // Component 0 is always the CPU core: every pre-component call site
  // (unqualified event names, bare native codes) resolves against it.
  // The description is read before std::move(substrate): argument
  // evaluation order is unspecified.
  std::string cpu_description(substrate->name());
  const auto added = components_.add("cpu", std::move(cpu_description),
                                     std::move(substrate));
  assert(added.ok());
  (void)added;
  substrate_->bind_telemetry(&telemetry_);
  sampling_.bind_telemetry(&telemetry_);
  // Component 0's health monitor uses the CPU substrate as its cool-down
  // clock (every component does — one time base for the whole breaker).
  components_.at(0)->health.bind(&telemetry_, substrate_, 0);
}

Library::~Library() {
  // Stop every running set.  By now user threads must have quiesced (the
  // Library outlives its users); stop() releases each thread's running
  // slot, so don't hold the registry lock while calling it.
  for (EventSet* set : threads_.running_sets()) {
    (void)set->stop();
  }
  // Handle-table chunks are only ever freed here, after all user threads
  // (and thus all lock-free readers) have quiesced.
  for (auto& chunk_slot : set_chunks_) {
    delete[] chunk_slot.load(std::memory_order_acquire);
  }
  // PAPIREPRO_TELEMETRY=stderr|<path>: at-shutdown summary of the
  // library's own behaviour, for runs that never call the C API.
  if (const char* dest = std::getenv("PAPIREPRO_TELEMETRY")) {
    if (*dest != '\0') {
      const std::string summary =
          TelemetryRegistry::render_summary(telemetry_snapshot());
      if (std::strcmp(dest, "stderr") == 0) {
        std::fputs(summary.c_str(), stderr);
      } else {
        std::ofstream out(dest, std::ios::app);
        if (out) out << summary;
      }
    }
  }
}

TelemetrySnapshot Library::telemetry_snapshot() const {
  TelemetrySnapshot snap = telemetry_.snapshot();
  snap.num_components = components_.size();
  const SamplingStats sampling = sampling_.stats();
  snap.sampling_sweeps = sampling.sweeps;
  snap.sampling_flushes = sampling.flushes;
  snap.sampling_rings_active = sampling.rings_active;
  snap.sampling_ring_capacity = sampling.ring_capacity;
  snap.sampling_async = sampling.async;
  return snap;
}

Status Library::set_trace(bool enabled, std::size_t ring_capacity) {
  return telemetry_.set_trace(
      enabled, ring_capacity == 0 ? TelemetryRegistry::kDefaultTraceCapacity
                                  : ring_capacity);
}

// --- components ----------------------------------------------------------

Result<std::uint32_t> Library::register_component(
    std::string name, std::string description,
    std::unique_ptr<Substrate> substrate) {
  Substrate* raw = substrate.get();
  auto added = components_.add(std::move(name), std::move(description),
                               std::move(substrate));
  if (added.ok()) {
    raw->bind_telemetry(&telemetry_);
    // New components inherit the library-wide health policy in force.
    Component* component = components_.at(added.value());
    component->health.bind(&telemetry_, substrate_, added.value());
    component->health.set_policy(components_.at(0)->health.policy());
  }
  return added;
}

Result<ComponentInfo> Library::component_info(std::uint32_t id) const {
  const Component* component = components_.at(id);
  if (component == nullptr) return Error::kNoComponent;
  ComponentInfo info;
  info.id = component->id;
  info.name = component->name;
  info.description = component->description;
  info.num_counters = component->substrate->num_counters();
  info.enabled = component->enabled.load(std::memory_order_relaxed);
  return info;
}

Result<std::uint32_t> Library::component_by_name(
    std::string_view name) const {
  const Component* component = components_.find(name);
  if (component == nullptr) return Error::kNoComponent;
  return component->id;
}

Status Library::set_component_enabled(std::uint32_t id, bool enabled) {
  Component* component = components_.at(id);
  if (component == nullptr) return Error::kNoComponent;
  component->enabled.store(enabled, std::memory_order_relaxed);
  return Error::kOk;
}

Status Library::set_health_policy(const HealthPolicy& policy) {
  if (policy.failure_rate_threshold < 0.0 ||
      policy.failure_rate_threshold > 1.0 ||
      policy.max_consecutive_exhaustions < 1 ||
      policy.probation_successes < 1 ||
      policy.probe_cooldown_max_usec < policy.probe_cooldown_usec) {
    return Error::kInvalid;
  }
  for (std::uint32_t id = 0; id < components_.size(); ++id) {
    components_.at(id)->health.set_policy(policy);
  }
  return Error::kOk;
}

HealthPolicy Library::health_policy() const {
  return components_.at(0)->health.policy();
}

Result<ComponentHealth> Library::component_health(std::uint32_t id) const {
  const Component* component = components_.at(id);
  if (component == nullptr) return Error::kNoComponent;
  return component->health.snapshot();
}

// --- event namespace -----------------------------------------------------

bool Library::query_event(EventId id) const {
  const Component* component = components_.at(id.component);
  if (component == nullptr) return false;
  if (id.is_preset()) {
    return component->substrate->preset_mapping(id.as_preset()).ok();
  }
  return component->substrate->native_name(id.as_native()).ok();
}

Result<std::string> Library::event_name(EventId id) const {
  const Component* component = components_.at(id.component);
  if (component == nullptr) return Error::kNoComponent;
  std::string bare;
  if (id.is_preset()) {
    if (!query_event(id)) return Error::kNoEvent;
    bare = std::string(preset_name(id.as_preset()));
  } else {
    auto native = component->substrate->native_name(id.as_native());
    if (!native.ok()) return native.error();
    bare = std::move(native).value();
  }
  // Component-0 names stay bare (legacy round-trip); other components
  // render namespace-qualified so the name resolves back to the same id.
  if (id.component == 0) return bare;
  return component->name + "::" + bare;
}

Result<std::string> Library::event_description(EventId id) const {
  const Component* component = components_.at(id.component);
  if (component == nullptr) return Error::kNoComponent;
  if (id.is_preset()) {
    if (!query_event(id)) return Error::kNoEvent;
    return std::string(preset_description(id.as_preset()));
  }
  return component->substrate->native_description(id.as_native());
}

Result<EventId> Library::event_from_name(std::string_view name) const {
  const auto sep = name.find("::");
  if (sep != std::string_view::npos) {
    const std::string_view prefix = name.substr(0, sep);
    const std::string_view rest = name.substr(sep + 2);
    const Component* component = components_.find(prefix);
    if (component == nullptr) return Error::kNoComponent;
    // Preset names resolve with or without the PAPI_ prefix
    // ("cpu::TOT_CYC" == "cpu::PAPI_TOT_CYC").
    auto preset = preset_from_name(rest);
    if (!preset) {
      preset = preset_from_name("PAPI_" + std::string(rest));
    }
    if (preset) {
      if (!component->substrate->preset_mapping(*preset).ok()) {
        return Error::kNoEvent;
      }
      return EventId::preset(*preset, component->id);
    }
    auto native = component->substrate->native_by_name(rest);
    if (!native.ok()) return native.error();
    return EventId::native(native.value(), component->id);
  }
  if (const auto preset = preset_from_name(name)) {
    const EventId id = EventId::preset(*preset);
    if (!query_event(id)) return Error::kNoEvent;
    return id;
  }
  auto native = substrate_->native_by_name(name);
  if (!native.ok()) return native.error();
  return EventId::native(native.value());
}

std::vector<Preset> Library::available_presets() const {
  std::vector<Preset> out;
  for (std::size_t i = 0; i < kNumPresets; ++i) {
    const auto p = static_cast<Preset>(i);
    if (substrate_->preset_mapping(p).ok()) out.push_back(p);
  }
  return out;
}

// --- threads -------------------------------------------------------------

Status Library::thread_init(ThreadIdFn id_fn) {
  if (!id_fn) return Error::kInvalid;
  writer_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(id_fn_mutex_);
  id_fn_ = std::move(id_fn);
  has_id_fn_.store(true, std::memory_order_release);
  return Error::kOk;
}

bool Library::threaded() const noexcept {
  // Lock-free: the flag is release-published after the function object
  // is installed, and thread_init never uninstalls it.
  return has_id_fn_.load(std::memory_order_acquire);
}

// --- transient-fault hardening ---------------------------------------------

Status Library::set_retry_policy(const RetryPolicy& policy) {
  if (policy.max_attempts < 1) return Error::kInvalid;
  retry_max_attempts_.store(policy.max_attempts,
                            std::memory_order_relaxed);
  retry_backoff_usec_.store(policy.backoff_base_usec,
                            std::memory_order_relaxed);
  return Error::kOk;
}

// --- asynchronous sampling pipeline -----------------------------------------

Status Library::configure_sampling(const SamplingConfig& config) {
  if (config.ring_capacity > SpscRing<SampleRecord>::kMaxCapacity) {
    return Error::kInvalid;
  }
  sampling_.configure(config);
  return Error::kOk;
}

RetryPolicy Library::retry_policy() const {
  RetryPolicy policy;
  policy.max_attempts = retry_max_attempts_.load(std::memory_order_relaxed);
  policy.backoff_base_usec =
      retry_backoff_usec_.load(std::memory_order_relaxed);
  return policy;
}

void Library::backoff_before_retry(int attempt) const {
  const std::uint64_t base =
      retry_backoff_usec_.load(std::memory_order_relaxed);
  if (base > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(base << (attempt - 1)));
  }
}

Result<ThreadRegistry::ThreadState*> Library::current_thread_state() {
  if (tls_context_cache.token == instance_token_) {
    return tls_context_cache.state;  // steady state: no registry lock
  }
  if (ThreadRegistry::ThreadState* state = threads_.find_current()) {
    tls_context_cache = {instance_token_, state};
    return state;
  }
  unsigned long numeric_id = 0;
  if (has_id_fn_.load(std::memory_order_acquire)) {
    // Registration slow path only — steady-state reads never get here.
    writer_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(id_fn_mutex_);
    numeric_id = id_fn_ ? id_fn_() : default_thread_id();
  } else {
    numeric_id = default_thread_id();
  }
  // Claim the registry slot first so the numeric id is assigned exactly
  // once (the id function may not be idempotent), then create the
  // context.  A failed create must release the claim, or the partial
  // slot would shadow this thread forever and no retry could succeed.
  ThreadRegistry::ThreadState& state = threads_.claim_current(numeric_id);
  if (state.context != nullptr) {  // raced our own claim
    tls_context_cache = {instance_token_, &state};
    return &state;
  }
  std::unique_ptr<CounterContext> context;
  const Status created = run_slice_op(0, [&] {
    auto attempt = substrate_->create_context();
    if (!attempt.ok()) return Status(attempt.error());
    context = std::move(attempt).value();
    return Status();
  });
  if (!created.ok()) {
    threads_.release_partial_current();
    return created.error();
  }
  state.context = std::move(context);
  tls_context_cache = {instance_token_, &state};
  return &state;
}

Result<unsigned long> Library::thread_id() {
  auto state = current_thread_state();
  if (!state.ok()) return state.error();
  return state.value()->numeric_id;
}

Status Library::register_thread() {
  auto state = current_thread_state();
  return state.ok() ? Status() : state.error();
}

Status Library::unregister_thread() {
  const Status erased = threads_.erase_current();
  // The erase frees this thread's ThreadState, so drop the thread-local
  // pointer to it.  Only the owning thread can erase itself (and this IS
  // that thread), so no other thread's cache can reference the slot.
  if (erased.ok() && tls_context_cache.token == instance_token_) {
    tls_context_cache = {};
  }
  return erased;
}

Result<ThreadRegistry::ThreadState*> Library::acquire_thread(
    EventSet* set) {
  auto state = current_thread_state();
  if (!state.ok()) return state.error();
  EventSet* expected = nullptr;
  if (!state.value()->running.compare_exchange_strong(
          expected, set, std::memory_order_acq_rel) &&
      expected != set) {
    // Per-thread one-running-EventSet rule: another set on *this* thread
    // is already counting.  A set running on a different thread is fine.
    return Error::kIsRunning;
  }
  return state.value();
}

Result<CounterContext*> Library::component_context(
    ThreadRegistry::ThreadState& state, std::uint32_t component) {
  if (component == 0) return state.context.get();
  Component* entry = components_.at(component);
  if (entry == nullptr) return Error::kNoComponent;
  auto& slot = state.component_contexts[component];
  if (slot == nullptr) {
    // Lazy creation on the owning thread: thread-aware component
    // substrates bind the context to the calling thread's domain (its
    // machine, its rank), so this must not happen at registration time
    // on someone else's thread.
    std::unique_ptr<CounterContext> context;
    const Status created = run_slice_op(component, [&] {
      auto attempt = entry->substrate->create_context();
      if (!attempt.ok()) return Status(attempt.error());
      context = std::move(attempt).value();
      return Status();
    });
    if (!created.ok()) return created.error();
    slot = std::move(context);
  }
  return slot.get();
}

void Library::release_context(EventSet* set) {
  // Common case: the stop() runs on the thread that started the set, so
  // its own slot (thread-locally cached) holds it — release without
  // touching the registry lock.
  if (tls_context_cache.token == instance_token_ &&
      tls_context_cache.state != nullptr) {
    EventSet* expected = set;
    if (tls_context_cache.state->running.compare_exchange_strong(
            expected, nullptr, std::memory_order_acq_rel)) {
      return;
    }
  }
  // Cross-thread stop (the destructor does this): scan for whichever
  // thread's slot holds `set`.
  if (ThreadRegistry::ThreadState* state = threads_.find_running(set)) {
    state->running.store(nullptr, std::memory_order_release);
  }
}

// --- EventSets -----------------------------------------------------------

std::atomic<EventSet*>* Library::set_slot(int handle) const noexcept {
  if (handle <= 0) return nullptr;
  const std::size_t idx = static_cast<std::size_t>(handle) - 1;
  const std::size_t chunk_idx = idx >> kSetChunkShift;
  if (chunk_idx >= kMaxSetChunks) return nullptr;
  std::atomic<EventSet*>* chunk =
      set_chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk[idx & (kSetChunkSlots - 1)];
}

EventSet* Library::find_set(int handle) const noexcept {
  std::atomic<EventSet*>* slot = set_slot(handle);
  // seq_cst slot load: participates in the reclamation protocol's single
  // total order (see EpochPin) so a pinned reader either sees the set or
  // provably pinned after its unpublish.
  return slot != nullptr ? slot->load(std::memory_order_seq_cst) : nullptr;
}

Result<int> Library::create_event_set() {
  writer_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(sets_mutex_);
  int handle = 0;
  if (!free_handles_.empty()) {
    handle = free_handles_.back();
    free_handles_.pop_back();
  } else if (static_cast<std::size_t>(next_handle_) >
             kMaxSetChunks * kSetChunkSlots) {
    return Error::kNoMemory;  // handle space exhausted
  } else {
    handle = next_handle_++;
  }
  const std::size_t idx = static_cast<std::size_t>(handle) - 1;
  const std::size_t chunk_idx = idx >> kSetChunkShift;
  std::atomic<EventSet*>* chunk =
      set_chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    // Value-initialized: every slot is null before the release store
    // publishes the chunk to lock-free readers.  Chunks are never freed
    // before the Library dies.
    chunk = new std::atomic<EventSet*>[kSetChunkSlots]();
    set_chunks_[chunk_idx].store(chunk, std::memory_order_release);
  }
  auto set = std::unique_ptr<EventSet>(new EventSet(*this, handle));
  EventSet* raw = set.get();
  sets_.emplace(handle, std::move(set));
  num_sets_.fetch_add(1, std::memory_order_relaxed);
  // Publish last, after the set is fully constructed and owned.
  chunk[idx & (kSetChunkSlots - 1)].store(raw, std::memory_order_seq_cst);
  return handle;
}

Result<EventSet*> Library::event_set(int handle) {
  EventSet* set = find_set(handle);  // lock-free: two atomic loads
  if (set == nullptr) return Error::kNoEventSet;
  return set;
}

void Library::reclaim_retired_locked() {
  if (graveyard_.empty()) return;
  // A retired set is freeable once every pinned reader's epoch is at or
  // past its retire epoch: such a pin's seq_cst global-epoch load came
  // after the retire bump, therefore after the unpublish, so that
  // reader's table walk can only have seen null for this handle.
  const std::uint64_t min_pin = threads_.min_active_epoch();
  std::erase_if(graveyard_, [&](const RetiredSet& retired) {
    return retired.retire_epoch <= min_pin;
  });
}

Status Library::destroy_event_set(int handle) {
  writer_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(sets_mutex_);
  const auto it = sets_.find(handle);
  if (it == sets_.end()) return Error::kNoEventSet;
  if (it->second->running()) return Error::kIsRunning;
  // 1. Unpublish: lock-free readers stop finding the set.
  set_slot(handle)->store(nullptr, std::memory_order_seq_cst);
  // 2. Retire under the epoch that exists *after* the unpublish; readers
  //    pinned before it may still hold the pointer, so the storage moves
  //    to the graveyard instead of being freed.
  const std::uint64_t retire =
      global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  graveyard_.push_back({std::move(it->second), retire});
  sets_.erase(it);
  num_sets_.fetch_sub(1, std::memory_order_relaxed);
  free_handles_.push_back(handle);
  // 3. Opportunistically free whatever prior retirees have quiesced.
  reclaim_retired_locked();
  return Error::kOk;
}

std::size_t Library::retired_sets_pending() const {
  const std::lock_guard<std::mutex> lock(sets_mutex_);
  return graveyard_.size();
}

// --- batched snapshot reads ----------------------------------------------

EventSet* Library::current_running() const noexcept {
  if (tls_context_cache.token == instance_token_ &&
      tls_context_cache.state != nullptr) {
    return tls_context_cache.state->running.load(std::memory_order_acquire);
  }
  if (ThreadRegistry::ThreadState* state = threads_.find_current()) {
    return state->running.load(std::memory_order_acquire);
  }
  return nullptr;
}

Status Library::batch_fill(EventSet& set, EventSet* my_running,
                           std::span<long long> values, std::size_t& used,
                           SnapshotEntry& e) {
  e = SnapshotEntry{.handle = set.handle(),
                    .first_value = static_cast<std::uint32_t>(used)};
  const std::span<long long> out = values.subspan(used);
  if (&set != my_running) {
    if (set.published_.num_events.load(std::memory_order_acquire) >
        out.size()) {
      return Error::kInvalid;  // caller's values buffer is too small
    }
    set.read_published_into(out, e);
  } else {
    const std::size_t n = set.entries_.size();
    if (n > out.size()) return Error::kInvalid;
    const Status s = set.read(out.first(n));
    if (s.ok()) {
      e.num_values = static_cast<std::uint32_t>(n);
      e.flags = set.folded_read_flags();
      // The live read just republished: its stamp is the read time.
      e.pub_cycles =
          set.published_.pub_cycles.load(std::memory_order_relaxed);
    } else if (s.error() == Error::kNotRunning) {
      e.status = s.error();
    } else {
      // The live read failed (quarantine, substrate fault): serve the
      // last publication and mark the provenance instead of failing the
      // batch.
      set.read_published_into(out, e);
      e.flags |= read_flag::kStale;
      if (s.error() == Error::kComponentQuarantined) {
        e.flags |= read_flag::kQuarantined;
      }
    }
  }
  used += e.num_values;
  return Error::kOk;
}

Status Library::read_many(std::span<EventSet* const> sets,
                          std::span<long long> values,
                          std::span<SnapshotEntry> entries,
                          std::size_t* values_used) {
  if (values_used != nullptr) *values_used = 0;
  if (entries.size() < sets.size()) return Error::kInvalid;
  // Resolve the calling thread's context once for the whole batch.
  EventSet* const my_running = current_running();
  std::size_t used = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (sets[i] == nullptr) return Error::kInvalid;
    PAPIREPRO_RETURN_IF_ERROR(
        batch_fill(*sets[i], my_running, values, used, entries[i]));
  }
  if (values_used != nullptr) *values_used = used;
  return Error::kOk;
}

Status Library::read_many_handles(std::span<const int> handles,
                                  std::span<long long> values,
                                  std::span<SnapshotEntry> entries,
                                  std::size_t* values_used) {
  if (values_used != nullptr) *values_used = 0;
  if (entries.size() < handles.size()) return Error::kInvalid;
  auto state = current_thread_state();
  if (!state.ok()) return state.error();
  EventSet* const my_running =
      state.value()->running.load(std::memory_order_acquire);
  // Handle resolution happens inside the pin: a concurrent destroy of
  // any of these sets parks the storage in the graveyard until we drop
  // the pin, so the pointers stay valid for the whole batch.
  const EpochPin pin(*this, *state.value());
  std::size_t used = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EventSet* set = find_set(handles[i]);
    if (set == nullptr) {
      // Per-entry, not a batch failure.
      entries[i] = SnapshotEntry{
          .handle = handles[i],
          .first_value = static_cast<std::uint32_t>(used),
          .status = Error::kNoEventSet};
      continue;
    }
    PAPIREPRO_RETURN_IF_ERROR(
        batch_fill(*set, my_running, values, used, entries[i]));
  }
  if (values_used != nullptr) *values_used = used;
  return Error::kOk;
}

Status Library::snapshot_all(std::vector<SnapshotEntry>& entries,
                             std::vector<long long>& values) {
  // Thin grow-and-retry wrapper over the span overload: the hot walk
  // runs over plain spans with no per-set vector bookkeeping (the
  // earlier resize-per-set/push_back-per-set loop cost more than the
  // seqlock copies it fed).  A warm caller's capacity survives the
  // trailing shrink, so steady state is one span pass per call.
  entries.resize(std::max<std::size_t>(entries.capacity(), 64));
  values.resize(std::max<std::size_t>(values.capacity(), 256));
  for (;;) {
    std::size_t n_entries = 0;
    std::size_t n_values = 0;
    const Status s = snapshot_all(std::span<SnapshotEntry>(entries),
                                  std::span<long long>(values), &n_entries,
                                  &n_values);
    if (s.ok()) {
      entries.resize(n_entries);
      values.resize(n_values);
      return s;
    }
    if (s.error() != Error::kInvalid) {
      entries.clear();
      values.clear();
      return s;
    }
    // Undersized for the current registry: kInvalid from the span
    // overload only means one of the two buffers ran out.
    entries.resize(entries.size() * 2);
    values.resize(values.size() * 2);
  }
}

Status Library::snapshot_all(std::span<SnapshotEntry> entries,
                             std::span<long long> values,
                             std::size_t* entries_used,
                             std::size_t* values_used) {
  if (entries_used != nullptr) *entries_used = 0;
  if (values_used != nullptr) *values_used = 0;
  auto state = current_thread_state();
  if (!state.ok()) return state.error();
  EventSet* const my_running =
      state.value()->running.load(std::memory_order_acquire);
  const EpochPin pin(*this, *state.value());
  std::size_t n_entries = 0;
  std::size_t used = 0;
  for (std::size_t chunk_idx = 0; chunk_idx < kMaxSetChunks; ++chunk_idx) {
    std::atomic<EventSet*>* chunk =
        set_chunks_[chunk_idx].load(std::memory_order_acquire);
    if (chunk == nullptr) break;
    for (std::size_t s = 0; s < kSetChunkSlots; ++s) {
      EventSet* set = chunk[s].load(std::memory_order_seq_cst);
      if (set == nullptr) continue;
      if (n_entries == entries.size()) return Error::kInvalid;
      PAPIREPRO_RETURN_IF_ERROR(batch_fill(*set, my_running, values, used,
                                           entries[n_entries]));
      ++n_entries;
    }
  }
  if (entries_used != nullptr) *entries_used = n_entries;
  if (values_used != nullptr) *values_used = used;
  return Error::kOk;
}

}  // namespace papirepro::papi
