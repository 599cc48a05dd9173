// The library front door (PAPI_library_init and friends).  Owns the
// component registry (every measurement component — CPU core, memory/
// uncore, network — with its own Substrate, event namespace, and counter
// budget; component 0 is the substrate the Library was constructed
// with), the EventSets (by integer handle, so the C bridge is trivial),
// the event-name namespace ("mem::BANDWIDTH_RD" routes to the "mem"
// component), and the per-thread one-running-EventSet rule: PAPI 3 dropped overlapping EventSets "to reduce memory
// usage and runtime overhead and simplify the code", and thread support
// keys that rule by thread — each registered thread gets its own
// CounterContext from the substrate factory, so N threads can each drive
// one running EventSet concurrently with no shared counter state.
//
// Thread discipline: the handle table is a lock-free chunked array of
// atomic EventSet pointers — lookups and batched walks take zero locks;
// creation/destruction serialize on one plain writer mutex with
// epoch-based deferred reclamation (a destroyed set's storage survives
// until every in-flight batched reader has unpinned).  Counter control
// goes through the calling thread's context, and the stateless services
// (event namespace, allocation, timers, memory info) are safe from any
// thread.  Threads are auto-registered on their first start(); explicit
// register_thread()/unregister_thread() bound the lifetime when callers
// want PAPI_register_thread semantics.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/component.h"
#include "core/eventset.h"
#include "core/memory_info.h"
#include "core/sampling_pipeline.h"
#include "core/telemetry.h"
#include "core/thread_registry.h"
#include "substrate/substrate.h"

namespace papirepro::papi {

/// Bounded retry for transient substrate failures (the PAPI_set_opt-style
/// hardening knob).  Context creation, counter programming, start, and
/// reads are re-attempted up to `max_attempts` total tries when the
/// failure is_transient(); the *last* substrate error — never a retry
/// artifact — surfaces when the budget is exhausted.  `backoff_base_usec`
/// of wall-clock sleep, doubling per attempt, separates the tries (0 =
/// immediate retry, the right setting for simulated substrates whose
/// clock does not advance while we sleep).
struct RetryPolicy {
  int max_attempts = 3;
  std::uint64_t backoff_base_usec = 0;
};

class Library {
 public:
  /// Version handshake, PAPI-style: callers pass the version they were
  /// compiled against.
  static constexpr int kVersion = 0x03000000;  // 3.0.0

  using ThreadIdFn = std::function<unsigned long()>;

  explicit Library(std::unique_ptr<Substrate> substrate);
  ~Library();

  Library(const Library&) = delete;
  Library& operator=(const Library&) = delete;

  /// Component 0's (the CPU core's) substrate.
  Substrate& substrate() noexcept { return *substrate_; }
  const Substrate& substrate() const noexcept { return *substrate_; }

  // --- components (PAPI-C style registry) ---
  /// Registers a measurement component under namespace prefix `name`
  /// ("mem", "net", ...) and returns its id.  Registration belongs to
  /// init time, before threads start counting — the registry is
  /// lock-free to read and therefore append-only and single-threaded to
  /// write.
  Result<std::uint32_t> register_component(
      std::string name, std::string description,
      std::unique_ptr<Substrate> substrate);
  std::size_t num_components() const noexcept {
    return components_.size();
  }
  Result<ComponentInfo> component_info(std::uint32_t id) const;
  Result<std::uint32_t> component_by_name(std::string_view name) const;
  /// The component's substrate, or nullptr for an unknown id.
  Substrate* component_substrate(std::uint32_t id) const noexcept {
    Component* component = components_.at(id);
    return component != nullptr ? component->substrate.get() : nullptr;
  }
  /// Soft-disables a component: existing EventSets keep working, new
  /// add_event() calls against it fail with kComponentDisabled.
  Status set_component_enabled(std::uint32_t id, bool enabled);

  // --- component health (circuit breaker) ---
  /// Applies `policy` to every registered component's health monitor.
  Status set_health_policy(const HealthPolicy& policy);
  /// The health policy currently in force (component 0's copy — the
  /// policy is library-wide).
  HealthPolicy health_policy() const;
  /// Point-in-time health of one component.
  Result<ComponentHealth> component_health(std::uint32_t id) const;
  /// Gate before touching `component`'s substrate: kOk, or
  /// kComponentQuarantined fail-fast while its breaker is open.
  Status health_admit(std::uint32_t component) noexcept {
    Component* c = components_.at(component);
    return c != nullptr ? c->health.admit() : Status(Error::kNoComponent);
  }
  /// Feeds an operation's final (post-retry) outcome back into
  /// `component`'s breaker.
  void health_record(std::uint32_t component, Error outcome) noexcept {
    if (Component* c = components_.at(component)) c->health.record(outcome);
  }

  // --- event namespace (stateless; any thread) ---
  bool query_event(EventId id) const;
  Result<std::string> event_name(EventId id) const;
  Result<std::string> event_description(EventId id) const;
  /// Accepts "PAPI_*" preset names and platform native names, plus
  /// component-qualified forms: "mem::BANDWIDTH_RD" resolves in the
  /// "mem" component's namespace (native names, preset names with or
  /// without the PAPI_ prefix).  Unknown prefixes fail with
  /// kNoComponent.
  Result<EventId> event_from_name(std::string_view name) const;
  std::vector<Preset> available_presets() const;
  std::uint32_t num_counters() const noexcept {
    return substrate_->num_counters();
  }

  // --- threads (PAPI_thread_init / PAPI_register_thread) ---
  /// Installs the id function used to label threads (PAPI_thread_init).
  /// Without it, threads are labelled by a hash of std::thread::id.
  Status thread_init(ThreadIdFn id_fn);
  bool threaded() const noexcept;
  /// Numeric id of the calling thread (PAPI_thread_id); registers the
  /// thread as a side effect, like the first start() would.
  Result<unsigned long> thread_id();
  /// Eagerly creates the calling thread's CounterContext.  Idempotent.
  Status register_thread();
  /// Drops the calling thread's context; kIsRunning while its EventSet
  /// runs.  Registration is re-created on the next start().
  Status unregister_thread();
  std::size_t num_threads() const noexcept { return threads_.size(); }

  // --- EventSets ---
  Result<int> create_event_set();
  Result<EventSet*> event_set(int handle);
  Status destroy_event_set(int handle);
  std::size_t num_event_sets() const noexcept {
    return num_sets_.load(std::memory_order_relaxed);
  }

  // --- batched snapshot reads ---
  /// Reads every set in `sets` in one pass: the calling thread's context
  /// is resolved once, its own running set gets a full live read, every
  /// other set is served from its seqlock publication (kPublished flag).
  /// `entries[i]` describes set i's values at
  /// values[entries[i].first_value ..+ num_values).  Zero heap
  /// allocation.  kInvalid when entries or values are too small.
  Status read_many(std::span<EventSet* const> sets,
                   std::span<long long> values,
                   std::span<SnapshotEntry> entries,
                   std::size_t* values_used = nullptr);
  /// Handle-resolving variant (the C API's entry): lookups happen inside
  /// the caller's epoch pin, so a concurrent destroy_event_set defers
  /// reclamation instead of racing.  Unknown handles yield a per-entry
  /// kNoEventSet status, not a batch failure.  The first call on a
  /// thread registers it, creating its CounterContext (see
  /// register_thread()).
  Status read_many_handles(std::span<const int> handles,
                           std::span<long long> values,
                           std::span<SnapshotEntry> entries,
                           std::size_t* values_used = nullptr);
  /// One coherent pass over every live EventSet in the library (the
  /// whole handle table), into caller-owned vectors that are resized to
  /// fit (contents replaced) and reused — steady state allocates
  /// nothing once capacity is warm.  Like read_many_handles(), the first
  /// call on a thread registers it (creating its CounterContext), so a
  /// thread that polls while others count should register before they
  /// start.
  Status snapshot_all(std::vector<SnapshotEntry>& entries,
                      std::vector<long long>& values);
  /// Fixed-capacity variant (the C API's entry): kInvalid when either
  /// buffer is too small for the live population.  Never allocates.
  Status snapshot_all(std::span<SnapshotEntry> entries,
                      std::span<long long> values,
                      std::size_t* entries_used, std::size_t* values_used);

  /// Lock-free handle lookup: two atomic loads.  The pointer is only
  /// safe to dereference while the caller holds an epoch pin or
  /// otherwise owns the set's lifetime.
  EventSet* find_set(int handle) const noexcept;

  // --- lock observability (test hooks) ---
  /// Total writer-mutex acquisitions (thread registry + handle table) so
  /// far.  Steady-state read/accum/read_many/snapshot_all must leave
  /// this unchanged — the assertion tests prove the lock-free claim.
  std::uint64_t lock_acquisitions() const noexcept {
    return threads_.lock_acquisitions() +
           writer_lock_acquisitions_.load(std::memory_order_relaxed);
  }
  /// Destroyed EventSets whose storage is still deferred behind an
  /// active reader pin.
  std::size_t retired_sets_pending() const;

  // --- timers ("the most popular feature") ---
  std::uint64_t real_usec() const { return substrate_->real_usec(); }
  std::uint64_t real_cycles() const { return substrate_->real_cycles(); }
  std::uint64_t virt_usec() const { return substrate_->virt_usec(); }

  // --- PAPI 3 memory utilization extension ---
  Result<MemoryInfo> memory_info() const {
    return substrate_->memory_info();
  }

  // --- transient-fault hardening ---
  /// max_attempts < 1 is invalid; max_attempts == 1 disables retries.
  Status set_retry_policy(const RetryPolicy& policy);
  RetryPolicy retry_policy() const;
  /// Runs `op`, re-attempting transient failures per the retry policy.
  /// Returns the final attempt's status (the original substrate error on
  /// a permanent or retry-exhausted fault).  Templated on the callable so
  /// the read hot path never materializes a std::function (no type
  /// erasure, no possible heap allocation, full inlining).
  template <typename Op>
  Status run_with_retries(Op&& op) {
    const int max_attempts =
        retry_max_attempts_.load(std::memory_order_relaxed);
    Status status = op();
    for (int attempt = 1; attempt < max_attempts && !status.ok() &&
                          is_transient(status.error());
         ++attempt) {
      telemetry_.bump(TelemetryCounter::kRetryAttempts);
      telemetry_.trace_instant(TraceEventKind::kRetry,
                               substrate_->real_cycles(),
                               static_cast<std::uint64_t>(attempt));
      backoff_before_retry(attempt);
      status = op();
    }
    if (!status.ok() && is_transient(status.error())) {
      telemetry_.bump(TelemetryCounter::kRetryExhaustions);
    }
    return status;
  }

  /// run_with_retries() bracketed by `component`'s circuit breaker: a
  /// quarantined component rejects the op up front (fail fast, no
  /// backoff sleeps), and the final outcome feeds the health state
  /// machine.  Templated like run_with_retries so the hot path stays
  /// free of type erasure; the Healthy bracket is two relaxed loads.
  template <typename Op>
  Status run_slice_op(std::uint32_t component, Op&& op) {
    Component* c = components_.at(component);
    if (c == nullptr) return Error::kNoComponent;
    return run_slice_op(*c, std::forward<Op>(op));
  }

  /// Same bracket with the Component already resolved — the read hot
  /// path caches the pointer per slice at rebuild so steady-state reads
  /// skip the registry indirection entirely.
  template <typename Op>
  Status run_slice_op(Component& c, Op&& op) {
    PAPIREPRO_RETURN_IF_ERROR(c.health.admit());
    const Status status = run_with_retries(std::forward<Op>(op));
    c.health.record(status.error());
    return status;
  }

  // --- asynchronous sampling pipeline ---
  /// The per-Library sample aggregator: one consumer thread draining
  /// every running EventSet's overflow ring (PAPIrepro_set_sampling at
  /// the C level).
  SamplingAggregator& sampling() noexcept { return sampling_; }
  const SamplingAggregator& sampling() const noexcept { return sampling_; }
  /// Applies to EventSets started after the call; running sets keep the
  /// mode they latched at start().
  Status configure_sampling(const SamplingConfig& config);
  SamplingStats sampling_stats() const { return sampling_.stats(); }

  // --- self-telemetry ---
  /// The library-wide introspection registry.  Every subsystem (EventSet
  /// control paths, retry wrapper, sampling pipeline, fault decorator)
  /// bumps counters here; tools and the C API read one consistent
  /// snapshot back out.
  TelemetryRegistry& telemetry() noexcept { return telemetry_; }
  const TelemetryRegistry& telemetry() const noexcept { return telemetry_; }
  /// Registry counter totals plus the subsystem gauges (sampling ring
  /// state) folded in — the one read path behind PAPIrepro_get_telemetry.
  TelemetrySnapshot telemetry_snapshot() const;
  /// Enables/disables the per-thread trace rings (PAPIrepro_set_trace).
  /// `ring_capacity` 0 keeps the registry default.
  Status set_trace(bool enabled, std::size_t ring_capacity = 0);
  /// Drains buffered trace records into chrome://tracing JSON or CSV.
  std::string dump_trace(TraceFormat format) {
    return telemetry_.dump_trace(format);
  }

 private:
  friend class EventSet;
  /// Claims the calling thread's running slot for `set` and returns the
  /// thread's state (auto-registering the thread on first use).
  /// kIsRunning when another set already runs on this thread.
  Result<ThreadRegistry::ThreadState*> acquire_thread(EventSet* set);
  /// The calling thread's CounterContext for `component`, creating it on
  /// first use (component 0's was created at registration).  Must be
  /// called with the thread's own state.
  Result<CounterContext*> component_context(
      ThreadRegistry::ThreadState& state, std::uint32_t component);
  /// Clears whichever thread's running slot holds `set`.
  void release_context(EventSet* set);
  /// A fresh EventSet program id (see ThreadState::programmed): never
  /// 0 and never reused, so a destroyed set's id cannot match a new one.
  std::uint64_t next_program_id() noexcept {
    return program_ids_.fetch_add(1, std::memory_order_relaxed);
  }
  /// The calling thread's state, creating it if needed.  Steady state is
  /// a thread-local cache hit that never touches the registry lock;
  /// the slow path registers the thread and fills the cache.
  Result<ThreadRegistry::ThreadState*> current_thread_state();
  /// Sleeps the policy's exponential backoff before retry `attempt`.
  void backoff_before_retry(int attempt) const;

  /// RAII epoch pin for batched readers.  While alive, destroyed
  /// EventSets whose unpublish the pinned reader may not have observed
  /// stay in the graveyard instead of being freed.  The pin load of the
  /// global epoch is seq_cst: correctness argues through the single
  /// total order over {pin store, unpublish store, epoch bump, writer
  /// scan} — a pin at or past a set's retire epoch proves the reader's
  /// table walk started after the unpublish and cannot hold the pointer.
  class EpochPin {
   public:
    EpochPin(Library& library, ThreadRegistry::ThreadState& state) noexcept
        : state_(state) {
      state_.epoch.store(
          library.global_epoch_.load(std::memory_order_seq_cst),
          std::memory_order_seq_cst);
    }
    ~EpochPin() { state_.epoch.store(0, std::memory_order_release); }
    EpochPin(const EpochPin&) = delete;
    EpochPin& operator=(const EpochPin&) = delete;

   private:
    ThreadRegistry::ThreadState& state_;
  };

  /// The handle's slot in the chunked table, or nullptr when its chunk
  /// was never allocated.
  std::atomic<EventSet*>* set_slot(int handle) const noexcept;
  /// Frees every graveyard entry no active reader pin can still reach.
  /// Caller holds sets_mutex_.
  void reclaim_retired_locked();
  /// The per-entry step every batched read shares: a live read for the
  /// caller's running set `my_running` (with publication fallback on
  /// failure), a seqlock publication copy for everything else.  Fills
  /// `e` and its values at values[used ..], then advances `used`;
  /// kInvalid when `values` cannot hold the set's values.
  Status batch_fill(EventSet& set, EventSet* my_running,
                    std::span<long long> values, std::size_t& used,
                    SnapshotEntry& e);
  /// The calling thread's currently running set, resolved through the
  /// thread-local cache (no registry lock), or nullptr.
  EventSet* current_running() const noexcept;

  /// Declared first: every other subsystem (substrate decorators, the
  /// sampling aggregator, EventSets) holds a raw pointer into the
  /// registry, so it must be constructed before and destroyed after all
  /// of them.
  TelemetryRegistry telemetry_;

  /// Owns every component's Substrate (component 0 is the one the
  /// Library was constructed with).  Declared before the thread registry
  /// and EventSets, whose contexts point into the substrates.
  ComponentRegistry components_;
  /// Component 0's substrate — the hot-path alias (owned by
  /// components_).
  Substrate* substrate_ = nullptr;
  /// Distinguishes this Library in thread-local context caches: a new
  /// Library constructed at a recycled address must never match a stale
  /// cache entry (ABA), so tokens are drawn from a process-wide counter.
  const std::uint64_t instance_token_;

  ThreadRegistry threads_;
  std::atomic<std::uint64_t> program_ids_{1};
  /// threaded() is an acquire load on the flag; the mutex only covers
  /// the registration slow path and reads of the function object.
  std::atomic<bool> has_id_fn_{false};
  mutable std::mutex id_fn_mutex_;
  ThreadIdFn id_fn_;

  /// Retry policy as relaxed atomics: read on every hot-path retry
  /// wrapper entry, so no lock.  A concurrent set_retry_policy() may be
  /// observed field-by-field; both orderings are valid policies.
  std::atomic<int> retry_max_attempts_{3};
  std::atomic<std::uint64_t> retry_backoff_usec_{0};

  /// Declared before sets_: EventSets detach their rings in their
  /// destructors, so the aggregator must outlive the handle table.
  SamplingAggregator sampling_;

  // --- handle table: lock-free readers, mutex-serialized writers ---
  /// Chunk geometry: handle h lives at chunk[(h-1) >> kSetChunkShift]
  /// slot[(h-1) & (kSetChunkSlots-1)].  Chunks are allocated on demand
  /// under sets_mutex_, release-published, and never freed before the
  /// Library dies, so a lock-free reader's two loads (acquire chunk,
  /// seq_cst slot) always land on live storage.
  static constexpr std::size_t kSetChunkShift = 10;
  static constexpr std::size_t kSetChunkSlots = 1u << kSetChunkShift;
  static constexpr std::size_t kMaxSetChunks = 1024;  // ~1M handles
  std::array<std::atomic<std::atomic<EventSet*>*>, kMaxSetChunks>
      set_chunks_{};

  mutable std::mutex sets_mutex_;
  /// Ownership ledger behind the lock-free table: the unique_ptrs that
  /// actually own live EventSets.
  std::unordered_map<int, std::unique_ptr<EventSet>> sets_;
  /// Destroyed sets whose storage waits out in-flight reader pins.
  struct RetiredSet {
    std::unique_ptr<EventSet> set;
    std::uint64_t retire_epoch;
  };
  std::vector<RetiredSet> graveyard_;
  std::vector<int> free_handles_;  ///< destroyed handles, reused LIFO
  int next_handle_ = 1;
  /// Global reclamation epoch; bumped (seq_cst) after each unpublish.
  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<std::size_t> num_sets_{0};
  /// Handle-table writer-mutex acquisitions (see lock_acquisitions()).
  std::atomic<std::uint64_t> writer_lock_acquisitions_{0};
};

}  // namespace papirepro::papi
