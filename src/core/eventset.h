// EventSets: "PAPI manages events in user-defined sets called EventSets
// ... managed explicitly by the user in the low-level interface."
// An EventSet owns a list of preset/native events, expands them into the
// unique native events they require (shared natives are counted once and
// reused by every derived event that references them), allocates those
// natives onto physical counters via the bipartite matcher, and controls
// counting.  A set may span components: natives are grouped into
// per-component slices (kept sorted by component id), each programmed
// onto that component's CounterContext with its own allocation and
// counter-width folding; start()/read()/stop() fan out across the
// slices in ascending component order (stop descends), so snapshots
// have one coherent ordering.  Multiplexing is *opt-in* (enable_multiplex) per the mailing
// list decision recorded in Section 2: naive transparent multiplexing
// could silently return unconverged estimates, so the user must operate
// at the low level to turn it on.  Overlapping EventSets are not
// supported (the PAPI 3 simplification), but the rule is per *thread*:
// start() claims the calling thread's CounterContext from the Library,
// so one EventSet runs per thread at a time, and N threads may run N
// EventSets concurrently.  An EventSet itself is not thread-safe — it
// belongs to whichever thread started it until stop().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/seqlock.h"
#include "common/status.h"
#include "core/events.h"
#include "core/multiplex.h"
#include "core/profile.h"
#include "core/sampling_pipeline.h"
#include "substrate/substrate.h"

namespace papirepro::papi {

class Library;
struct Component;

/// Degradation-ladder flags: loud markers that counting continued in a
/// reduced mode after a substrate fault, set on the EventSet so callers
/// can distinguish full-fidelity results from degraded ones (silently
/// wrong counts are worse than errors).
namespace degradation {
/// Multiplex timer service failed: slices rotate on read()/accum()
/// instead of a timer, so estimates need periodic reads to converge.
inline constexpr std::uint32_t kMuxSequential = 0x1;
}  // namespace degradation

/// Per-event validity flags returned by read_ex(): 0 means the value is
/// a live, trusted reading; any set bit marks reduced fidelity.  Flags
/// OR together (a quarantined slice's value is also stale).
namespace read_flag {
inline constexpr std::uint32_t kValid = 0;
/// The value is the last latched good reading, not a fresh one (the
/// event's slice failed this read).
inline constexpr std::uint32_t kStale = 0x1;
/// The event's component is quarantined by the health monitor.
inline constexpr std::uint32_t kQuarantined = 0x2;
/// The counter regressed non-monotonically beyond its wrap mask at some
/// point since start()/reset(); totals may be wrong.  Sticky until
/// reset().
inline constexpr std::uint32_t kSuspect = 0x4;
/// The value was served from the set's cross-thread publication (the
/// seqlock snapshot its owning thread refreshes at start/read/stop)
/// rather than a live substrate read — it may lag the live counters by
/// up to one publication interval.  Batched reads set this for every
/// set not running on the calling thread.
inline constexpr std::uint32_t kPublished = 0x8;
/// No value was available for this slot: the event is beyond the
/// publication capacity, or the set never ran.  The value reads 0.
inline constexpr std::uint32_t kNoData = 0x10;
}  // namespace read_flag

/// One set's result within a batched read (Library::read_many /
/// Library::snapshot_all): where its values landed in the shared values
/// buffer, its per-set status, and the OR-fold of its events'
/// read_flag::* bits.
struct SnapshotEntry {
  int handle = 0;
  std::uint32_t first_value = 0;  ///< index into the shared values buffer
  std::uint32_t num_values = 0;
  Error status = Error::kOk;
  std::uint32_t flags = 0;
  /// Substrate cycle stamp of the moment the values were produced: the
  /// publication time for kPublished entries, the read time for live
  /// ones.  A collector ages-out ranks whose stamps stop advancing —
  /// without it a STALE entry from a dead rank is indistinguishable
  /// from a fresh one.  0 when the set never ran.
  std::uint64_t pub_cycles = 0;
};

/// Context passed to user overflow handlers.
struct OverflowEvent {
  EventId event;
  /// PC as observed by the interrupt handler (skidded on out-of-order
  /// platforms — "several instructions or even basic blocks removed").
  std::uint64_t pc_observed = 0;
  /// Hardware-assisted precise PC, when the platform provides one.
  std::uint64_t pc_precise = 0;
  bool has_precise = false;
  std::uint64_t addr = 0;
};

class EventSet {
 public:
  enum class State : std::uint8_t { kStopped, kRunning };

  using OverflowHandler = std::function<void(EventSet&, const OverflowEvent&)>;

  EventSet(const EventSet&) = delete;
  EventSet& operator=(const EventSet&) = delete;
  ~EventSet();

  int handle() const noexcept { return handle_; }
  State state() const noexcept { return state_; }
  bool running() const noexcept { return state_ == State::kRunning; }

  // --- event membership ---
  Status add_event(EventId id);
  Status add_preset(Preset p) { return add_event(EventId::preset(p)); }
  Status add_native(pmu::NativeEventCode c) {
    return add_event(EventId::native(c));
  }
  /// Add by "PAPI_*" preset name or platform native name.
  Status add_named(std::string_view name);
  Status remove_event(EventId id);
  std::size_t num_events() const noexcept { return entries_.size(); }
  std::vector<EventId> events() const;

  // --- multiplexing (explicitly enabled; see header comment) ---
  Status enable_multiplex(std::uint64_t slice_cycles = kDefaultMuxSliceCycles);
  bool multiplexed() const noexcept { return multiplex_; }
  /// Number of time-sliced hardware groups (1 when not multiplexed).
  std::size_t num_mux_groups() const noexcept {
    return multiplex_ ? mux_plans_.size() : 1;
  }

  /// Counting domain for this set's counters (PAPI_set_domain):
  /// domain::kUser excludes measurement-infrastructure cycles,
  /// domain::kKernel isolates them, domain::kAll (default) counts both.
  Status set_domain(std::uint32_t domain_mask);
  std::uint32_t counting_domain() const noexcept { return domain_mask_; }

  /// degradation::* flags applied since the last start() (0 = none).
  std::uint32_t degradations() const noexcept { return degradations_; }

  // --- self-overhead attribution ---
  /// Cycles the substrate charged to measurement infrastructure during
  /// this set's runs (counter access costs, overflow delivery, sampling
  /// engines); includes the live run so far.  0 where the substrate
  /// cannot attribute its own cost.
  std::uint64_t overhead_cycles() const noexcept;
  /// Total cycles this set's runs have spanned, start() to stop(),
  /// including the live run so far.
  std::uint64_t measured_cycles() const noexcept;
  /// overhead_cycles() / measured_cycles(): the paper's "up to ~30 %
  /// direct counting vs 1-2 % sampling" finding as a queryable metric.
  /// 0 before the first start().
  double overhead_ratio() const noexcept;

  // --- counting control ---
  /// Starts counting on the calling thread.  A restart whose programming
  /// the thread's counters still hold (events and domain unchanged, no
  /// other set started there since) skips reprogramming them and only
  /// re-arms, resets and enables them; multiplexed sets always program.
  Status start();
  /// Stops counting; if `out` is non-empty it receives the final values.
  /// A non-empty `out` shorter than num_events() fails with kInvalid
  /// before anything stops.
  Status stop(std::span<long long> out = {});
  Status read(std::span<long long> out);
  /// Partial-failure read for spanning sets: values from healthy
  /// component slices are delivered normally; a failing or quarantined
  /// slice contributes its last latched good values instead of failing
  /// the whole read, and `flags[i]` carries the read_flag::* bits for
  /// event i (0 = fully valid).  Returns kOk as long as the read could
  /// be serviced at all (flags tell the fidelity story); argument-size
  /// and not-running errors still surface as before.
  Status read_ex(std::span<long long> out, std::span<std::uint32_t> flags);
  /// Adds current values into `inout` and resets the counters.  A
  /// running direct set reads and zeroes each component slice in one
  /// substrate call, inside that slice's health/retry bracket.  When
  /// slice k fails, the slices before it were already zeroed, so their
  /// values go into `inout`; the slices from k on keep counting from
  /// their old zero point and add nothing; accum() returns the error.
  /// So no count is lost or counted twice.  A multiplexed set (whose
  /// zero point includes its estimation window) and a stopped set read,
  /// then reset(); a failed read adds nothing.
  Status accum(std::span<long long> inout);
  /// Zeroes the counters slice by slice, each inside its health/retry
  /// bracket.  When slice k fails, the slices before it stay zeroed,
  /// the rest keep counting, and reset() returns the error.
  Status reset();

  // --- overflow dispatch ---
  /// Arms overflow on `id` (must be a non-derived member event; not
  /// available while multiplexing).  `threshold` counts per interrupt.
  /// Whether dispatch runs synchronously in the counting thread or via
  /// the library's asynchronous sampling pipeline is decided at start()
  /// from the library's SamplingConfig.
  Status set_overflow(EventId id, std::uint64_t threshold,
                      OverflowHandler handler);
  /// Removes the overflow config for `id`.  Safe while running: the
  /// substrate is disarmed first, then (in async mode) pending ring
  /// samples are flushed, so no dispatch for `id` occurs after return.
  Status clear_overflow(EventId id);

  /// True while this run dispatches overflows through the async ring.
  bool async_sampling_active() const noexcept { return async_active_; }

  // --- SVR4-compatible statistical profiling (PAPI_profil) ---
  /// Histograms the PC observed at each overflow of `id` into `buffer`.
  /// With `prefer_precise`, EAR-style precise addresses are used when the
  /// hardware provides them; otherwise the skidded interrupt PC is
  /// bucketed — the difference is experiment E6.
  Status profil(ProfileBuffer& buffer, EventId id, std::uint64_t threshold,
                bool prefer_precise = true);
  Status profil_stop(EventId id);

 private:
  friend class Library;
  struct Published;
  EventSet(Library& library, int handle, Published& published);

  struct TermRef {
    std::size_t native_index;
    int coefficient;
  };
  struct Entry {
    EventId id;
    std::vector<TermRef> terms;
  };
  struct OverflowConfig {
    EventId id;
    std::uint64_t threshold;
    OverflowHandler handler;
    ProfileBuffer* profile = nullptr;  ///< non-null for profil()
    bool prefer_precise = true;
    /// Set by clear_overflow(): an interrupt already in flight at the
    /// disarm (the PMU copies the handler when it schedules delivery)
    /// still lands, but dispatch drops it — clear means clear, exactly.
    /// Atomic because the async aggregator reads it off-thread.
    std::atomic<bool> retired{false};
  };
  struct MuxGroupState {
    std::vector<std::uint64_t> accum;  ///< per member
    std::uint64_t active_cycles = 0;
  };
  /// One component's contiguous share of natives_: its allocation, its
  /// thread context for the current run, and its counter-width mask.
  /// Slices are kept sorted ascending by component id — the fan-out
  /// order for start/read (stop descends).
  struct ComponentSlice {
    std::uint32_t component = 0;
    std::size_t offset = 0;  ///< into natives_
    std::size_t count = 0;
    std::vector<std::uint32_t> assignment;
    /// Live between start() and stop(); the calling thread's context
    /// for this component.
    CounterContext* context = nullptr;
    std::uint64_t wrap_mask = ~0ULL;
    /// The component's registry entry, resolved once at rebuild()
    /// (Component addresses are stable for the library's lifetime) so
    /// the per-read health bracket skips the registry lookup.
    Component* comp = nullptr;
  };

  Status rebuild(const std::vector<Entry>& candidate_entries,
                 const std::vector<pmu::NativeEventCode>& candidate_natives,
                 const std::vector<std::uint32_t>& candidate_components);
  /// Regenerates flat_terms_/calc_ from entries_ — must follow every
  /// entries_ assignment (the membership commit at the end of rebuild()).
  void rebuild_flat_terms();
  /// Draws a fresh program_id_ and latches the slices' allocation
  /// generation: every change to what program() would load must call
  /// it (rebuild()'s membership commit, set_domain()).
  void refresh_program_id() noexcept;
  /// Sum of the slices' substrates' allocation_generation().
  std::uint64_t allocation_generation() const noexcept;
  /// Programs the contexts (unless `programmed`: the calling thread's
  /// contexts already hold this set's program_id_) and arms overflows.
  Status program_and_arm(bool programmed);
  /// Sizes every steady-state buffer (the raw snapshot, mux live-slice
  /// reads, the values accum()/stop() compute) so the running paths
  /// perform no heap allocation after start(), and restarts the folds
  /// from zero.  The raw snapshot and the values keep their contents:
  /// every pass overwrites them before they are read.
  void preallocate_scratch();
  /// The one path behind set_overflow() and profil(): makes their shared
  /// rejections, then stamps `config` with `id` and `threshold` and
  /// installs it in place of any prior config for `id`.
  Status install_overflow(EventId id, std::uint64_t threshold,
                          std::shared_ptr<OverflowConfig> config);
  Status arm_overflows();
  Status arm_overflow(std::size_t config_index);
  /// Clears every callback this run armed on the context — overflow
  /// handlers and the mux rotation timer — and, in async mode, drains
  /// and detaches the sample ring.  Requires a live context_.
  void disarm();
  /// Runs one overflow's heavy half: histogram update or user handler.
  void dispatch_overflow(const OverflowConfig& config,
                         const SubstrateOverflow& overflow);
  /// What a read_pass() serves.  Every kind runs the same pass; the kind
  /// decides only how a failing slice is treated and whether the pass
  /// publishes and counts itself.
  enum class Pass : std::uint8_t {
    kRead,     ///< read(): the first failing slice fails the pass
    kPartial,  ///< read_ex(): failing slices serve latched values, flagged
    kAccum,    ///< accum(): kRead, and a direct set's slices are read and
               ///< zeroed in one substrate call each, their folds rebased
               ///< and the zeros published once (counted as one reset);
               ///< when slice k fails, `out` holds the values of the
               ///< slices before k and 0 for the rest.  A multiplexed
               ///< set's slice is only read: accum() resets it after.
    kFinal,    ///< stop(): kPartial on halted counters, uncounted,
               ///< untraced, published by stop() once it has disarmed
  };
  /// The one read pipeline behind read(), read_ex(), accum(), stop() and
  /// Library's batched live reads.  A stopped set serves its stop()
  /// snapshot.  A live set reads every component slice into raw_ through
  /// the health/retry bracket (a multiplexed set's one slice yields
  /// scaled estimates), computes `out` (and `flags`, when non-empty),
  /// publishes once (or leaves that to accum()/stop()), bumps kReads
  /// once plus each slice's component on success, and wraps itself in a
  /// kRead trace span when tracing is on.
  /// Zero-allocation and lock-free.
  [[gnu::always_inline]] Status read_pass(std::span<long long> out,
                                         std::span<std::uint32_t> flags,
                                         Pass pass);
  /// Reads one component slice's share of raw_ through the health
  /// breaker + retry wrapper, applies wraparound folding / monotonic
  /// sanity guards, latches good values, and records per-native
  /// read_flag bits in folds_.  With `zero` the substrate zeroes the
  /// counters in the same call and the slice's folds restart from zero.
  /// On failure the slice's window is filled from the latched values
  /// (flags mark it stale) and nothing is zeroed.
  [[gnu::always_inline]] Status read_slice(ComponentSlice& slice, bool zero);
  /// A multiplexed set's single slice source, same contract as
  /// read_slice(): rotates first when slices rotate on reads, reads the
  /// open group's counters through the same bracket, and writes every
  /// native's scaled estimate.
  Status read_mux(ComponentSlice& slice);
  /// read_slice()'s failure half: fills the slice's window from the
  /// latched values, flags them stale (and quarantined), returns
  /// `status`.
  [[gnu::cold]] Status serve_latched(const ComponentSlice& slice,
                                     Status status);
  /// Folds the per-native read flags into per-event flags: each event's
  /// flags are the OR over its term natives.
  void compute_flags(std::span<std::uint32_t> flags) const;
  /// OR of every native's last read flags — one batched entry's
  /// fidelity summary.
  std::uint32_t folded_read_flags() const noexcept;
  /// Refreshes the cross-thread publication (seqlock write; owner
  /// thread only).  Flags come from folds_' current read flags.
  [[gnu::always_inline]] void publish_values(
      std::span<const long long> values, std::uint32_t pub_state) noexcept;
  /// Same, stamped with `now`: start() and stop() pass the clock read
  /// they already made for overhead attribution.
  [[gnu::always_inline]] void publish_values(
      std::span<const long long> values, std::uint32_t pub_state,
      std::uint64_t now) noexcept;
  /// Invalidates the publication (membership changed, snapshot dropped,
  /// set destroyed) without touching folds_ — safe mid-rebuild.
  void publish_clear() noexcept;
  Status program_mux_group(std::size_t g);
  void rotate_mux();
  [[gnu::always_inline]] void compute_values(
      std::span<const std::uint64_t> raw, std::span<long long> out) const;
  int find_entry(EventId id) const;

  Library& library_;
  int handle_;
  State state_ = State::kStopped;
  /// The primary (lowest-component) slice's context — the one the mux,
  /// overflow, trace, and overhead-attribution paths use; non-null from
  /// a successful start() until the matching stop().
  CounterContext* context_ = nullptr;
  /// This set's publication, in its handle slot (see the cross-thread
  /// publication section below).
  Published& published_;

  std::vector<Entry> entries_;
  /// Unique natives, sorted ascending by owning component so each
  /// component's share is one contiguous slice.  Codes are only unique
  /// *within* a component (namespaces overlap), hence the parallel
  /// component vector.
  std::vector<pmu::NativeEventCode> natives_;
  std::vector<std::uint32_t> native_components_;  ///< parallel to natives_
  /// Per-component sub-state, sorted ascending by component id.
  std::vector<ComponentSlice> slices_;

  std::uint32_t domain_mask_ = domain::kAll;
  std::uint32_t degradations_ = 0;
  /// Which component the most recent per-slice control failure belongs
  /// to: the start() fan-out runs as one retried unit, so the outcome
  /// must be attributed to the failing slice's breaker, not all of them.
  std::uint32_t attributed_component_ = 0;

  /// Identifies this set's programming: membership, domain and
  /// multiplex plan, plus program_generation_, the slices' allocation
  /// generation when it was drawn.  start() skips program() on a thread
  /// whose ThreadState::programmed equals it.
  std::uint64_t program_id_ = 0;
  std::uint64_t program_generation_ = 0;

  /// Self-overhead attribution: the context's overhead/clock marks
  /// latched at start(), folded into the lifetime totals at stop().
  std::uint64_t overhead_base_ = 0;
  std::uint64_t window_base_ = 0;
  std::uint64_t total_overhead_cycles_ = 0;
  std::uint64_t total_window_cycles_ = 0;

  /// Per-native hot-path state, one record per native instead of five
  /// parallel arrays, so a read's fold/latch/flag work touches one
  /// cache line per native: the wraparound-folding accumulators (the
  /// mask is per-slice — an all-ones mask means full-width counters,
  /// the no-fold fast path), the last good post-fold value read_ex()
  /// serves when a slice fails, the sticky fidelity bits (kSuspect
  /// persists until reset()), and the per-read working flags.
  struct NativeFold {
    std::uint64_t wrap_last = 0;
    std::uint64_t wrap_accum = 0;
    std::uint64_t latched = 0;
    std::uint8_t sticky_flags = 0;
    std::uint8_t read_flags = 0;
  };
  std::vector<NativeFold> folds_;

  /// Rebuild-time flattening of entries_[i].terms into one contiguous
  /// run: the read hot path (compute_values / compute_flags /
  /// publish_values) walks flat_terms_[calc_[i].begin ..] sequentially
  /// instead of chasing a per-entry vector allocation, so a two-event
  /// read touches two adjacent 8-byte records and nothing else.
  struct FlatTerm {
    std::uint32_t native_index = 0;
    std::int32_t coefficient = 1;
  };
  struct EntryCalc {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
  };
  std::vector<FlatTerm> flat_terms_;
  std::vector<EntryCalc> calc_;  ///< parallel to entries_
  /// True when every entry is exactly one term, coefficient +1, with
  /// native_index == entry index — the overwhelmingly common shape
  /// (single-counter presets and native events, no derived formulas).
  /// compute_values collapses to a copy and publish_values reads each
  /// entry's flags straight out of folds_.
  bool terms_identity_ = false;

  bool multiplex_ = false;
  std::uint64_t mux_slice_cycles_ = kDefaultMuxSliceCycles;
  std::vector<MuxGroupPlan> mux_plans_;
  std::vector<MuxGroupState> mux_state_;
  /// Per mux group: member native codes, prebuilt at rebuild() so
  /// program_mux_group() passes a ready list instead of regathering (and
  /// reallocating) it on every slice rotation.
  std::vector<std::vector<pmu::NativeEventCode>> mux_group_events_;
  std::size_t mux_current_ = 0;
  std::uint64_t mux_slice_start_ = 0;
  std::uint64_t mux_window_start_ = 0;
  int mux_timer_id_ = -1;

  /// Steady-state buffers, sized by preallocate_scratch() at start():
  /// the raw per-native snapshot every read pass fills (after stop() it
  /// holds the final totals that reads of the stopped set serve), the
  /// live buffer for the currently-open mux slice, and the values
  /// accum()/stop() compute.  All reuse capacity across calls — the
  /// running hot paths never allocate.
  std::vector<std::uint64_t> raw_;
  std::vector<std::uint64_t> scratch_live_;
  std::vector<long long> scratch_values_;

  /// Overflow configs are shared_ptr-owned: the callbacks armed at the
  /// substrate (and the async dispatch closure) each hold their own
  /// reference, so reconfiguration — erase, push_back, vector
  /// reallocation — can never leave an armed callback dereferencing
  /// freed storage.  (The armed lambda used to capture a raw pointer
  /// into this vector; any clear_overflow() after arming was a
  /// use-after-free.)
  std::vector<std::shared_ptr<OverflowConfig>> overflow_configs_;
  /// Substrate event indices armed by the current run, for disarming at
  /// stop()/clear_overflow() — the substrate keeps callbacks armed
  /// until told otherwise, and a released context must never fire a
  /// stale one.
  std::vector<std::uint32_t> armed_event_indices_;

  /// Async sampling pipeline state for the current run.  Shared with
  /// the armed enqueue callbacks: an interrupt latched by the PMU can
  /// deliver after stop() replaced the ring, and must land in the ring
  /// it was armed against, not freed memory.
  std::shared_ptr<SpscRing<SampleRecord>> sample_ring_;
  bool ring_attached_ = false;
  bool async_active_ = false;

  /// raw_ holds stop()'s final snapshot, so read() after stop still
  /// returns this set's values even if the substrate is reprogrammed.
  bool stopped_raw_valid_ = false;

  // --- cross-thread value publication -------------------------------------
  /// Published values per set; sets with more events publish the first
  /// kMaxPublishedValues and batch readers flag the rest kNoData.
  static constexpr std::size_t kMaxPublishedValues = 16;
  /// What a publication of zeroed counters stores: as long as any
  /// publication, so it takes publish_values()' one-pass path.
  static constexpr std::array<long long, kMaxPublishedValues> kZeroValues{};
  enum : std::uint32_t { kPubNeverRan = 0, kPubRunning = 1, kPubStopped = 2 };
  /// Seqlock-published snapshot of this set's values, refreshed by the
  /// owning thread at start()/read()/stop()/reset(), so batch readers on
  /// other threads never touch the set or the owner's substrate
  /// contexts.  It lives in the set's handle slot, which outlives the
  /// set.  Single writer: the thread driving the set, then the thread
  /// destroying it.
  struct Published {
    SeqLock lock;
    std::atomic<std::uint32_t> state{kPubNeverRan};
    std::atomic<std::uint32_t> num_events{0};  ///< authoritative count
    std::atomic<std::uint32_t> stored{0};      ///< values published
    /// Substrate cycle stamp taken at publication — the age signal
    /// batch readers and the aggregation collector key liveness on.
    std::atomic<std::uint64_t> pub_cycles{0};
    std::array<std::atomic<long long>, kMaxPublishedValues> values{};
    std::array<std::atomic<std::uint8_t>, kMaxPublishedValues> flags{};
  };
  /// The batch readers' publication path: one seqlock read bracket
  /// copying `p`'s values straight into `out` and folding status/flags
  /// into `e` — no intermediate snapshot struct (zeroing and copying
  /// fixed kMaxPublishedValues arrays per set dominated snapshot_all
  /// over large registries).
  static void read_published_into(const Published& p,
                                  std::span<long long> out,
                                  SnapshotEntry& e) noexcept;
};

// Defined here (not eventset.cpp) so Library's batch loops inline it:
// snapshot_all over a large registry runs this once per set, and the
// cross-TU call was a measurable share of the per-set cost.
inline void EventSet::read_published_into(const Published& p,
                                          std::span<long long> out,
                                          SnapshotEntry& e) noexcept {
  std::uint32_t state = kPubNeverRan;
  std::uint64_t pub_cycles = 0;
  std::uint32_t num_events = 0;
  std::size_t n = 0;
  std::size_t stored = 0;
  std::uint32_t folded = 0;
  const auto load = [&] {
    state = p.state.load(std::memory_order_relaxed);
    pub_cycles = p.pub_cycles.load(std::memory_order_relaxed);
    num_events = p.num_events.load(std::memory_order_relaxed);
    n = std::min<std::size_t>(num_events, out.size());
    stored = std::min<std::size_t>(
        std::min<std::size_t>(p.stored.load(std::memory_order_relaxed),
                              kMaxPublishedValues),
        n);
    folded = 0;
    for (std::size_t i = 0; i < stored; ++i) {
      out[i] = p.values[i].load(std::memory_order_relaxed);
      folded |= p.flags[i].load(std::memory_order_relaxed);
    }
  };
  // Out of attempts, the writer kept racing us (a read loop on the
  // owning thread): serve a copy anyway, marked kStale.
  const bool consistent = p.lock.read(load);
  if (!consistent) load();
  if (state == kPubNeverRan) {
    e.status = Error::kNotRunning;
    e.num_values = 0;
    return;
  }
  e.pub_cycles = pub_cycles;
  e.flags |= read_flag::kPublished | folded;
  if (num_events > out.size() || !consistent) e.flags |= read_flag::kStale;
  for (std::size_t i = stored; i < n; ++i) {
    out[i] = 0;
    e.flags |= read_flag::kNoData;
  }
  e.num_values = static_cast<std::uint32_t>(n);
}

}  // namespace papirepro::papi
