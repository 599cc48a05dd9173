// Per-thread counter state for the Library.  Each registered thread owns
// one CounterContext per registered component (component 0's — the CPU
// core's — is created eagerly at registration, the rest lazily on first
// use) and one running-EventSet slot — the PAPI 3 one-running-EventSet
// rule, keyed by thread instead of by process.
//
// Storage is contention-free for readers: ThreadStates live in-place in
// append-only chunks linked by atomic next pointers, so every read-side
// operation (find_current, find_running, running_sets) is a lock-free
// walk over atomic fields — no shared_mutex, no lock-prefixed
// instructions.  Writers (claim/erase) serialize on one plain mutex.
// Slot storage is never freed before the registry is destroyed — the
// Library's handle table keeps the same rule: an erased slot's key
// returns to 0 and the slot is reused by a later registration, so a
// concurrent scanner can never touch freed memory (capacity is bounded
// by the peak number of concurrently registered threads).  Threads are
// identified by a process-wide monotonic 64-bit key instead of
// std::thread::id, so cross-thread key comparisons are plain atomic
// loads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/component.h"
#include "substrate/counter_context.h"

namespace papirepro::papi {

class EventSet;

class ThreadRegistry {
 public:
  /// Cache-line-aligned so adjacent slots' `running` CAS traffic (the
  /// start/stop path at high thread counts) never false-shares.
  struct alignas(64) ThreadState {
    /// Owning thread's registry key; 0 marks a free slot.  Written only
    /// under the writer mutex (release-published after the slot's plain
    /// fields are initialized), read lock-free by scanners.
    std::atomic<std::uint64_t> key{0};
    /// Numeric id from the user's PAPI_thread_init id function.
    unsigned long numeric_id = 0;
    /// One context per component, indexed by component id.  Component
    /// 0's (the CPU core's) is created eagerly during registration, so
    /// a slot without one marks a failed registration; the rest are
    /// created lazily on first use.  Contexts are touched only by the
    /// owning thread (or under the writer mutex during erase) — never by
    /// lock-free scanners.
    std::array<std::unique_ptr<CounterContext>, kMaxComponents> contexts;
    /// Program id of the EventSet whose programming these contexts
    /// hold, so its restart can skip program(); 0 when unknown.
    /// Touched only by the owning thread, and zeroed at erase so a
    /// thread reusing the slot programs its fresh contexts.
    std::uint64_t programmed = 0;
    std::atomic<EventSet*> running{nullptr};
  };

  ThreadRegistry() = default;
  ~ThreadRegistry();

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  /// The calling thread's process-wide registry key (never 0, never
  /// reused — the same ABA defence as the telemetry slab keys).
  static std::uint64_t current_key() noexcept;

  /// The calling thread's state, or nullptr if not registered.
  /// Lock-free scan (steady state is the Library's thread-local memo).
  ThreadState* find_current() const noexcept;

  /// Claims (or returns) the calling thread's slot *without* a context —
  /// the first half of claim-then-create registration.  The caller must
  /// either attach a context or call release_partial_current(); a
  /// leaked context-less slot would permanently block re-registration.
  ThreadState& claim_current(unsigned long numeric_id);

  /// Releases the calling thread's slot iff it is still context-less (a
  /// claim whose create_context() failed).  No-op for completed
  /// registrations and unregistered threads.
  void release_partial_current();

  /// Drops the calling thread's state.  kIsRunning while its EventSet
  /// runs, kInvalid when the thread was never registered.
  Status erase_current();

  /// The state whose running slot holds `set`, or nullptr.  Used to
  /// release a set that may have been started on another thread.
  /// Lock-free.
  ThreadState* find_running(const EventSet* set) const noexcept;

  /// Every currently-running EventSet (destructor cleanup).  Lock-free
  /// scan (allocates the result vector).
  std::vector<EventSet*> running_sets() const;

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

  /// Writer-mutex acquisitions so far — the assertion hook tests use to
  /// prove the steady-state read path never takes a registry lock.
  std::uint64_t lock_acquisitions() const noexcept {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kChunkSlots = 64;
  /// In-place slot storage: never moved, never freed before the registry
  /// dies.  `next` is release-published after the new chunk's slots are
  /// default-initialized (all keys 0), so lock-free walkers only ever
  /// see initialized slots.
  struct Chunk {
    std::array<ThreadState, kChunkSlots> slots;
    std::atomic<Chunk*> next{nullptr};
  };

  /// Lock-free slot walk; stops early when fn returns a non-null state.
  template <typename Fn>
  ThreadState* scan(Fn&& fn) const noexcept {
    for (const Chunk* chunk = &head_; chunk != nullptr;
         chunk = chunk->next.load(std::memory_order_acquire)) {
      for (const ThreadState& slot : chunk->slots) {
        if (fn(slot)) return const_cast<ThreadState*>(&slot);
      }
    }
    return nullptr;
  }

  Chunk head_;  ///< first chunk inline: the common case never allocates
  std::mutex writer_mutex_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> lock_acquisitions_{0};
};

}  // namespace papirepro::papi
