#include "core/thread_registry.h"

#include <cstdint>

namespace papirepro::papi {

ThreadRegistry::~ThreadRegistry() {
  Chunk* chunk = head_.next.load(std::memory_order_acquire);
  while (chunk != nullptr) {
    Chunk* next = chunk->next.load(std::memory_order_acquire);
    delete chunk;
    chunk = next;
  }
}

std::uint64_t ThreadRegistry::current_key() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  thread_local const std::uint64_t key =
      counter.fetch_add(1, std::memory_order_relaxed);
  return key;
}

ThreadRegistry::ThreadState* ThreadRegistry::find_current() const noexcept {
  const std::uint64_t key = current_key();
  return scan([&](const ThreadState& slot) {
    return slot.key.load(std::memory_order_acquire) == key;
  });
}

ThreadRegistry::ThreadState& ThreadRegistry::claim_current(
    unsigned long numeric_id) {
  const std::uint64_t key = current_key();
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  ThreadState* free_slot = nullptr;
  Chunk* last = nullptr;
  for (Chunk* chunk = &head_; chunk != nullptr;
       chunk = chunk->next.load(std::memory_order_acquire)) {
    for (ThreadState& slot : chunk->slots) {
      const std::uint64_t k = slot.key.load(std::memory_order_relaxed);
      if (k == key) return slot;  // raced our own earlier claim
      if (k == 0 && free_slot == nullptr) free_slot = &slot;
    }
    last = chunk;
  }
  if (free_slot == nullptr) {
    // Append a chunk; its slots are default-initialized (keys 0) before
    // the release-store of `next` publishes them to lock-free walkers.
    Chunk* chunk = new Chunk();
    last->next.store(chunk, std::memory_order_release);
    free_slot = &chunk->slots.front();
  }
  free_slot->numeric_id = numeric_id;
  // Publish last: a scanner that acquires this key sees the plain
  // fields above, and the previous occupant's contexts were reset under
  // the writer mutex at erase (mutex ordering covers slot reuse).
  free_slot->key.store(key, std::memory_order_release);
  size_.fetch_add(1, std::memory_order_relaxed);
  return *free_slot;
}

void ThreadRegistry::release_partial_current() {
  const std::uint64_t key = current_key();
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  ThreadState* slot = scan([&](const ThreadState& s) {
    return s.key.load(std::memory_order_relaxed) == key;
  });
  if (slot != nullptr && slot->contexts[0] == nullptr) {
    slot->key.store(0, std::memory_order_release);
    size_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Status ThreadRegistry::erase_current() {
  const std::uint64_t key = current_key();
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  ThreadState* slot = scan([&](const ThreadState& s) {
    return s.key.load(std::memory_order_relaxed) == key;
  });
  if (slot == nullptr) return Error::kInvalid;
  if (slot->running.load(std::memory_order_acquire) != nullptr) {
    return Error::kIsRunning;
  }
  // Free the contexts under the mutex: the next claimant of this slot
  // also runs under it, so the reset happens-before any reuse.  The
  // slot storage itself is never freed — concurrent scanners only ever
  // touch the atomic fields, which stay valid.
  for (auto& ctx : slot->contexts) ctx.reset();
  slot->programmed = 0;
  slot->numeric_id = 0;
  slot->key.store(0, std::memory_order_release);
  size_.fetch_sub(1, std::memory_order_relaxed);
  return Error::kOk;
}

ThreadRegistry::ThreadState* ThreadRegistry::find_running(
    const EventSet* set) const noexcept {
  return scan([&](const ThreadState& slot) {
    return slot.running.load(std::memory_order_acquire) == set;
  });
}

std::vector<EventSet*> ThreadRegistry::running_sets() const {
  std::vector<EventSet*> out;
  scan([&](const ThreadState& slot) {
    if (EventSet* set = slot.running.load(std::memory_order_acquire)) {
      out.push_back(set);
    }
    return false;  // full walk
  });
  return out;
}

}  // namespace papirepro::papi
