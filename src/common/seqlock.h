// Single-writer sequence lock over caller-owned atomic cells: the one
// publication protocol behind EventSet's cross-thread value snapshot and
// the aggregation collector's shared snapshot region, which may sit in a
// MAP_SHARED mapping read by another process.
//
// Memory-ordering contract:
//   * single writer: exactly one thread writes; seq is odd while a write
//     is open and even when the cells are consistent.
//   * writer: store seq+1 relaxed, release fence, relaxed cell stores,
//     store seq+2 release.
//   * reader: load seq acquire (retry past odd), relaxed cell loads,
//     acquire fence, re-load seq relaxed — equal means the copy is
//     consistent; otherwise retry, at most max_attempts times.  What a
//     reader does when every attempt raced the writer is its own rule.
//   * every cell is a lock-free std::atomic on a standard-layout struct,
//     so a torn interleaving is discarded by the seq check, never
//     undefined behaviour (TSan-clean), and the bytes stay meaningful to
//     processes sharing the mapping.
#pragma once

#include <atomic>
#include <cstdint>

namespace papirepro {

class SeqLock {
 public:
  static constexpr int kReadAttempts = 64;

  // Both brackets are force-inlined: they sit on the read and snapshot
  // hot paths, and GCC would otherwise keep a bracket with a large cell
  // lambda out of line behind a call.

  /// Writer bracket around `store_cells`, which makes relaxed stores.
  template <typename StoreCells>
  [[gnu::always_inline]] void write(StoreCells&& store_cells) noexcept {
    const std::uint32_t s = shadow_;
    shadow_ = s + 2;
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    store_cells();
    seq_.store(s + 2, std::memory_order_release);
  }

  /// Reader bracket: runs `load_cells` (relaxed loads into the caller's
  /// copy) until one run overlaps no write.  False when all
  /// `max_attempts` raced the writer.
  template <typename LoadCells>
  [[gnu::always_inline]] bool read(
      LoadCells&& load_cells, int max_attempts = kReadAttempts) const noexcept {
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      const std::uint32_t s1 = seq_.load(std::memory_order_acquire);
      if ((s1 & 1u) != 0) continue;  // write in progress
      load_cells();
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return true;
    }
    return false;
  }

 private:
  std::atomic<std::uint32_t> seq_{0};
  /// Writer-private copy of seq_: the single writer bumps this plain
  /// copy instead of re-loading the atomic on every publication.
  std::uint32_t shadow_ = 0;
};

}  // namespace papirepro
