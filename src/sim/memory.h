// Sparse, paged byte-addressable memory for the simulated machine.
// Pages are allocated on first touch; the page count feeds the simulated
// process-memory statistics behind the PAPI 3 memory-utilization
// extensions (resident size, high-water mark).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace papirepro::sim {

inline constexpr std::uint64_t kPageBits = 12;  // 4 KiB pages
inline constexpr std::uint64_t kPageSize = 1ULL << kPageBits;
inline constexpr std::uint64_t kPageMask = kPageSize - 1;

class Memory {
 public:
  Memory() = default;
  // Neither copied nor moved: the memo points into this object's pages.
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Reads and writes go through a memo of the last page looked up;
  /// pages are never freed, so the memo never dangles.
  std::int64_t read_i64(std::uint64_t addr) const {
    assert((addr & 7) == 0 && "unaligned 8-byte access");
    const std::uint64_t index = page_of(addr);
    const Page* p = index == memo_index_ ? memo_page_ : find_page(index);
    if (p == nullptr) return 0;  // untouched memory reads as zero
    return p->words[(addr & kPageMask) >> 3];
  }
  void write_i64(std::uint64_t addr, std::int64_t value) {
    assert((addr & 7) == 0 && "unaligned 8-byte access");
    const std::uint64_t index = page_of(addr);
    Page* p = index == memo_index_ ? memo_page_ : &page(index);
    p->words[(addr & kPageMask) >> 3] = value;
  }

  double read_f64(std::uint64_t addr) const {
    return std::bit_cast<double>(read_i64(addr));
  }
  void write_f64(std::uint64_t addr, double value) {
    write_i64(addr, std::bit_cast<std::int64_t>(value));
  }

  /// Number of distinct pages ever touched (high-water mark in pages).
  std::uint64_t pages_touched() const noexcept { return pages_.size(); }
  std::uint64_t bytes_touched() const noexcept {
    return pages_.size() * kPageSize;
  }

  static constexpr std::uint64_t page_of(std::uint64_t addr) noexcept {
    return addr >> kPageBits;
  }

 private:
  struct Page {
    std::int64_t words[kPageSize / 8] = {};
  };
  /// Creates the page if needed; both set the memo to a page they find.
  Page& page(std::uint64_t page_index);
  const Page* find_page(std::uint64_t page_index) const;

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  /// No page has index ~0 (page_of() drops kPageBits bits), so the memo
  /// starts empty.  Only existing pages are memoized: a page that was
  /// never written stays absent.
  mutable std::uint64_t memo_index_ = ~std::uint64_t{0};
  mutable Page* memo_page_ = nullptr;
};

}  // namespace papirepro::sim
