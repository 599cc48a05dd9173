#include "sim/tlb.h"

#include <bit>
#include <cassert>

namespace papirepro::sim {

Tlb::Tlb(const TlbConfig& config)
    : config_(config),
      slots_(config.entries),
      // At least two buckets per entry keeps chains short.
      buckets_(std::bit_ceil(2 * std::uint64_t{config.entries}), kNone),
      bucket_shift_(64 - static_cast<std::uint32_t>(
                             std::countr_zero(buckets_.size()))) {
  assert(config.entries > 0 && "a TLB needs at least one entry");
}

void Tlb::unlink(std::uint32_t s) noexcept {
  Slot& slot = slots_[s];
  if (slot.older != kNone) slots_[slot.older].newer = slot.newer;
  else lru_ = slot.newer;
  if (slot.newer != kNone) slots_[slot.newer].older = slot.older;
  else mru_ = slot.older;
}

void Tlb::push_mru(std::uint32_t s) noexcept {
  Slot& slot = slots_[s];
  slot.older = mru_;
  slot.newer = kNone;
  if (mru_ != kNone) slots_[mru_].newer = s;
  else lru_ = s;
  mru_ = s;
}

bool Tlb::access(std::uint64_t addr) {
  ++stats_.accesses;
  const std::uint64_t vpn = addr >> config_.page_bits;
  // Runs of accesses to one page are the common case.
  if (mru_ != kNone && slots_[mru_].vpn == vpn) return true;

  std::uint32_t& head = bucket(vpn);
  for (std::uint32_t s = head; s != kNone; s = slots_[s].chain) {
    if (slots_[s].vpn == vpn) {
      unlink(s);
      push_mru(s);
      return true;
    }
  }

  ++stats_.misses;
  std::uint32_t s;
  if (used_ < slots_.size()) {
    s = used_++;
  } else {
    // Evict the least recently used entry: take it off its chain and
    // off the recency list.
    s = lru_;
    std::uint32_t* link = &bucket(slots_[s].vpn);
    while (*link != s) link = &slots_[*link].chain;
    *link = slots_[s].chain;
    unlink(s);
  }
  slots_[s].vpn = vpn;
  slots_[s].chain = head;
  head = s;
  push_mru(s);
  return false;
}

void Tlb::flush() {
  for (std::uint32_t& b : buckets_) b = kNone;
  used_ = 0;
  mru_ = lru_ = kNone;
}

}  // namespace papirepro::sim
