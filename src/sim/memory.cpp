#include "sim/memory.h"

namespace papirepro::sim {

Memory::Page& Memory::page(std::uint64_t page_index) {
  auto& slot = pages_[page_index];
  if (!slot) slot = std::make_unique<Page>();
  memo_index_ = page_index;
  memo_page_ = slot.get();
  return *slot;
}

const Memory::Page* Memory::find_page(std::uint64_t page_index) const {
  auto it = pages_.find(page_index);
  if (it == pages_.end()) return nullptr;
  memo_index_ = page_index;
  memo_page_ = it->second.get();
  return memo_page_;
}

}  // namespace papirepro::sim
