#include "core/multiplex.h"

#include <unordered_map>

#include "core/allocator.h"

namespace papirepro::papi {

Result<std::vector<MuxGroupPlan>> plan_multiplex(
    const Substrate& substrate,
    std::span<const pmu::NativeEventCode> natives) {
  std::vector<std::size_t> remaining(natives.size());
  for (std::size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;

  // chosen[idx] flags membership in the round's chosen group, replacing
  // the former O(|remaining|^2) std::find scans.
  std::vector<char> chosen(natives.size(), 0);

  std::vector<MuxGroupPlan> plans;
  while (!remaining.empty()) {
    std::vector<pmu::NativeEventCode> subset;
    subset.reserve(remaining.size());
    for (std::size_t idx : remaining) subset.push_back(natives[idx]);

    // First try the whole remainder at once (common fast path), then
    // fall back to the max-cardinality matching to pick the largest
    // placeable subset.
    std::vector<std::size_t> chosen_members;
    std::vector<std::uint32_t> chosen_assignment;
    auto whole = substrate.allocate(subset, {});
    if (whole.ok()) {
      chosen_members = remaining;
      chosen_assignment = std::move(whole.value());
    } else {
      const pmu::PlatformDescription* platform = substrate.platform();
      if (platform != nullptr && platform->group_constrained()) {
        // Pick the group covering the most of the remaining events,
        // testing membership against a hashed view of the remainder
        // instead of scanning each group's slot list per event.
        std::unordered_map<pmu::NativeEventCode, std::uint32_t>
            remaining_codes;
        remaining_codes.reserve(remaining.size());
        for (std::size_t idx : remaining) ++remaining_codes[natives[idx]];
        const pmu::CounterGroup* best = nullptr;
        std::size_t best_cover = 0;
        std::unordered_map<pmu::NativeEventCode, std::uint32_t> slot_seen;
        for (const pmu::CounterGroup& g : platform->groups) {
          std::size_t cover = 0;
          slot_seen.clear();
          for (const pmu::NativeEventCode slot : g.slots) {
            if (!slot_seen.emplace(slot, 0).second) continue;  // dup slot
            const auto it = remaining_codes.find(slot);
            if (it != remaining_codes.end()) cover += it->second;
          }
          if (cover > best_cover) {
            best_cover = cover;
            best = &g;
          }
        }
        if (best == nullptr) return Error::kConflict;
        std::unordered_map<pmu::NativeEventCode, std::uint32_t> slot_of;
        slot_of.reserve(best->slots.size());
        for (std::size_t s = 0; s < best->slots.size(); ++s) {
          slot_of.emplace(best->slots[s], static_cast<std::uint32_t>(s));
        }
        for (std::size_t idx : remaining) {
          const auto it = slot_of.find(natives[idx]);
          if (it != slot_of.end()) {
            chosen_members.push_back(idx);
            chosen_assignment.push_back(it->second);
          }
        }
      } else if (auto inst = substrate.translate_allocation(subset, {});
                 !inst.ok()) {
        return inst.error();
      } else {
        const AllocationResult solved = solve_max_cardinality(inst.value());
        if (solved.mapped_count == 0) return Error::kConflict;
        for (std::size_t i = 0; i < remaining.size(); ++i) {
          if (solved.assignment[i] != AllocationResult::kUnassigned) {
            chosen_members.push_back(remaining[i]);
            chosen_assignment.push_back(
                static_cast<std::uint32_t>(solved.assignment[i]));
          }
        }
      }
    }

    for (std::size_t idx : chosen_members) chosen[idx] = 1;
    std::vector<std::size_t> next_remaining;
    for (std::size_t idx : remaining) {
      if (!chosen[idx]) next_remaining.push_back(idx);
    }
    plans.push_back({std::move(chosen_members), std::move(chosen_assignment)});
    remaining = std::move(next_remaining);
  }
  return plans;
}

}  // namespace papirepro::papi
