#include "substrate/table_substrate.h"

namespace papirepro::papi {

const TableEvent* TableSubstrate::find(
    pmu::NativeEventCode code) const noexcept {
  for (const TableEvent& event : events_) {
    if (event.code == code) return &event;
  }
  return nullptr;
}

Result<PresetMapping> TableSubstrate::preset_mapping(Preset preset) const {
  for (const TablePreset& entry : presets_) {
    if (entry.preset != preset) continue;
    PresetMapping mapping;
    mapping.preset = preset;
    mapping.terms = {{entry.native, 1}};
    if (entry.second != pmu::kNoNativeEvent) {
      mapping.terms.push_back({entry.second, entry.second_coefficient});
    }
    return mapping;
  }
  return Error::kNoEvent;
}

Result<pmu::NativeEventCode> TableSubstrate::native_by_name(
    std::string_view event_name) const {
  for (const TableEvent& event : events_) {
    if (event.name == event_name) return event.code;
  }
  return Error::kNoEvent;
}

Result<std::string> TableSubstrate::native_name(
    pmu::NativeEventCode code) const {
  const TableEvent* event = find(code);
  if (event == nullptr) return Error::kNoEvent;
  return std::string(event->name);
}

Result<std::string> TableSubstrate::native_description(
    pmu::NativeEventCode code) const {
  const TableEvent* event = find(code);
  if (event == nullptr || event->description.empty()) return Error::kNoEvent;
  return std::string(event->description);
}

Result<AllocationInstance> TableSubstrate::translate_allocation(
    std::span<const pmu::NativeEventCode> events,
    std::span<const int> priorities) const {
  AllocationInstance instance;
  instance.num_counters = num_counters_;
  instance.allowed.reserve(events.size());
  instance.priority.reserve(events.size());
  const std::uint64_t full_mask = (1ULL << num_counters_) - 1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!has_event(events[i])) return Error::kNoEvent;
    instance.allowed.push_back(static_cast<std::uint32_t>(full_mask));
    instance.priority.push_back(i < priorities.size() ? priorities[i] : 0);
  }
  return instance;
}

}  // namespace papirepro::papi
