// Substrates whose events are one flat table: every event may sit on any
// counter, so the event namespace, the preset map and the allocation
// translation follow from the table alone.  A port of this shape (the
// mem and net components, perf_event) writes its counter context, its
// table and its clock; this base answers the rest.
#pragma once

#include <span>

#include "substrate/substrate.h"

namespace papirepro::papi {

/// One native event.  An empty description answers kNoEvent.
struct TableEvent {
  pmu::NativeEventCode code = pmu::kNoNativeEvent;
  std::string_view name;
  std::string_view description;
};

/// A preset realized by one native, or one native plus or minus another.
struct TablePreset {
  Preset preset = Preset::kTotCyc;
  pmu::NativeEventCode native = pmu::kNoNativeEvent;
  pmu::NativeEventCode second = pmu::kNoNativeEvent;
  int second_coefficient = 1;
};

class TableSubstrate : public Substrate {
 public:
  std::uint32_t num_counters() const noexcept final { return num_counters_; }

  Result<PresetMapping> preset_mapping(Preset preset) const final;
  Result<pmu::NativeEventCode> native_by_name(
      std::string_view event_name) const final;
  Result<std::string> native_name(pmu::NativeEventCode code) const final;
  Result<std::string> native_description(
      pmu::NativeEventCode code) const final;

  /// Every event may use any counter; an unknown code is kNoEvent.
  Result<AllocationInstance> translate_allocation(
      std::span<const pmu::NativeEventCode> events,
      std::span<const int> priorities) const final;

  bool has_event(pmu::NativeEventCode code) const noexcept {
    return find(code) != nullptr;
  }

 protected:
  /// The tables must outlive the substrate (they are static data).
  TableSubstrate(std::span<const TableEvent> events,
                 std::span<const TablePreset> presets,
                 std::uint32_t num_counters)
      : events_(events), presets_(presets), num_counters_(num_counters) {}

 private:
  const TableEvent* find(pmu::NativeEventCode code) const noexcept;

  std::span<const TableEvent> events_;
  std::span<const TablePreset> presets_;
  std::uint32_t num_counters_;
};

}  // namespace papirepro::papi
