#include "substrate/substrate.h"

namespace papirepro::papi {

Result<std::vector<std::uint32_t>> Substrate::allocate(
    std::span<const pmu::NativeEventCode> events,
    std::span<const int> priorities) const {
  auto instance = translate_allocation(events, priorities);
  if (!instance.ok()) return instance.error();

  const AllocationResult solved = priorities.empty()
                                      ? solve_max_cardinality(instance.value())
                                      : solve_max_weight(instance.value());
  if (!solved.complete()) return Error::kConflict;

  std::vector<std::uint32_t> assignment(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    assignment[i] = static_cast<std::uint32_t>(solved.assignment[i]);
  }
  return assignment;
}

Result<int> Substrate::add_timer(std::uint64_t /*period_cycles*/,
                                 TimerCallback /*callback*/) {
  return Error::kNoSupport;
}

Status Substrate::cancel_timer(int /*id*/) { return Error::kNoSupport; }

Status CounterContext::read_and_reset(std::span<std::uint64_t> out) {
  PAPIREPRO_RETURN_IF_ERROR(read(out));
  return reset_counts();
}

}  // namespace papirepro::papi
