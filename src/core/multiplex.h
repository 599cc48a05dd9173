// Multiplex planning: partition a native-event list into subsets, each
// simultaneously countable on the hardware, to be time-sliced by the
// EventSet.  "Multiplexing allows more counters to be used simultaneously
// than are physically supported by the hardware.  With multiplexing, the
// physical counters are time-sliced, and the counts are estimated from
// the measurements."  Estimation accuracy (and its failure on short
// runs) is experiment E4.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "pmu/native_event.h"
#include "substrate/substrate.h"

namespace papirepro::papi {

struct MuxGroupPlan {
  /// Indices into the original native-event list.
  std::vector<std::size_t> members;
  /// Physical counter (or sampled slot) per member, parallel to members.
  std::vector<std::uint32_t> assignment;
};

/// Greedy set-cover partition: repeatedly allocate the largest
/// simultaneously-countable subset of the remaining events (via the
/// optimal max-cardinality matcher) until all are covered.
/// Error::kConflict if some event cannot be counted even alone.
Result<std::vector<MuxGroupPlan>> plan_multiplex(
    const Substrate& substrate,
    std::span<const pmu::NativeEventCode> natives);

/// Default time-slice, in substrate cycles.  Real PAPI sliced on the
/// ~10 ms profiling timer; at simulated GHz rates that is far longer
/// than our kernels, so the default is chosen to give a few dozen
/// rotations on a millions-of-cycles run.
inline constexpr std::uint64_t kDefaultMuxSliceCycles = 50'000;

}  // namespace papirepro::papi
