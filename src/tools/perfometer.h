// perfometer: "Real-time performance monitoring is supported by the
// perfometer tool ... the tool provides a runtime trace of a
// user-selected PAPI metric" (Fig. 2 shows FLOPS over time).  The
// original had a Java front-end fed by a backend linked with PAPI; here
// the backend samples a metric EventSet on a cycle timer and the
// "display" renders the trace as an ASCII chart / CSV trace file (the
// paper notes the backend "can save a trace file for later off-line
// analysis").  Experiment E2 regenerates the Fig. 2 shape with a
// multi-phase program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/library.h"

namespace papirepro::tools {

class Perfometer {
 public:
  struct Point {
    std::uint64_t usec = 0;        ///< sample timestamp
    long long value = 0;           ///< cumulative metric value
    double rate_per_sec = 0;       ///< metric rate over the last interval
    /// Async sampling-pipeline snapshot at this point (cumulative
    /// library-wide counters; zero when the pipeline is idle).
    std::uint64_t samples_dispatched = 0;
    std::uint64_t samples_dropped = 0;
  };

  /// Samples `metric` every `interval_cycles` substrate cycles.
  Perfometer(papi::Library& library, papi::EventId metric,
             std::uint64_t interval_cycles);

  /// Select a different metric (perfometer's "Select Metric" button);
  /// only while stopped.
  Status select_metric(papi::EventId metric);

  Status start();
  Status stop();
  bool running() const noexcept { return running_; }

  const std::vector<Point>& trace() const noexcept { return trace_; }

  /// ASCII rendering of the rate trace (the Fig. 2 view).
  std::string render_ascii(std::size_t width = 72,
                           std::size_t height = 12) const;
  /// Trace file for off-line analysis.
  std::string to_csv() const;

 private:
  void sample();

  papi::Library& library_;
  papi::EventId metric_;
  std::uint64_t interval_cycles_;
  int set_handle_ = -1;
  int timer_id_ = -1;
  bool running_ = false;
  std::uint64_t last_usec_ = 0;
  long long last_value_ = 0;
  std::vector<Point> trace_;
};

}  // namespace papirepro::tools
