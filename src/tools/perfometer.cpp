#include "tools/perfometer.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace papirepro::tools {

Perfometer::Perfometer(papi::Library& library, papi::EventId metric,
                       std::uint64_t interval_cycles)
    : library_(library),
      metric_(metric),
      interval_cycles_(interval_cycles) {}

Status Perfometer::select_metric(papi::EventId metric) {
  if (running_) return Error::kIsRunning;
  metric_ = metric;
  return Error::kOk;
}

Status Perfometer::start() {
  if (running_) return Error::kIsRunning;
  if (!library_.substrate().supports_multiplex()) {
    return Error::kNoSupport;  // needs the cycle-timer service
  }
  auto handle = library_.create_event_set();
  if (!handle.ok()) return handle.error();
  set_handle_ = handle.value();
  auto set = library_.event_set(set_handle_);
  PAPIREPRO_RETURN_IF_ERROR(set.value()->add_event(metric_));
  PAPIREPRO_RETURN_IF_ERROR(set.value()->start());

  trace_.clear();
  last_usec_ = library_.real_usec();
  last_value_ = 0;
  auto timer =
      library_.substrate().add_timer(interval_cycles_, [this] { sample(); });
  if (!timer.ok()) {
    (void)set.value()->stop();
    return timer.error();
  }
  timer_id_ = timer.value();
  running_ = true;
  return Error::kOk;
}

void Perfometer::sample() {
  if (!running_) return;
  // Batched read, span of one: a lock-free slot lookup and no allocation
  // on the timer path.  The timer may fire on a thread other than the
  // one driving the set, in which case the value arrives from the set's
  // publication.
  long long value = 0;
  papi::SnapshotEntry entry;
  if (!library_.read_many({&set_handle_, 1}, {&value, 1}, {&entry, 1})
           .ok() ||
      entry.status != Error::kOk) {
    return;
  }
  const std::uint64_t now = library_.real_usec();
  Point p;
  p.usec = now;
  p.value = value;
  const double dt_s = static_cast<double>(now - last_usec_) * 1e-6;
  p.rate_per_sec =
      dt_s > 0 ? static_cast<double>(value - last_value_) / dt_s : 0.0;
  // Live pipeline telemetry rides along with each point, so a trace of
  // a sampled run also shows whether (and when) rings dropped samples.
  // Sourced from the library-wide telemetry snapshot — the same read
  // path every other stats surface uses.
  const papi::TelemetrySnapshot telemetry = library_.telemetry_snapshot();
  p.samples_dispatched =
      telemetry.value(papi::TelemetryCounter::kSamplesDispatched);
  p.samples_dropped =
      telemetry.value(papi::TelemetryCounter::kSamplesDropped);
  trace_.push_back(p);
  last_usec_ = now;
  last_value_ = value;
}

Status Perfometer::stop() {
  if (!running_) return Error::kNotRunning;
  sample();  // final point
  (void)library_.substrate().cancel_timer(timer_id_);
  timer_id_ = -1;
  auto set = library_.event_set(set_handle_);
  if (set.ok()) {
    (void)set.value()->stop();
    (void)library_.destroy_event_set(set_handle_);
  }
  set_handle_ = -1;
  running_ = false;
  return Error::kOk;
}

std::string Perfometer::render_ascii(std::size_t width,
                                     std::size_t height) const {
  std::ostringstream os;
  if (trace_.empty() || width == 0 || height == 0) {
    return "(no samples)\n";
  }
  double max_rate = 0;
  for (const Point& p : trace_) max_rate = std::max(max_rate, p.rate_per_sec);
  if (max_rate <= 0) max_rate = 1;

  // Column-compress the trace to `width` buckets (mean rate per column).
  std::vector<double> cols(width, 0.0);
  std::vector<std::size_t> counts(width, 0);
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    const std::size_t c =
        std::min(width - 1, i * width / trace_.size());
    cols[c] += trace_[i].rate_per_sec;
    ++counts[c];
  }
  for (std::size_t c = 0; c < width; ++c) {
    if (counts[c] > 0) cols[c] /= static_cast<double>(counts[c]);
  }

  os << "rate (peak " << std::scientific << std::setprecision(2)
     << max_rate << "/s)\n";
  for (std::size_t row = 0; row < height; ++row) {
    const double level =
        max_rate * static_cast<double>(height - row) /
        static_cast<double>(height);
    os << (row == 0 ? '^' : '|');
    for (std::size_t c = 0; c < width; ++c) {
      os << (cols[c] >= level - max_rate / (2.0 * height) ? '#' : ' ');
    }
    os << "\n";
  }
  os << '+' << std::string(width, '-') << "> time\n";
  return os.str();
}

std::string Perfometer::to_csv() const {
  std::ostringstream os;
  os << "usec,value,rate_per_sec,samples_dispatched,samples_dropped\n";
  for (const Point& p : trace_) {
    os << p.usec << ',' << p.value << ',' << p.rate_per_sec << ','
       << p.samples_dispatched << ',' << p.samples_dropped << "\n";
  }
  return os.str();
}

}  // namespace papirepro::tools
