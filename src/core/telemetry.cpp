#include "core/telemetry.h"

#include <algorithm>
#include <sstream>

namespace papirepro::papi {

Status TelemetryRegistry::set_trace(bool enabled,
                                    std::size_t ring_capacity) {
  if (ring_capacity > SpscRing<TraceRecord>::kMaxCapacity) {
    return Error::kInvalid;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (enabled) {
    if (ring_capacity != 0) trace_capacity_ = ring_capacity;
    for (const auto& slab : slabs_) {
      if (slab->ring.load(std::memory_order_relaxed) != nullptr) continue;
      rings_.push_back(
          std::make_unique<SpscRing<TraceRecord>>(trace_capacity_));
      slab->ring.store(rings_.back().get(), std::memory_order_release);
    }
  }
  trace_enabled_.store(enabled, std::memory_order_relaxed);
  return Error::kOk;
}

TelemetrySnapshot TelemetryRegistry::snapshot() const {
  TelemetrySnapshot out;
  out.enabled = enabled_.load(std::memory_order_relaxed);
  out.trace_enabled = trace_enabled_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  out.threads_seen = slabs_.size();
  for (const auto& slab : slabs_) {
    for (std::size_t c = 0; c < kNumTelemetryCounters; ++c) {
      out.counters[c] +=
          slab->counts[c].value.load(std::memory_order_relaxed);
    }
    for (std::size_t c = 0; c < out.component_counters.size(); ++c) {
      out.component_counters[c] +=
          slab->component_counts[c].load(std::memory_order_relaxed);
    }
    if (const SpscRing<TraceRecord>* ring =
            slab->ring.load(std::memory_order_relaxed)) {
      out.trace_records_buffered += ring->size();
      out.counters[static_cast<std::size_t>(
          TelemetryCounter::kTraceRecords)] += ring->pushed();
      out.counters[static_cast<std::size_t>(TelemetryCounter::kTraceDrops)] +=
          ring->dropped();
    }
  }
  return out;
}

namespace {

struct DrainedRecord {
  std::uint64_t tid = 0;
  TraceRecord record;
};

}  // namespace

std::string TelemetryRegistry::dump_trace(TraceFormat format) {
  // Drain under the mutex: the consumer side of every ring is
  // serialized here, preserving each ring's SPSC contract against its
  // (still live) producer thread.
  std::vector<DrainedRecord> records;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& slab : slabs_) {
      SpscRing<TraceRecord>* ring =
          slab->ring.load(std::memory_order_relaxed);
      if (ring == nullptr) continue;
      TraceRecord r;
      while (ring->try_pop(r)) {
        records.push_back({slab->tid_label, r});
      }
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const DrainedRecord& a, const DrainedRecord& b) {
                     return a.record.ts_cycles < b.record.ts_cycles;
                   });

  std::ostringstream os;
  if (format == TraceFormat::kCsv) {
    os << "tid,kind,ts_cycles,dur_cycles,arg\n";
    for (const DrainedRecord& d : records) {
      os << d.tid << ',' << trace_event_name(d.record.kind) << ','
         << d.record.ts_cycles << ',' << d.record.dur_cycles << ','
         << d.record.arg << "\n";
    }
    return os.str();
  }

  // chrome://tracing JSON (the trace_event "JSON Array" container with
  // named traceEvents).  Timestamps are simulated cycles emitted in the
  // microsecond "ts"/"dur" fields — one cycle renders as one display
  // unit, which is exactly the resolution the substrate clock has.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const DrainedRecord& d : records) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << trace_event_name(d.record.kind)
       << "\",\"cat\":\"papirepro\",\"pid\":1,\"tid\":" << d.tid
       << ",\"ts\":" << d.record.ts_cycles;
    if (d.record.dur_cycles > 0) {
      os << ",\"ph\":\"X\",\"dur\":" << d.record.dur_cycles;
    } else {
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    os << ",\"args\":{\"arg\":" << d.record.arg << "}}";
  }
  os << "]}";
  return os.str();
}

std::string TelemetryRegistry::render_summary(
    const TelemetrySnapshot& snapshot) {
  std::ostringstream os;
  os << "papirepro telemetry summary\n";
  os << "  threads_seen: " << snapshot.threads_seen
     << "  enabled: " << (snapshot.enabled ? "yes" : "no")
     << "  trace: " << (snapshot.trace_enabled ? "on" : "off") << "\n";
  for (std::size_t c = 0; c < kNumTelemetryCounters; ++c) {
    os << "  " << kTelemetryCounterNames[c] << ": "
       << snapshot.counters[c] << "\n";
  }
  for (std::size_t comp = 0; comp < snapshot.num_components; ++comp) {
    os << "  component[" << comp << "]: starts="
       << snapshot.component_value(comp, ComponentCounter::kStarts)
       << " stops="
       << snapshot.component_value(comp, ComponentCounter::kStops)
       << " reads="
       << snapshot.component_value(comp, ComponentCounter::kReads)
       << "\n";
  }
  os << "  sampling: sweeps=" << snapshot.sampling_sweeps
     << " flushes=" << snapshot.sampling_flushes
     << " rings_active=" << snapshot.sampling_rings_active
     << " ring_capacity=" << snapshot.sampling_ring_capacity
     << " async=" << (snapshot.sampling_async ? "yes" : "no") << "\n";
  os << "  trace_records_buffered: " << snapshot.trace_records_buffered
     << "\n";
  return os.str();
}

}  // namespace papirepro::papi
