#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>

// --- per-thread allocation counting ----------------------------------------
// Replaceable global allocation functions.  The counter is thread-local so
// the timing thread's count is exact no matter what the library's
// aggregator thread or other ranks allocate meanwhile.

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

namespace papi = papirepro::papi;

std::uint64_t thread_allocs() { return t_allocs; }

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t thread_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double clock_cost_ns() {
  constexpr int kCalls = 4096;
  const std::int64_t t0 = now_ns();
  std::int64_t sink = 0;
  for (int i = 0; i < kCalls; ++i) sink += now_ns();
  const std::int64_t t1 = now_ns();
  if (sink == 42) std::fputs("", stderr);  // keep the loop
  return static_cast<double>(t1 - t0) / kCalls;
}

double calib_batch_ns() {
  // Four independent add chains over an L1-resident array, plus the kind
  // of locked read-modify-write the library's telemetry bumps make: both
  // slow with the host's speed state, and locked ops also with its store
  // traffic.  No calls, no allocation.
  static volatile std::uint64_t data[256];
  static std::atomic<std::uint64_t> counter{0};
  constexpr int kPasses = 64;
  const std::int64_t t0 = now_ns();
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
  for (int p = 0; p < kPasses; ++p) {
    for (int i = 0; i < 256; i += 4) {
      a += data[i];
      b += data[i + 1];
      c += data[i + 2];
      d += data[i + 3];
    }
    for (int i = 0; i < 4; ++i) counter.fetch_add(1, std::memory_order_relaxed);
  }
  const std::int64_t t1 = now_ns();
  data[0] = a + b + c + d;
  return static_cast<double>(t1 - t0);
}

namespace {
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}
}  // namespace

void Samples::add(double v) {
  if (window_.capacity() == 0) window_.reserve(kTailWindow);
  window_.push_back(v);
  if (window_.size() == kTailWindow) {
    tails_.push_back(nearest_rank(window_, 0.9));
    window_.clear();
  }
  if (seen_++ % stride_ == 0) keep(v);
}

void Samples::keep(double v) {
  if (kept_.capacity() == 0) kept_.reserve(kMaxKept);
  kept_.push_back(v);
  if (kept_.size() < kMaxKept) return;
  for (std::size_t i = 0; i < kMaxKept / 2; ++i) kept_[i] = kept_[2 * i];
  kept_.resize(kMaxKept / 2);
  stride_ *= 2;
}

void Samples::absorb(const Samples& other) {
  for (const double v : other.kept_) keep(v);
  tails_.insert(tails_.end(), other.tails_.begin(), other.tails_.end());
  seen_ += other.seen_;
}

double Samples::quantile(double q) const { return nearest_rank(kept_, q); }

double Samples::windowed_p90() const {
  return tails_.empty() ? quantile(0.9) : nearest_rank(tails_, 0.5);
}

void Report::check(bool ok, const char* what) {
  if (ok) return;
  ++failed;
  ++failed_checks;
  if (failed_checks <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what);
}

// --- substrate-boundary probe ---------------------------------------------

namespace {

thread_local ProbeCounts* t_probe_counts = nullptr;

class ProbeContext final : public papi::CounterContext {
 public:
  ProbeContext(std::unique_ptr<papi::CounterContext> inner,
               ProbeCounts& counts, bool timed)
      : inner_(std::move(inner)), counts_(counts), timed_(timed) {}

  papirepro::Status program(
      std::span<const papirepro::pmu::NativeEventCode> events,
      std::span<const std::uint32_t> assignment) override {
    ++counts_.program;
    return timed([&] { return inner_->program(events, assignment); });
  }
  papirepro::Status start() override {
    ++counts_.start;
    return timed([&] { return inner_->start(); });
  }
  papirepro::Status stop() override {
    ++counts_.stop;
    return timed([&] { return inner_->stop(); });
  }
  papirepro::Status read(std::span<std::uint64_t> out) override {
    ++counts_.read;
    return timed([&] { return inner_->read(out); });
  }
  papirepro::Status reset_counts() override {
    ++counts_.reset;
    return timed([&] { return inner_->reset_counts(); });
  }
  papirepro::Status set_overflow(std::uint32_t event_index,
                                 std::uint64_t threshold,
                                 OverflowCallback callback,
                                 papi::OverflowDeliveryMode mode) override {
    // Deliveries are counted, not timed: an enqueue is shorter than the
    // clock read that would time it.
    ProbeCounts* counts = &counts_;
    return inner_->set_overflow(
        event_index, threshold,
        [counts, cb = std::move(callback)](const papi::SubstrateOverflow& o) {
          ++counts->overflows;
          cb(o);
        },
        mode);
  }
  papirepro::Status clear_overflow(std::uint32_t event_index) override {
    return inner_->clear_overflow(event_index);
  }
  bool running() const noexcept override { return inner_->running(); }
  papirepro::Status set_domain(std::uint32_t domain_mask) override {
    return inner_->set_domain(domain_mask);
  }
  std::uint64_t cycles() const override { return inner_->cycles(); }
  std::uint64_t overhead_cycles() const noexcept override {
    return inner_->overhead_cycles();
  }
  papirepro::Result<int> add_timer(std::uint64_t period_cycles,
                                   TimerCallback callback) override {
    return inner_->add_timer(period_cycles, std::move(callback));
  }
  papirepro::Status cancel_timer(int id) override {
    return inner_->cancel_timer(id);
  }

 private:
  template <typename Op>
  papirepro::Status timed(Op&& op) {
    if (!timed_) return op();
    const std::int64_t t0 = now_ns();
    const papirepro::Status s = op();
    counts_.inside_ns += now_ns() - t0;
    return s;
  }

  std::unique_ptr<papi::CounterContext> inner_;
  ProbeCounts& counts_;
  bool timed_;
};

class ProbeSubstrate final : public papi::Substrate {
 public:
  ProbeSubstrate(std::unique_ptr<papi::Substrate> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  void bind_telemetry(papi::TelemetryRegistry* telemetry) override {
    inner_->bind_telemetry(telemetry);
  }
  std::string_view name() const noexcept override { return inner_->name(); }
  std::uint32_t num_counters() const noexcept override {
    return inner_->num_counters();
  }
  const papirepro::pmu::PlatformDescription* platform()
      const noexcept override {
    return inner_->platform();
  }
  std::uint32_t counter_width_bits() const noexcept override {
    return inner_->counter_width_bits();
  }
  papirepro::Result<std::unique_ptr<papi::CounterContext>> create_context()
      override {
    auto ctx = inner_->create_context();
    if (!ctx.ok()) return ctx.error();
    ProbeCounts& counts =
        t_probe_counts != nullptr ? *t_probe_counts : unowned_;
    return std::unique_ptr<papi::CounterContext>(
        new ProbeContext(std::move(ctx).value(), counts, timed_));
  }
  papirepro::Result<papi::PresetMapping> preset_mapping(
      papi::Preset preset) const override {
    return inner_->preset_mapping(preset);
  }
  papirepro::Result<papirepro::pmu::NativeEventCode> native_by_name(
      std::string_view name) const override {
    return inner_->native_by_name(name);
  }
  papirepro::Result<std::string> native_name(
      papirepro::pmu::NativeEventCode code) const override {
    return inner_->native_name(code);
  }
  papirepro::Result<std::string> native_description(
      papirepro::pmu::NativeEventCode code) const override {
    return inner_->native_description(code);
  }
  papirepro::Result<papi::AllocationInstance> translate_allocation(
      std::span<const papirepro::pmu::NativeEventCode> events,
      std::span<const int> priorities) const override {
    return inner_->translate_allocation(events, priorities);
  }
  papirepro::Result<std::vector<std::uint32_t>> allocate(
      std::span<const papirepro::pmu::NativeEventCode> events,
      std::span<const int> priorities) const override {
    return inner_->allocate(events, priorities);
  }
  std::uint64_t allocation_generation() const noexcept override {
    return inner_->allocation_generation();
  }
  bool supports_estimation() const noexcept override {
    return inner_->supports_estimation();
  }
  papirepro::Status set_estimation(bool enabled) override {
    return inner_->set_estimation(enabled);
  }
  std::uint64_t real_usec() const override { return inner_->real_usec(); }
  std::uint64_t real_cycles() const override { return inner_->real_cycles(); }
  std::uint64_t virt_usec() const override { return inner_->virt_usec(); }
  bool supports_multiplex() const noexcept override {
    return inner_->supports_multiplex();
  }
  papirepro::Result<int> add_timer(std::uint64_t period_cycles,
                                   TimerCallback callback) override {
    return inner_->add_timer(period_cycles, std::move(callback));
  }
  papirepro::Status cancel_timer(int id) override {
    return inner_->cancel_timer(id);
  }
  papirepro::Result<papi::MemoryInfo> memory_info() const override {
    return inner_->memory_info();
  }

 private:
  std::unique_ptr<papi::Substrate> inner_;
  bool timed_;
  /// Sink for contexts created by threads that registered no counts.
  ProbeCounts unowned_;
};

}  // namespace

void set_thread_probe_counts(ProbeCounts* counts) { t_probe_counts = counts; }

std::unique_ptr<papi::Substrate> make_probe_substrate(
    std::unique_ptr<papi::Substrate> inner, bool timed) {
  return std::make_unique<ProbeSubstrate>(std::move(inner), timed);
}

}  // namespace perfbench
