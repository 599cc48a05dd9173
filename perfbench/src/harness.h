// Shared pieces of the benchmark: the one clock rule, sample
// statistics, the per-thread allocation counter, the noise probes, the
// substrate-boundary probe, and the report each phase fills.
//
// Clock rule: every host timing is std::chrono::steady_clock around a
// batch of calls long enough (>= 1 us) that the clock's own ~50 ns is
// noise; thread CPU time is used only where a phase times whole
// simulator runs (sim_mips).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "substrate/substrate.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Calling thread's CPU time in seconds.
double thread_cpu_s();

/// Heap allocations made by the calling thread so far (operator new is
/// replaced in harness.cpp).
std::uint64_t thread_allocs();

/// Context switches of the calling thread so far.  A timed batch during
/// which the thread was switched out measures the host scheduler, not the
/// library: phases drop such samples from their timing statistics.
std::uint64_t thread_switches();

/// Peak resident set size of the process in MB.
double peak_rss_mb();

/// Host ns per steady_clock::now() call, over a fixed batch.
double clock_cost_ns();
/// Host ns for one fixed calibration batch: an L1-resident add loop plus
/// locked increments like the library's telemetry bumps.  Its drift
/// between runs is host contention, not library code.
double calib_batch_ns();

/// The calibration batch's time on an uncontended host of the kind the
/// benchmark was tuned on.  Reported host times are scaled to it.
inline constexpr double kCalibRefNs = 6500.0;

/// Scales a host time measured next to a calibration batch that took
/// `calib_ns` to the reference host speed.  The shared host switches
/// between speed states on a seconds scale and a run sees a different mix
/// of them; the calibration batch slows by the same factor, so the scaled
/// time is what a code change moves.
inline double at_ref_speed(double host_time, double calib_ns) {
  return calib_ns > 0 ? host_time * kCalibRefNs / calib_ns : host_time;
}

/// Timing samples with order statistics, in bounded memory: past
/// kMaxKept values the store keeps every other one and halves its intake
/// rate, so the benchmark's own bookkeeping adds the same few hundred KB
/// to peak_rss_mb however many batches a run times.
class Samples {
 public:
  static constexpr std::size_t kMaxKept = 1 << 14;
  static constexpr std::size_t kTailWindow = 1000;

  void add(double v);
  /// Adds every value and window tail `other` kept.
  void absorb(const Samples& other);
  std::size_t size() const { return seen_; }
  /// Nearest-rank quantile of the kept values, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Tail latency robust to bursts of host noise: the median, over
  /// consecutive windows of kTailWindow samples in arrival order, of each
  /// window's p90 (100 samples lie beyond it in every window); the plain
  /// p90 before the first window closes.  The tail stops at p90 because
  /// timer interrupts hit about 1 % of microsecond batches, so a p99
  /// flips between runs with whether that share is above or below 1 %.
  double windowed_p90() const;

 private:
  void keep(double v);

  std::vector<double> kept_;
  std::vector<double> window_;
  std::vector<double> tails_;
  std::size_t seen_ = 0;
  std::size_t stride_ = 1;
};

/// Seeded input generator: a phase draws every advance length, stagger
/// and region length from here, and nothing else.
class Inputs {
 public:
  Inputs(std::uint64_t seed, std::uint64_t salt)
      : rng_(seed * 0x9e3779b97f4a7c15ULL ^ salt) {}
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + rng_.next_below(hi - lo + 1);
  }

 private:
  papirepro::Xoshiro256 rng_;
};

struct PhaseConfig {
  std::uint64_t seed = 1;
  double budget_s = 1.0;  ///< host seconds of timed loop
  bool trace = false;
  bool smoke = false;
  bool primary = false;   ///< the workload's own phase (full scale)
};

/// What one phase measured.  End-to-end metrics use the names in
/// BENCHMARK.json; per-layer metrics are prefixed with the phase name.
struct Report {
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> e2e;
  std::map<std::string, Value> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t failed_checks = 0;
  double setup_s = 0;

  void metric(const std::string& name, double v, const std::string& unit) {
    e2e[name] = {v, unit};
  }
  void layer_metric(const std::string& name, double v,
                    const std::string& unit) {
    layer[name] = {v, unit};
  }
  /// A failed output check counts as one failed op.
  void check(bool ok, const char* what);
};

// --- substrate-boundary probe ---------------------------------------------

/// Calls core made into one thread's counter contexts.  Single writer:
/// the thread that owns the contexts (overflow deliveries run on it too).
struct ProbeCounts {
  std::uint64_t program = 0;
  std::uint64_t start = 0;
  std::uint64_t stop = 0;
  std::uint64_t read = 0;
  std::uint64_t reset = 0;
  std::uint64_t overflows = 0;
  /// Host ns inside program/start/stop/read/reset, when timing is on.
  std::int64_t inside_ns = 0;

  std::uint64_t calls() const {
    return program + start + stop + read + reset;
  }
};

/// Counts created by this thread's contexts land here; set it before the
/// thread's first call into a probed library.
void set_thread_probe_counts(ProbeCounts* counts);

/// Forwarding Substrate decorator: every context it hands out counts
/// (and, with `timed`, times) the calls core makes into it.
std::unique_ptr<papirepro::papi::Substrate> make_probe_substrate(
    std::unique_ptr<papirepro::papi::Substrate> inner, bool timed);

// --- phases -------------------------------------------------------------

void run_selfmon(const PhaseConfig& cfg, Report& rep);
void run_cluster_poll(const PhaseConfig& cfg, Report& rep);
void run_profile(const PhaseConfig& cfg, Report& rep);

}  // namespace perfbench
