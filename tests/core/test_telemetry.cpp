// Self-telemetry registry: counter correctness across the control paths,
// zero-allocation and thread-safety guarantees on the bump/trace hot
// paths, trace-export well-formedness (checked structurally, no JSON
// library), and the overhead-attribution acceptance — EventSet's
// overhead_ratio() reproducing the paper's direct-vs-sampling cost gap
// on the sim-alpha (DCPI/DADD) platform.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/eventset.h"
#include "core/library.h"
#include "core/telemetry.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

using papirepro::test::AllocationGuard;
using papirepro::test::FaultFixture;
using papirepro::test::SimFixture;

constexpr int kWarmup = 64;
constexpr int kIters = 2000;

template <typename Op>
std::uint64_t allocations_over(int iters, Op&& op) {
  for (int i = 0; i < kWarmup; ++i) op();
  AllocationGuard guard;
  for (int i = 0; i < iters; ++i) op();
  return guard.delta();
}

/// Structural JSON check without a JSON dependency: braces/brackets
/// balance outside string literals (escapes honoured), quotes balance,
/// and the document carries the keys chrome://tracing requires.
void expect_wellformed_chrome_json(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0) << "unbalanced '}' in:\n" << json;
    ASSERT_GE(brackets, 0) << "unbalanced ']' in:\n" << json;
  }
  EXPECT_FALSE(in_string) << "unterminated string in:\n" << json;
  EXPECT_EQ(braces, 0) << "unbalanced '{' in:\n" << json;
  EXPECT_EQ(brackets, 0) << "unbalanced '[' in:\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

TEST(TelemetryCounters, LifecycleCountsMatchOperations) {
  SimFixture f(sim::make_saxpy(2000), pmu::sim_x86(),
               {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();

  std::vector<long long> v(1);
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.read(v).ok());
  std::vector<long long> acc(1, 0);
  ASSERT_TRUE(set.accum(acc).ok());
  ASSERT_TRUE(set.stop(v).ok());

  const TelemetrySnapshot snap = f.library->telemetry_snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.value(TelemetryCounter::kStarts), 1u);
  EXPECT_EQ(snap.value(TelemetryCounter::kStops), 1u);
  EXPECT_EQ(snap.value(TelemetryCounter::kAccums), 1u);
  // accum() folds through read(), and accum() itself calls reset(): the
  // reads include the accum's inner read, resets count that inner reset.
  EXPECT_GE(snap.value(TelemetryCounter::kReads), 3u);
  EXPECT_GE(snap.value(TelemetryCounter::kResets), 1u);
  EXPECT_GE(snap.threads_seen, 1u);
  EXPECT_EQ(snap.value(TelemetryCounter::kFaultsInjected), 0u);
}

TEST(TelemetryCounters, MuxRotationsAndDegradationsCounted) {
  // Timer service scripted away -> sequential-mux degradation; every
  // read then drives a rotation, and both land in the registry.
  FaultPlan plan;
  plan.at(FaultSite::kAddTimer).fail_times = 1'000;
  FaultFixture f(sim::make_saxpy(50'000), pmu::sim_x86(),
                 plan, {.charge_costs = false});
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.enable_multiplex(/*slice_cycles=*/20'000).ok());
  for (const char* name : {"PAPI_FMA_INS", "PAPI_LD_INS", "PAPI_SR_INS",
                           "PAPI_TOT_INS", "PAPI_BR_INS", "PAPI_L1_DCA"}) {
    ASSERT_TRUE(set.add_named(name).ok()) << name;
  }
  ASSERT_TRUE(set.start().ok());
  ASSERT_NE(set.degradations() & degradation::kMuxSequential, 0u);
  f.machine->run();
  std::vector<long long> v(set.num_events());
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.stop().ok());

  const TelemetrySnapshot snap = f.library->telemetry_snapshot();
  EXPECT_GE(snap.value(TelemetryCounter::kDegradations), 1u);
  EXPECT_GE(snap.value(TelemetryCounter::kMuxRotations), 2u);
}

TEST(TelemetryCounters, RetriesAndInjectedFaultsCounted) {
  FaultPlan plan;
  plan.at(FaultSite::kProgram) = {/*fail_times=*/2, 0.0, Error::kConflict};
  FaultFixture f(sim::make_saxpy(2000), pmu::sim_x86(), plan);
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());  // 2 transient faults, 2 retries
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());

  const TelemetrySnapshot snap = f.library->telemetry_snapshot();
  EXPECT_EQ(snap.value(TelemetryCounter::kFaultsInjected), 2u);
  EXPECT_GE(snap.value(TelemetryCounter::kRetryAttempts), 2u);
  EXPECT_EQ(snap.value(TelemetryCounter::kRetryExhaustions), 0u);
}

TEST(TelemetryCounters, RetryExhaustionCounted) {
  FaultPlan plan;
  plan.at(FaultSite::kProgram) = {/*fail_times=*/1000, 0.0,
                                  Error::kNoCounters};
  FaultFixture f(sim::make_saxpy(100), pmu::sim_x86(), plan);
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  EXPECT_EQ(set.start().error(), Error::kNoCounters);

  const TelemetrySnapshot snap = f.library->telemetry_snapshot();
  EXPECT_GE(snap.value(TelemetryCounter::kRetryAttempts), 2u);
  EXPECT_EQ(snap.value(TelemetryCounter::kRetryExhaustions), 1u);
  EXPECT_EQ(snap.value(TelemetryCounter::kStarts), 0u);
}

TEST(TelemetryCounters, DisabledRegistryCountsNothing) {
  SimFixture f(sim::make_saxpy(2000), pmu::sim_x86(),
               {.charge_costs = false});
  f.library->telemetry().set_enabled(false);
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  ASSERT_TRUE(set.stop().ok());

  TelemetrySnapshot snap = f.library->telemetry_snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.value(TelemetryCounter::kStarts), 0u);
  EXPECT_EQ(snap.value(TelemetryCounter::kStops), 0u);

  // Re-enabling resumes counting on the same registry.
  f.library->telemetry().set_enabled(true);
  ASSERT_TRUE(set.start().ok());
  ASSERT_TRUE(set.stop().ok());
  snap = f.library->telemetry_snapshot();
  EXPECT_EQ(snap.value(TelemetryCounter::kStarts), 1u);
}

TEST(TelemetryAlloc, BumpAndTraceAllocationFree) {
  TelemetryRegistry registry;
  ASSERT_TRUE(registry.set_trace(true, 1024).ok());
  // First touch registers the slab (allocates); everything after must
  // be heap-free — including drops once the ring fills.
  registry.bump(TelemetryCounter::kReads);
  std::uint64_t ts = 0;
  EXPECT_EQ(allocations_over(
                kIters, [&] { registry.bump(TelemetryCounter::kReads); }),
            0u);
  EXPECT_EQ(allocations_over(kIters,
                             [&] {
                               registry.trace(TraceEventKind::kRead, ++ts,
                                              3, 7);
                             }),
            0u);
  const TelemetrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value(TelemetryCounter::kTraceRecords) +
                snap.value(TelemetryCounter::kTraceDrops),
            static_cast<std::uint64_t>(kIters + kWarmup));
}

TEST(TelemetryAlloc, InstrumentedReadWithTracingAllocationFree) {
  // The acceptance path: direct reads with telemetry *and* tracing on
  // stay zero-allocation (ring slots are preallocated; full rings drop).
  SimFixture f(sim::make_empty_loop(10), pmu::sim_x86(),
               {.charge_costs = false});
  ASSERT_TRUE(f.library->set_trace(true).ok());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_preset(Preset::kTotIns).ok());
  ASSERT_TRUE(set.add_preset(Preset::kTotCyc).ok());
  ASSERT_TRUE(set.start().ok());

  std::vector<long long> v(set.num_events());
  EXPECT_EQ(allocations_over(kIters, [&] { (void)set.read(v); }), 0u);
  EXPECT_TRUE(set.stop().ok());
}

TEST(TelemetryThreads, ConcurrentBumpsSumExactly) {
  TelemetryRegistry registry;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kBumpsPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (std::uint64_t i = 0; i < kBumpsPerThread; ++i) {
        registry.bump(TelemetryCounter::kReads);
      }
    });
  }
  // Concurrent snapshots must be safe (and monotone) while bumping.
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t now =
        registry.snapshot().value(TelemetryCounter::kReads);
    EXPECT_GE(now, last);
    last = now;
  }
  for (std::thread& t : threads) t.join();

  const TelemetrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value(TelemetryCounter::kReads),
            kThreads * kBumpsPerThread);
  EXPECT_GE(snap.threads_seen, static_cast<std::uint64_t>(kThreads));
}

TEST(TelemetryThreads, ConcurrentTraceAndDumpAccountsEveryRecord) {
  TelemetryRegistry registry;
  ASSERT_TRUE(registry.set_trace(true, 256).ok());
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEventsPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
        registry.trace(TraceEventKind::kRead, i, 1,
                       static_cast<std::uint64_t>(t));
      }
    });
  }
  // Drain concurrently: each thread's ring is SPSC (owner produces,
  // dump_trace consumes under the registry mutex).
  std::size_t drained_rows = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string csv = registry.dump_trace(TraceFormat::kCsv);
    drained_rows += count_lines(csv) - 1;  // minus header
  }
  for (std::thread& t : threads) t.join();
  const std::string final_csv = registry.dump_trace(TraceFormat::kCsv);
  drained_rows += count_lines(final_csv) - 1;

  const TelemetrySnapshot snap = registry.snapshot();
  // Every produced record was either exported or accounted as a drop.
  EXPECT_EQ(snap.value(TelemetryCounter::kTraceRecords),
            static_cast<std::uint64_t>(drained_rows));
  EXPECT_EQ(snap.value(TelemetryCounter::kTraceRecords) +
                snap.value(TelemetryCounter::kTraceDrops),
            kThreads * kEventsPerThread);
  EXPECT_EQ(snap.trace_records_buffered, 0u);
}

TEST(TelemetryTrace, ChromeJsonWellFormed) {
  SimFixture f(sim::make_saxpy(5'000), pmu::sim_x86(),
               {.charge_costs = false});
  ASSERT_TRUE(f.library->set_trace(true).ok());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.stop(v).ok());

  const std::string json = f.library->dump_trace(TraceFormat::kChromeJson);
  expect_wellformed_chrome_json(json);
  // Control events made it into the export with their phase markers.
  EXPECT_NE(json.find("\"start\""), std::string::npos);
  EXPECT_NE(json.find("\"read\""), std::string::npos);
  EXPECT_NE(json.find("\"stop\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\""), std::string::npos);
  // Destructive drain: a second dump is empty but still well-formed.
  const std::string empty = f.library->dump_trace(TraceFormat::kChromeJson);
  expect_wellformed_chrome_json(empty);
  EXPECT_EQ(empty.find("\"read\""), std::string::npos);
}

TEST(TelemetryTrace, CsvRowsMatchBufferedRecords) {
  SimFixture f(sim::make_saxpy(5'000), pmu::sim_x86(),
               {.charge_costs = false});
  ASSERT_TRUE(f.library->set_trace(true).ok());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(set.start().ok());
  f.machine->run();
  std::vector<long long> v(1);
  ASSERT_TRUE(set.read(v).ok());
  ASSERT_TRUE(set.stop(v).ok());

  const TelemetrySnapshot snap = f.library->telemetry_snapshot();
  EXPECT_TRUE(snap.trace_enabled);
  const std::string csv = f.library->dump_trace(TraceFormat::kCsv);
  std::istringstream is(csv);
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header, "tid,kind,ts_cycles,dur_cycles,arg");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(is, line)) {
    ++rows;
    // Every row carries exactly the header's five fields.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4) << line;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(rows), snap.trace_records_buffered);
  EXPECT_EQ(static_cast<std::uint64_t>(rows),
            snap.value(TelemetryCounter::kTraceRecords));
}

TEST(TelemetryTrace, FullRingDropsAreAccountedNeverBlocking) {
  constexpr std::size_t kMin = SpscRing<TraceRecord>::kMinCapacity;
  TelemetryRegistry registry;
  ASSERT_TRUE(registry.set_trace(true, kMin).ok());
  for (std::uint64_t i = 0; i < 100; ++i) {
    registry.trace_instant(TraceEventKind::kRead, i, 0);
  }
  const TelemetrySnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value(TelemetryCounter::kTraceRecords), kMin);
  EXPECT_EQ(snap.value(TelemetryCounter::kTraceDrops), 100u - kMin);
  // Draining frees the slots; tracing resumes on the same ring.
  (void)registry.dump_trace(TraceFormat::kCsv);
  registry.trace_instant(TraceEventKind::kRead, 200, 0);
  EXPECT_EQ(registry.snapshot().value(TelemetryCounter::kTraceRecords),
            kMin + 1);
}

TEST(TelemetryTrace, SetTraceValidatesCapacity) {
  TelemetryRegistry registry;
  EXPECT_EQ(registry
                .set_trace(true, SpscRing<TraceRecord>::kMaxCapacity + 1)
                .error(),
            Error::kInvalid);
  EXPECT_FALSE(registry.tracing());
  EXPECT_TRUE(registry.set_trace(true, 0).ok());  // 0 = keep default
  EXPECT_TRUE(registry.tracing());
  // Disabling stops recording but keeps buffered records for the dump.
  registry.trace_instant(TraceEventKind::kStart, 1, 0);
  EXPECT_TRUE(registry.set_trace(false).ok());
  registry.trace_instant(TraceEventKind::kStart, 2, 0);
  EXPECT_EQ(registry.snapshot().value(TelemetryCounter::kTraceRecords), 1u);
  const std::string csv = registry.dump_trace(TraceFormat::kCsv);
  EXPECT_EQ(count_lines(csv), 2u);  // header + the one surviving record
}

// The E3 acceptance: on sim-alpha the DADD lesson — direct counting
// with fine-grained reads costs >= 10x what hardware-assisted sampling
// does — must be queryable straight off the EventSet.
TEST(TelemetryOverhead, DirectCountingCostsTenTimesSampling) {
  // Direct run: PAPI_TOT_INS polled every 10k cycles through the full
  // syscall-priced read path (sim-alpha: 2000 cycles per read).
  SimFixture direct_f(sim::make_saxpy(300'000), pmu::sim_alpha());
  EventSet& direct_set = direct_f.new_set();
  ASSERT_TRUE(direct_set.add_named("PAPI_TOT_INS").ok());
  long long scratch = 0;
  ASSERT_TRUE(direct_f.substrate
                  ->add_timer(10'000,
                              [&] {
                                (void)direct_set.read({&scratch, 1});
                              })
                  .ok());
  ASSERT_TRUE(direct_set.start().ok());
  direct_f.machine->run();
  long long direct_value = 0;
  ASSERT_TRUE(direct_set.stop({&direct_value, 1}).ok());
  const double direct_ratio = direct_set.overhead_ratio();

  // Sampling run: the same workload counted by the ProfileMe-style
  // estimation engine (12 cycles per sample, no polling).
  SimFixture sampled_f(sim::make_saxpy(300'000), pmu::sim_alpha());
  ASSERT_TRUE(sampled_f.substrate->set_estimation(true).ok());
  EventSet& sampled_set = sampled_f.new_set();
  ASSERT_TRUE(sampled_set.add_named("PAPI_TOT_INS").ok());
  ASSERT_TRUE(sampled_set.start().ok());
  sampled_f.machine->run();
  long long sampled_value = 0;
  ASSERT_TRUE(sampled_set.stop({&sampled_value, 1}).ok());
  const double sampled_ratio = sampled_set.overhead_ratio();

  EXPECT_GT(direct_set.overhead_cycles(), 0u);
  EXPECT_GT(direct_set.measured_cycles(), 0u);
  EXPECT_GT(direct_ratio, 0.08);  // double-digit percent territory
  EXPECT_LT(sampled_ratio, 0.03);  // the 1-2 % sampling finding
  EXPECT_GE(direct_ratio, 10.0 * sampled_ratio);
}

TEST(TelemetryOverhead, RatioZeroBeforeAnyRun) {
  SimFixture f(sim::make_saxpy(100), pmu::sim_x86());
  EventSet& set = f.new_set();
  ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
  EXPECT_EQ(set.overhead_cycles(), 0u);
  EXPECT_EQ(set.measured_cycles(), 0u);
  EXPECT_EQ(set.overhead_ratio(), 0.0);
}

TEST(TelemetrySummary, ShutdownDumpWritesToConfiguredFile) {
  const std::string path =
      ::testing::TempDir() + "papirepro_telemetry_summary.txt";
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("PAPIREPRO_TELEMETRY", path.c_str(), 1), 0);
  {
    SimFixture f(sim::make_saxpy(2000), pmu::sim_x86(),
                 {.charge_costs = false});
    EventSet& set = f.new_set();
    ASSERT_TRUE(set.add_named("PAPI_TOT_INS").ok());
    ASSERT_TRUE(set.start().ok());
    f.machine->run();
    ASSERT_TRUE(set.stop().ok());
    f.library.reset();  // destructor writes the summary
  }
  ::unsetenv("PAPIREPRO_TELEMETRY");

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string summary = buffer.str();
  EXPECT_NE(summary.find("starts"), std::string::npos);
  EXPECT_NE(summary.find("reads"), std::string::npos);
  EXPECT_NE(summary.find("trace_drops"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TelemetrySummary, RenderSummaryNamesEveryCounter) {
  TelemetryRegistry registry;
  registry.bump(TelemetryCounter::kStarts);
  const std::string summary =
      TelemetryRegistry::render_summary(registry.snapshot());
  for (const char* name : kTelemetryCounterNames) {
    EXPECT_NE(summary.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace papirepro::papi
