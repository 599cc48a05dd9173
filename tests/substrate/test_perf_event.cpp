// Tests of the real-kernel perf_event substrate.  Software events
// (task-clock, page faults) are permitted under the default
// perf_event_paranoid; hardware-event tests skip gracefully where the
// environment forbids them — the same graceful degradation PAPI had on
// unpatched kernels.
#include "substrate/perf_event_substrate.h"

#include <gtest/gtest.h>
#include <linux/perf_event.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/library.h"
#include "sim/comm.h"
#include "substrate/component_substrates.h"
#include "substrate/host_substrate.h"
#include "test_util.h"

namespace papirepro::papi {
namespace {

pmu::NativeEventCode code_of(const PerfEventSubstrate& sub,
                             std::string_view name) {
  auto code = sub.native_by_name(name);
  EXPECT_TRUE(code.ok()) << name;
  return code.value();
}

/// Every (code, name) entry of one flat event table.
struct EventTable {
  const Substrate& substrate;
  std::vector<std::pair<pmu::NativeEventCode, std::string_view>> entries;
  bool described = false;  ///< entries carry a description
};

constexpr pmu::NativeEventCode perf_code(std::uint32_t type,
                                         std::uint32_t config) {
  return (type << 16) | config;
}

// Walks every entry of the flat-table substrates — perf_event and the mem
// and net components — through the event namespace, the allocation
// translation and the preset map.
TEST(PerfEvent, NativeNameRoundTrip) {
  test::SimFixture fixture(sim::make_saxpy(100), pmu::sim_x86());
  sim::CommWorld world({fixture.machine.get()});
  const PerfEventSubstrate perf;
  const MemBandwidthSubstrate mem(*fixture.machine);
  const NetworkSubstrate net(world);
  const auto hw = [](std::uint32_t config) {
    return perf_code(PERF_TYPE_HARDWARE, config);
  };
  const auto sw = [](std::uint32_t config) {
    return perf_code(PERF_TYPE_SOFTWARE, config);
  };
  const EventTable tables[] = {
      {perf,
       {{hw(PERF_COUNT_HW_CPU_CYCLES), "PERF_COUNT_HW_CPU_CYCLES"},
        {hw(PERF_COUNT_HW_INSTRUCTIONS), "PERF_COUNT_HW_INSTRUCTIONS"},
        {hw(PERF_COUNT_HW_CACHE_REFERENCES),
         "PERF_COUNT_HW_CACHE_REFERENCES"},
        {hw(PERF_COUNT_HW_CACHE_MISSES), "PERF_COUNT_HW_CACHE_MISSES"},
        {hw(PERF_COUNT_HW_BRANCH_INSTRUCTIONS),
         "PERF_COUNT_HW_BRANCH_INSTRUCTIONS"},
        {hw(PERF_COUNT_HW_BRANCH_MISSES), "PERF_COUNT_HW_BRANCH_MISSES"},
        {sw(PERF_COUNT_SW_TASK_CLOCK), "PERF_COUNT_SW_TASK_CLOCK"},
        {sw(PERF_COUNT_SW_PAGE_FAULTS), "PERF_COUNT_SW_PAGE_FAULTS"},
        {sw(PERF_COUNT_SW_CONTEXT_SWITCHES),
         "PERF_COUNT_SW_CONTEXT_SWITCHES"},
        {sw(PERF_COUNT_SW_CPU_MIGRATIONS), "PERF_COUNT_SW_CPU_MIGRATIONS"},
        {sw(PERF_COUNT_SW_PAGE_FAULTS_MIN),
         "PERF_COUNT_SW_PAGE_FAULTS_MIN"},
        {sw(PERF_COUNT_SW_PAGE_FAULTS_MAJ),
         "PERF_COUNT_SW_PAGE_FAULTS_MAJ"}},
       /*described=*/false},
      {mem,
       {{mem_events::kBandwidthRd, "BANDWIDTH_RD"},
        {mem_events::kL2Traffic, "L2_TRAFFIC"},
        {mem_events::kL2Accesses, "L2_ACCESSES"},
        {mem_events::kL2Misses, "L2_MISSES"},
        {mem_events::kPagesTouched, "PAGES_TOUCHED"},
        {mem_events::kResidentBytes, "RESIDENT_BYTES"}},
       /*described=*/true},
      {net,
       {{net_events::kMsgSent, "MSG_SENT"},
        {net_events::kMsgRecv, "MSG_RECV"},
        {net_events::kWordsSent, "WORDS_SENT"},
        {net_events::kWordsRecv, "WORDS_RECV"},
        {net_events::kBytesSent, "BYTES_SENT"},
        {net_events::kWaitRetries, "WAIT_RETRIES"}},
       /*described=*/true},
  };
  constexpr pmu::NativeEventCode kUnknown = 0x7fff'0000;

  for (const EventTable& table : tables) {
    const Substrate& sub = table.substrate;
    SCOPED_TRACE(std::string(sub.name()));
    std::vector<pmu::NativeEventCode> codes;
    for (const auto& [code, name] : table.entries) {
      const auto by_name = sub.native_by_name(name);
      ASSERT_TRUE(by_name.ok()) << name;
      EXPECT_EQ(by_name.value(), code) << name;
      const auto by_code = sub.native_name(code);
      ASSERT_TRUE(by_code.ok()) << name;
      EXPECT_EQ(by_code.value(), name);
      const auto description = sub.native_description(code);
      if (table.described) {
        ASSERT_TRUE(description.ok()) << name;
        EXPECT_FALSE(description.value().empty()) << name;
      } else {
        EXPECT_EQ(description.error(), Error::kNoEvent) << name;
      }
      codes.push_back(code);
    }
    EXPECT_EQ(sub.native_by_name("PERF_COUNT_HW_FOO").error(),
              Error::kNoEvent);
    EXPECT_EQ(sub.native_name(kUnknown).error(), Error::kNoEvent);
    EXPECT_EQ(sub.native_description(kUnknown).error(), Error::kNoEvent);

    // Every event may sit on any counter; one unknown code spoils the list.
    const auto instance = sub.translate_allocation(codes, {});
    ASSERT_TRUE(instance.ok());
    EXPECT_EQ(instance.value().num_counters, sub.num_counters());
    const auto full = static_cast<std::uint32_t>(
        (1ULL << sub.num_counters()) - 1);
    EXPECT_EQ(instance.value().allowed,
              std::vector<std::uint32_t>(codes.size(), full));
    std::vector<pmu::NativeEventCode> spoiled = codes;
    spoiled.push_back(kUnknown);
    EXPECT_EQ(sub.translate_allocation(spoiled, {}).error(),
              Error::kNoEvent);

    for (std::size_t p = 0; p < kNumPresets; ++p) {
      const auto mapping = sub.preset_mapping(static_cast<Preset>(p));
      if (!mapping.ok()) {
        EXPECT_EQ(mapping.error(), Error::kNoEvent);
        continue;
      }
      for (const MappingTerm& term : mapping.value().terms) {
        EXPECT_NE(std::find(codes.begin(), codes.end(), term.native),
                  codes.end())
            << preset_name(static_cast<Preset>(p));
      }
    }
  }
}

TEST(PerfEvent, PresetMappings) {
  PerfEventSubstrate sub;
  EXPECT_TRUE(sub.preset_mapping(Preset::kTotCyc).ok());
  EXPECT_TRUE(sub.preset_mapping(Preset::kTotIns).ok());
  EXPECT_TRUE(sub.preset_mapping(Preset::kBrMsp).ok());
  // Derived: correctly-predicted branches.
  auto prc = sub.preset_mapping(Preset::kBrPrc);
  ASSERT_TRUE(prc.ok());
  EXPECT_EQ(prc.value().terms.size(), 2u);
  // L1-specific events have no portable perf mapping here.
  EXPECT_EQ(sub.preset_mapping(Preset::kL1Dcm).error(), Error::kNoEvent);
}

TEST(PerfEvent, SoftwareCountingEndToEnd) {
  PerfEventSubstrate sub;
  if (!sub.available()) GTEST_SKIP() << "perf_event unavailable";

  const pmu::NativeEventCode events[] = {
      code_of(sub, "PERF_COUNT_SW_TASK_CLOCK"),
      code_of(sub, "PERF_COUNT_SW_PAGE_FAULTS")};
  auto assignment = sub.allocate(events, {});
  ASSERT_TRUE(assignment.ok());
  auto ctx = sub.create_context().value();
  ASSERT_TRUE(ctx->program(events, assignment.value()).ok());
  ASSERT_TRUE(ctx->start().ok());

  // Burn CPU and fault some pages.
  volatile double x = 1.0;
  for (int i = 0; i < 3'000'000; ++i) x = x * 1.0000001 + 0.25;
  std::vector<char> pages(8 * 1024 * 1024);
  for (std::size_t i = 0; i < pages.size(); i += 4096) pages[i] = 1;

  ASSERT_TRUE(ctx->stop().ok());
  std::uint64_t out[2] = {};
  ASSERT_TRUE(ctx->read(out).ok());
  EXPECT_GT(out[0], 1'000'000u);  // >1ms of task clock (ns units)
  EXPECT_GT(out[1], 500u);        // touched ~2000 pages
}

TEST(PerfEvent, ResetZeroesAndRecounts) {
  PerfEventSubstrate sub;
  if (!sub.available()) GTEST_SKIP() << "perf_event unavailable";
  const pmu::NativeEventCode events[] = {
      code_of(sub, "PERF_COUNT_SW_TASK_CLOCK")};
  std::uint32_t counters[] = {0};
  auto ctx = sub.create_context().value();
  ASSERT_TRUE(ctx->program(events, counters).ok());
  ASSERT_TRUE(ctx->start().ok());
  volatile double x = 1.0;
  for (int i = 0; i < 1'000'000; ++i) x = x * 1.0000001 + 0.25;
  std::uint64_t v1 = 0;
  ASSERT_TRUE(ctx->read({&v1, 1}).ok());
  EXPECT_GT(v1, 0u);
  ASSERT_TRUE(ctx->reset_counts().ok());
  std::uint64_t v2 = 0;
  ASSERT_TRUE(ctx->read({&v2, 1}).ok());
  EXPECT_LT(v2, v1);
  ASSERT_TRUE(ctx->stop().ok());
}

TEST(PerfEvent, HardwareCountingOrGracefulDenial) {
  PerfEventSubstrate sub;
  if (!sub.available()) GTEST_SKIP() << "perf_event unavailable";
  const pmu::NativeEventCode events[] = {
      code_of(sub, "PERF_COUNT_HW_INSTRUCTIONS")};
  std::uint32_t counters[] = {0};
  auto ctx = sub.create_context().value();
  const Status programmed = ctx->program(events, counters);
  if (!sub.hardware_available()) {
    // Containers/paranoid kernels: a *typed* denial, not a crash.
    EXPECT_TRUE(programmed.error() == Error::kPermission ||
                programmed.error() == Error::kNoCounters)
        << programmed.message();
    return;
  }
  ASSERT_TRUE(programmed.ok());
  ASSERT_TRUE(ctx->start().ok());
  volatile double x = 1.0;
  for (int i = 0; i < 1'000'000; ++i) x = x * 1.0000001 + 0.25;
  ASSERT_TRUE(ctx->stop().ok());
  std::uint64_t v = 0;
  ASSERT_TRUE(ctx->read({&v, 1}).ok());
  EXPECT_GT(v, 1'000'000u);
}

TEST(PerfEvent, WorksThroughTheLibraryLayer) {
  auto sub_ptr = std::make_unique<PerfEventSubstrate>();
  if (!sub_ptr->available()) GTEST_SKIP() << "perf_event unavailable";
  PerfEventSubstrate* sub = sub_ptr.get();
  Library library(std::move(sub_ptr));

  auto handle = library.create_event_set();
  EventSet* set = library.event_set(handle.value()).value();
  ASSERT_TRUE(set->add_named("PERF_COUNT_SW_TASK_CLOCK").ok());
  ASSERT_TRUE(set->add_named("PERF_COUNT_SW_CONTEXT_SWITCHES").ok());
  ASSERT_TRUE(set->start().ok());
  volatile double x = 1.0;
  for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001 + 0.25;
  std::vector<long long> values(2);
  ASSERT_TRUE(set->stop(values).ok());
  EXPECT_GT(values[0], 0);
  EXPECT_GE(values[1], 0);
  (void)sub;
}

// An EventSet restart keeps the fds its first start opened: program()
// (one perf_event_open per event) runs once, and every later
// stop()+start() only resets and enables them again.
TEST(PerfEvent, LibraryRestartsKeepTheirFds) {
  auto perf = std::make_unique<PerfEventSubstrate>();
  if (!perf->available()) GTEST_SKIP() << "perf_event unavailable";
  auto fault_ptr =
      std::make_unique<FaultInjectingSubstrate>(std::move(perf), FaultPlan{});
  FaultInjectingSubstrate* fault = fault_ptr.get();
  Library library(std::move(fault_ptr));

  auto handle = library.create_event_set();
  EventSet* set = library.event_set(handle.value()).value();
  ASSERT_TRUE(set->add_named("PERF_COUNT_SW_TASK_CLOCK").ok());
  ASSERT_TRUE(set->add_named("PERF_COUNT_SW_PAGE_FAULTS").ok());
  ASSERT_TRUE(set->add_named("PERF_COUNT_SW_CONTEXT_SWITCHES").ok());
  std::vector<long long> values(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(set->start().ok()) << i;
    volatile double x = 1.0;
    for (int j = 0; j < 20'000; ++j) x = x * 1.0000001 + 0.25;
    ASSERT_TRUE(set->stop(values).ok()) << i;
    EXPECT_GT(values[0], 0) << i;  // task-clock, ns
  }
  EXPECT_EQ(fault->call_count(FaultSite::kProgram), 1u);
}

/// Writes one byte to each of `pages` pages from `base`.  Not
/// instrumented: under AddressSanitizer each store would also fault in
/// the shadow page of every eight pages touched.
__attribute__((no_sanitize("address"))) void touch_pages(
    void* base, std::size_t pages, std::size_t page) {
  auto* bytes = static_cast<volatile char*>(base);
  for (std::size_t p = 0; p < pages; ++p) bytes[p * page] = 1;
}

// Accum windows against a real kernel: between two accums, N fresh
// anonymous pages each touched once are N page faults (host_counters
// reads 8193 for 8192 pages: the loop's own code and stack may fault
// too), and a window with no touches holds almost none.  Each accum
// reads and rebases every fd in one read(2) apiece.
TEST(PerfEvent, AccumCountsTouchedPages) {
  auto perf = std::make_unique<PerfEventSubstrate>();
  if (!perf->available()) GTEST_SKIP() << "perf_event unavailable";
  Library library(std::move(perf));
  EventSet* set =
      library.event_set(library.create_event_set().value()).value();
  ASSERT_TRUE(set->add_named("PERF_COUNT_SW_PAGE_FAULTS").ok());
  ASSERT_TRUE(set->add_named("PERF_COUNT_SW_TASK_CLOCK").ok());

  constexpr std::size_t kPages = 2048;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<long long> window(2, 0);
  ASSERT_TRUE(set->start().ok());
  ASSERT_TRUE(set->accum(window).ok());  // warms the accum path's pages

  window.assign(2, 0);
  ASSERT_TRUE(set->accum(window).ok());
  window.assign(2, 0);
  void* mem = mmap(nullptr, kPages * page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  // Huge pages would fault once per 2 MiB, not once per page.
  (void)madvise(mem, kPages * page, MADV_NOHUGEPAGE);
  touch_pages(mem, kPages, page);
  ASSERT_TRUE(set->accum(window).ok());
  EXPECT_GE(window[0], static_cast<long long>(kPages));
  EXPECT_LE(window[0], static_cast<long long>(kPages) + 2);
  EXPECT_GT(window[1], 0);  // task-clock, ns

  window.assign(2, 0);
  ASSERT_TRUE(set->accum(window).ok());
  EXPECT_LE(window[0], 2);
  ASSERT_TRUE(set->stop().ok());
  munmap(mem, kPages * page);
}

// The kernel never resets an fd's enabled and running times, and a
// restart keeps its fds: a read scales by the duty cycle since this
// run's start, not by the one over the fd's lifetime.
TEST(PerfEvent, ScaleUsesOnlyTheCurrentRunsTimes) {
  // Run 1 is multiplexed at 50 %: 100 ns enabled, 50 ns on a counter.
  const PerfTimes run2_start{100, 50};
  // Run 2 is on a counter throughout its 100 ns and counts 1000.
  const PerfTimes run2_end{200, 150};
  EXPECT_EQ(perf_scaled_count(1000, run2_start, run2_end), 1000u);
  // Scaling by the lifetime times would read 1000 * 200 / 150.
  EXPECT_EQ(perf_scaled_count(1000, PerfTimes{}, run2_end), 1333u);
  // Run 1 alone: half the time on a counter, so twice its count.
  EXPECT_EQ(perf_scaled_count(600, PerfTimes{}, run2_start), 1200u);
  // A run that never reached a counter has nothing to scale.
  EXPECT_EQ(perf_scaled_count(0, run2_end, PerfTimes{300, 150}), 0u);
}

TEST(PerfEvent, TimersAndMemoryInfo) {
  PerfEventSubstrate sub;
  const auto t0 = sub.real_usec();
  volatile double x = 1.0;
  for (int i = 0; i < 500'000; ++i) x = x * 1.0000001 + 0.25;
  EXPECT_GE(sub.real_usec(), t0);
  EXPECT_GT(sub.virt_usec(), 0u);
  auto info = sub.memory_info();
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info.value().process_peak_bytes, 0u);
}

// Memory info needs no perf permission: it is the host's /proc reading.
TEST(PerfEvent, MemoryInfoIsTheHosts) {
  const PerfEventSubstrate sub;
  const HostSubstrate host;
  const auto info = sub.memory_info();
  const auto host_info = host.memory_info();
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(host_info.ok());
  EXPECT_GT(info.value().total_bytes, 0u);
  EXPECT_EQ(info.value().total_bytes, host_info.value().total_bytes);
  EXPECT_GT(info.value().available_bytes, 0u);
  EXPECT_EQ(info.value().page_size_bytes, host_info.value().page_size_bytes);
}

}  // namespace
}  // namespace papirepro::papi
