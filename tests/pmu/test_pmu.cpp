#include "pmu/pmu.h"

#include <gtest/gtest.h>

#include "sim/kernels.h"

namespace papirepro::pmu {
namespace {

NativeEventCode code_of(const PlatformDescription& p, std::string_view n) {
  const NativeEvent* e = p.find_event(n);
  EXPECT_NE(e, nullptr) << n;
  return e->code;
}

TEST(Pmu, ProgramValidatesCounterMasks) {
  const auto& p = sim_x86();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);

  const NativeEventCode l2 = code_of(p, "L2_MISS");  // counter 0 only
  // Valid placement.
  std::uint32_t ok_counter[] = {0};
  EXPECT_TRUE(pmu.program({{l2}}, ok_counter).ok());
  // Invalid placement.
  std::uint32_t bad_counter[] = {2};
  EXPECT_EQ(pmu.program({{l2}}, bad_counter).error(), Error::kConflict);
}

TEST(Pmu, ProgramRejectsDuplicateCountersAndBadEvents) {
  const auto& p = sim_x86();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);

  const NativeEventCode cyc = code_of(p, "CPU_CLK_UNHALTED");
  const NativeEventCode ins = code_of(p, "INST_RETIRED");
  const NativeEventCode events[] = {cyc, ins};
  std::uint32_t dup[] = {1, 1};
  EXPECT_EQ(pmu.program(events, dup).error(), Error::kConflict);

  const NativeEventCode bogus[] = {0xdeadbeef};
  std::uint32_t c0[] = {0};
  EXPECT_EQ(pmu.program(bogus, c0).error(), Error::kNoEvent);

  std::uint32_t out_of_range[] = {9};
  const NativeEventCode one[] = {cyc};
  EXPECT_EQ(pmu.program(one, out_of_range).error(), Error::kInvalid);
}

TEST(Pmu, GroupPlatformValidatesAgainstGroups) {
  const auto& p = sim_power3();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);

  // Group 0 "basic": PM_CYC on counter 0, PM_INST_CMPL on counter 1.
  const NativeEventCode events[] = {code_of(p, "PM_CYC"),
                                    code_of(p, "PM_INST_CMPL")};
  std::uint32_t good[] = {0, 1};
  EXPECT_TRUE(pmu.program(events, good).ok());
  std::uint32_t bad[] = {1, 0};  // swapped: no group matches
  EXPECT_EQ(pmu.program(events, bad).error(), Error::kConflict);
}

TEST(Pmu, CountsMatchOracle) {
  const auto& p = sim_x86();
  sim::Workload w = sim::make_saxpy(500);
  sim::Machine m(w.program, p.machine);
  w.setup(m);
  PmuModel pmu(p, m);

  const NativeEventCode events[] = {code_of(p, "INST_RETIRED"),
                                    code_of(p, "FP_FMA_RETIRED")};
  std::uint32_t counters[] = {0, 2};
  ASSERT_TRUE(pmu.program(events, counters).ok());
  ASSERT_TRUE(pmu.start().ok());
  m.run();
  ASSERT_TRUE(pmu.stop().ok());

  EXPECT_EQ(pmu.read(0).value(), m.retired());
  EXPECT_EQ(pmu.read(2).value(), 500u);
  EXPECT_EQ(pmu.read(1).value(), 0u);  // unprogrammed counter stays 0
}

TEST(Pmu, NotCountingWhileStopped) {
  const auto& p = sim_x86();
  sim::Workload w = sim::make_empty_loop(100);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);
  const NativeEventCode events[] = {code_of(p, "INST_RETIRED")};
  std::uint32_t counters[] = {0};
  ASSERT_TRUE(pmu.program(events, counters).ok());
  m.run(50);  // not started yet
  EXPECT_EQ(pmu.read(0).value(), 0u);
  ASSERT_TRUE(pmu.start().ok());
  m.run(10);
  ASSERT_TRUE(pmu.stop().ok());
  EXPECT_EQ(pmu.read(0).value(), 10u);
  m.run();  // stopped again: no further counting
  EXPECT_EQ(pmu.read(0).value(), 10u);
}

TEST(Pmu, StartStopStateMachine) {
  const auto& p = sim_x86();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);
  EXPECT_EQ(pmu.stop().error(), Error::kNotRunning);
  ASSERT_TRUE(pmu.start().ok());
  EXPECT_EQ(pmu.start().error(), Error::kIsRunning);
  ASSERT_TRUE(pmu.stop().ok());
}

TEST(Pmu, DerivedWeightsMultiplyCounts) {
  // An event whose term has multiplier > 1 is honored (none of the
  // built-in platforms use one today, so build a synthetic platform).
  PlatformDescription p = sim_x86();
  p.events.push_back({0x999, "DOUBLE_FMA", "FMA counted twice",
                      {{sim::SimEvent::kFpFma, 2}}, 0xF});
  sim::Workload w = sim::make_saxpy(100);
  sim::Machine m(w.program, p.machine);
  w.setup(m);
  PmuModel pmu(p, m);
  const NativeEventCode events[] = {0x999};
  std::uint32_t counters[] = {0};
  ASSERT_TRUE(pmu.program(events, counters).ok());
  ASSERT_TRUE(pmu.start().ok());
  m.run();
  EXPECT_EQ(pmu.read(0).value(), 200u);
}

TEST(Pmu, OverflowFiresPerThreshold) {
  const auto& p = sim_power3();  // fixed skid 2: deterministic
  sim::Workload w = sim::make_empty_loop(1000);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);
  const NativeEventCode events[] = {code_of(p, "PM_INST_CMPL")};
  std::uint32_t counters[] = {1};  // PM_INST_CMPL sits in slot 1 of groups
  ASSERT_TRUE(pmu.program(events, counters).ok());
  int fires = 0;
  ASSERT_TRUE(
      pmu.set_overflow(1, 100, [&](const OverflowInfo&) { ++fires; }).ok());
  ASSERT_TRUE(pmu.start().ok());
  m.run();
  // ~2002 instructions retire; threshold 100 -> ~20 interrupts.
  EXPECT_GE(fires, 18);
  EXPECT_LE(fires, 21);
}

TEST(Pmu, OverflowSkidOffsetsDeliveredPc) {
  const auto& p = sim_power3();  // fixed skid of 2 instructions
  sim::Workload w = sim::make_empty_loop(500);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);
  const NativeEventCode events[] = {code_of(p, "PM_INST_CMPL")};
  std::uint32_t counters[] = {1};
  ASSERT_TRUE(pmu.program(events, counters).ok());
  std::vector<OverflowInfo> infos;
  ASSERT_TRUE(pmu.set_overflow(1, 50, [&](const OverflowInfo& i) {
                    infos.push_back(i);
                  }).ok());
  ASSERT_TRUE(pmu.start().ok());
  m.run();
  ASSERT_FALSE(infos.empty());
  for (const OverflowInfo& i : infos) {
    EXPECT_FALSE(i.has_precise);  // power3 has no EAR
    EXPECT_NE(i.pc_skidded, 0u);
  }
}

TEST(Pmu, EarCapturesPreciseAddressOnIa64) {
  const auto& p = sim_ia64();
  sim::Workload w = sim::make_pointer_chase(512, 5000, 77);
  sim::Machine m(w.program, p.machine);
  w.setup(m);
  PmuModel pmu(p, m);
  const NativeEventCode events[] = {code_of(p, "L1D_READ_MISSES")};
  std::uint32_t counters[] = {0};
  ASSERT_TRUE(pmu.program(events, counters).ok());

  // The only load in the chase loop is instruction index 3 (after the
  // three li's).
  const std::uint64_t load_pc = sim::instr_address(3);
  int precise_hits = 0, total = 0;
  ASSERT_TRUE(pmu.set_overflow(0, 50, [&](const OverflowInfo& i) {
                    ++total;
                    EXPECT_TRUE(i.has_precise);
                    if (i.pc_precise == load_pc) ++precise_hits;
                  }).ok());
  ASSERT_TRUE(pmu.start().ok());
  m.run();
  ASSERT_GT(total, 10);
  // EAR attribution: every sample lands on the causing load.
  EXPECT_EQ(precise_hits, total);
}

TEST(Pmu, LargeWeightCoalescesOverflow) {
  const auto& p = sim_power3();
  sim::Workload w = sim::make_empty_loop(10);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);
  const NativeEventCode events[] = {code_of(p, "PM_CYC")};
  std::uint32_t counters[] = {0};
  ASSERT_TRUE(pmu.program(events, counters).ok());
  int fires = 0;
  ASSERT_TRUE(
      pmu.set_overflow(0, 3, [&](const OverflowInfo&) { ++fires; }).ok());
  ASSERT_TRUE(pmu.start().ok());
  // One charge of 30 cycles crosses the threshold 10x but coalesces into
  // one interrupt.
  m.charge_cycles(30);
  m.run();
  EXPECT_GE(fires, 1);
  const auto cyc = pmu.read(0).value();
  EXPECT_GE(cyc, 30u);
}

TEST(Pmu, ResetCountsRearmsOverflow) {
  const auto& p = sim_power3();
  sim::Workload w = sim::make_empty_loop(200);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);
  const NativeEventCode events[] = {code_of(p, "PM_INST_CMPL")};
  std::uint32_t counters[] = {1};
  ASSERT_TRUE(pmu.program(events, counters).ok());
  int fires = 0;
  ASSERT_TRUE(
      pmu.set_overflow(1, 100, [&](const OverflowInfo&) { ++fires; }).ok());
  ASSERT_TRUE(pmu.start().ok());
  m.run(150);
  EXPECT_EQ(fires, 1);
  pmu.reset_counts();
  EXPECT_EQ(pmu.read(1).value(), 0u);
  m.run();  // ~252 more instructions
  EXPECT_GE(fires, 2);
}

TEST(Pmu, ClearOverflowStopsInterrupts) {
  const auto& p = sim_power3();
  sim::Workload w = sim::make_empty_loop(400);
  sim::Machine m(w.program, p.machine);
  PmuModel pmu(p, m);
  const NativeEventCode events[] = {code_of(p, "PM_INST_CMPL")};
  std::uint32_t counters[] = {1};
  ASSERT_TRUE(pmu.program(events, counters).ok());
  int fires = 0;
  ASSERT_TRUE(
      pmu.set_overflow(1, 50, [&](const OverflowInfo&) { ++fires; }).ok());
  ASSERT_TRUE(pmu.start().ok());
  m.run(120);
  const int before = fires;
  EXPECT_GT(before, 0);
  ASSERT_TRUE(pmu.clear_overflow(1).ok());
  m.run();
  EXPECT_EQ(fires, before);
}

TEST(Pmu, WantsItsDispatchedSignalsOnlyWhileRunning) {
  const auto& p = sim_x86();
  sim::Workload w = sim::make_saxpy(2000);
  sim::Machine m(w.program, p.machine);
  if (w.setup) w.setup(m);
  PmuModel pmu(p, m);
  EXPECT_EQ(pmu.wanted(), 0u);  // the machine calls a fresh model never

  const NativeEventCode events[] = {code_of(p, "INST_RETIRED"),
                                    code_of(p, "FP_OPS_RETIRED")};
  const std::uint32_t counters[] = {0, 2};
  ASSERT_TRUE(pmu.program(events, counters).ok());
  EXPECT_EQ(pmu.wanted(), 0u);  // programmed, still stopped

  sim::SimEventMask dispatched = 0;
  for (NativeEventCode code : events) {
    for (const SignalTerm& t : p.find_event(code)->terms) {
      dispatched |= sim::sim_event_bit(t.signal);
    }
  }
  ASSERT_TRUE(pmu.start().ok());
  EXPECT_EQ(pmu.wanted(), dispatched);
  m.run(1000);
  ASSERT_TRUE(pmu.stop().ok());
  EXPECT_EQ(pmu.wanted(), 0u);
  EXPECT_EQ(pmu.read(0).value(), 1000u);

  // Stopped: the machine skips the model and the counts stay put.
  const std::uint64_t flops = pmu.read(2).value();
  EXPECT_GT(flops, 0u);
  m.run(1000);
  EXPECT_EQ(pmu.read(0).value(), 1000u);
  EXPECT_EQ(pmu.read(2).value(), flops);

  // Restarted, it counts on from where it stopped; cleared, it wants
  // nothing even though it was running.
  ASSERT_TRUE(pmu.start().ok());
  m.run(500);
  EXPECT_EQ(pmu.read(0).value(), 1500u);
  pmu.clear();
  EXPECT_FALSE(pmu.running());
  EXPECT_EQ(pmu.wanted(), 0u);
}

}  // namespace
}  // namespace papirepro::pmu
