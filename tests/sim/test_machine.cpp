#include "sim/machine.h"

#include <gtest/gtest.h>

#include <array>

#include "sim/kernels.h"
#include "sim/program.h"
#include "test_util.h"

namespace papirepro::sim {
namespace {

using papirepro::test::SignalCounter;

/// Counts on_event() calls per signal, for the signals it wants.
class CallCounter final : public EventListener {
 public:
  CallCounter(Machine& machine, SimEventMask wanted)
      : EventListener(wanted), machine_(machine) {
    machine_.add_listener(this);
  }
  ~CallCounter() override { machine_.remove_listener(this); }

  void on_event(SimEvent event, std::uint64_t,
                const EventContext&) override {
    ++calls_[static_cast<std::size_t>(event)];
  }
  void want(SimEventMask wanted) { set_wanted(wanted); }
  const std::array<std::uint64_t, kNumSimEvents>& calls() const {
    return calls_;
  }

 private:
  Machine& machine_;
  std::array<std::uint64_t, kNumSimEvents> calls_{};
};

Program arithmetic_program() {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 6);
  b.li(2, 7);
  b.mul(3, 1, 2);      // r3 = 42
  b.addi(4, 3, -2);    // r4 = 40
  b.divi(5, 4, 8);     // r5 = 5
  b.sub(6, 5, 1);      // r6 = -1
  b.fli(1, 1.5);
  b.fli(2, 2.0);
  b.fmul(3, 1, 2);     // f3 = 3.0
  b.fmadd(3, 1, 2);    // f3 = 6.0
  b.fdiv(4, 3, 2);     // f4 = 3.0
  b.fsqrt(5, 4);       // f5 = sqrt(3)
  b.fcvt_ds(6, 1);     // f6 = 1.5 (exact in float)
  b.halt();
  b.end_function();
  return std::move(b).build();
}

TEST(Machine, ListenersReceiveExactlyTheSignalsTheyWant) {
  Workload w = make_multiphase(2, 300);  // FP, memory and branch phases
  Machine m(w.program, {});
  if (w.setup) w.setup(m);
  CallCounter all(m, kAllSimEvents);
  const SimEventMask first_mask =
      sim_event_bit(SimEvent::kInstructions) |
      sim_event_bit(SimEvent::kL1DMiss) |
      sim_event_bit(SimEvent::kBrMispred) |
      sim_event_bit(SimEvent::kStallCycles);
  CallCounter some(m, first_mask);
  CallCounter none(m, 0);

  m.run(4000);
  m.charge_cycles(100, 4);  // an instrumentation charge raises kCycles
  const auto at_switch = all.calls();
  some.want(sim_event_bit(SimEvent::kCycles));
  m.run();
  ASSERT_TRUE(m.halted());

  for (std::size_t e = 0; e < kNumSimEvents; ++e) {
    const SimEventMask bit = sim_event_bit(static_cast<SimEvent>(e));
    const std::uint64_t before = (first_mask & bit) ? at_switch[e] : 0;
    const std::uint64_t after =
        e == static_cast<std::size_t>(SimEvent::kCycles)
            ? all.calls()[e] - at_switch[e]
            : 0;
    EXPECT_EQ(some.calls()[e], before + after)
        << sim_event_name(static_cast<SimEvent>(e));
    EXPECT_EQ(none.calls()[e], 0u);
  }
  // Every signal of the first mask fired before the switch, and cycles
  // after it, so the counts above are not vacuous.
  for (SimEvent e : {SimEvent::kInstructions, SimEvent::kL1DMiss,
                     SimEvent::kBrMispred, SimEvent::kStallCycles}) {
    EXPECT_GT(at_switch[static_cast<std::size_t>(e)], 0u)
        << sim_event_name(e);
  }
  EXPECT_GT(all.calls()[static_cast<std::size_t>(SimEvent::kCycles)],
            at_switch[static_cast<std::size_t>(SimEvent::kCycles)]);
}

TEST(Machine, ArithmeticSemantics) {
  const Program p = arithmetic_program();
  Machine m(p, {});
  m.run();
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.int_reg(3), 42);
  EXPECT_EQ(m.int_reg(4), 40);
  EXPECT_EQ(m.int_reg(5), 5);
  EXPECT_EQ(m.int_reg(6), -1);
  EXPECT_DOUBLE_EQ(m.fp_reg(3), 6.0);
  EXPECT_DOUBLE_EQ(m.fp_reg(4), 3.0);
  EXPECT_NEAR(m.fp_reg(5), 1.7320508, 1e-6);
  EXPECT_DOUBLE_EQ(m.fp_reg(6), 1.5);
}

TEST(Machine, LoadStoreRoundTrip) {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 0x10000);
  b.li(2, 1234);
  b.store(2, 1, 0);
  b.load(3, 1, 0);
  b.fli(4, 9.5);
  b.fstore(4, 1, 8);
  b.fload(5, 1, 8);
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  m.run();
  EXPECT_EQ(m.int_reg(3), 1234);
  EXPECT_DOUBLE_EQ(m.fp_reg(5), 9.5);
  EXPECT_EQ(m.memory().read_i64(0x10000), 1234);
}

TEST(Machine, LoopAndBranchSemantics) {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 0);
  b.li(2, 10);
  b.li(3, 0);
  auto loop = b.new_label();
  b.bind(loop);
  b.add(3, 3, 1);
  b.addi(1, 1, 1);
  b.blt(1, 2, loop);
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  m.run();
  EXPECT_EQ(m.int_reg(1), 10);
  EXPECT_EQ(m.int_reg(3), 45);  // 0+1+...+9
}

TEST(Machine, CallReturnNesting) {
  ProgramBuilder b;
  b.begin_function("leaf");
  b.addi(10, 10, 1);
  b.ret();
  b.end_function();
  b.begin_function("mid");
  b.call("leaf");
  b.call("leaf");
  b.ret();
  b.end_function();
  b.begin_function("main");
  b.call("mid");
  b.call("leaf");
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  m.run();
  EXPECT_EQ(m.int_reg(10), 3);
}

TEST(Machine, ReturnFromOutermostFrameHalts) {
  ProgramBuilder b;
  b.begin_function("main");
  b.nop();
  b.ret();  // no caller: ends the run
  b.end_function();
  Machine m(std::move(b).build(), {});
  const RunResult r = m.run();
  EXPECT_TRUE(r.halted);
}

TEST(Machine, EventCountsForStraightLineCode) {
  const Program p = arithmetic_program();
  Machine m(p, {});
  SignalCounter counter(m);
  m.run();
  EXPECT_EQ(counter[SimEvent::kInstructions], p.size());
  EXPECT_EQ(counter[SimEvent::kFpMul], 1u);
  EXPECT_EQ(counter[SimEvent::kFpFma], 1u);
  EXPECT_EQ(counter[SimEvent::kFpDiv], 1u);
  EXPECT_EQ(counter[SimEvent::kFpSqrt], 1u);
  EXPECT_EQ(counter[SimEvent::kFpCvt], 1u);
  EXPECT_EQ(counter[SimEvent::kIntIns], 6u);  // li,li,mul,addi,divi,sub
  EXPECT_EQ(counter[SimEvent::kCycles], m.cycles());
}

TEST(Machine, MemoryEventsAndLatency) {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 0x20000);
  b.load(2, 1, 0);   // cold: L1D miss + L2 miss + DTLB miss
  b.load(3, 1, 0);   // hot: all hits
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  SignalCounter counter(m);
  m.run();
  EXPECT_EQ(counter[SimEvent::kLoadIns], 2u);
  EXPECT_EQ(counter[SimEvent::kL1DAccess], 2u);
  EXPECT_EQ(counter[SimEvent::kL1DMiss], 1u);
  // L2 is unified: one data miss plus one cold instruction-fetch miss.
  EXPECT_EQ(counter[SimEvent::kL2Miss], 2u);
  EXPECT_EQ(counter[SimEvent::kDTlbMiss], 1u);
}

TEST(Machine, BranchEvents) {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 0);
  b.li(2, 100);
  auto loop = b.new_label();
  b.bind(loop);
  b.addi(1, 1, 1);
  b.blt(1, 2, loop);
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  SignalCounter counter(m);
  m.run();
  EXPECT_EQ(counter[SimEvent::kBrIns], 100u);
  EXPECT_EQ(counter[SimEvent::kBrTaken], 99u);
  EXPECT_GT(counter[SimEvent::kBrMispred], 0u);   // warmup + exit
  EXPECT_LT(counter[SimEvent::kBrMispred], 16u);  // predictor learns
}

TEST(Machine, InstructionBudgetStopsRun) {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 0);
  auto loop = b.new_label();
  b.bind(loop);
  b.addi(1, 1, 1);
  b.jump(loop);  // infinite
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  const RunResult r = m.run(1000);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.instructions, 1000u);
}

TEST(Machine, ChargeCyclesCountsAsOverheadAndCycles) {
  ProgramBuilder b;
  b.begin_function("main");
  b.nop();
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  SignalCounter counter(m);
  m.charge_cycles(500);
  m.run();
  EXPECT_EQ(m.overhead_cycles(), 500u);
  EXPECT_EQ(counter[SimEvent::kCycles], m.cycles());
  EXPECT_GE(m.cycles(), 502u);
}

TEST(Machine, CycleTimerFiresAtPeriod) {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 0);
  b.li(2, 5000);
  auto loop = b.new_label();
  b.bind(loop);
  b.addi(1, 1, 1);
  b.blt(1, 2, loop);
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  int fires = 0;
  m.add_cycle_timer(100, [&fires](Machine&) { ++fires; });
  m.run();
  // ~2 cycles/iteration * 5000 iterations => on the order of 100 fires.
  EXPECT_GT(fires, 50);
  EXPECT_LT(fires, 400);
}

TEST(Machine, CancelTimerStopsFiring) {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 0);
  b.li(2, 2000);
  auto loop = b.new_label();
  b.bind(loop);
  b.addi(1, 1, 1);
  b.blt(1, 2, loop);
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  int fires = 0;
  const int id = m.add_cycle_timer(50, [&fires](Machine&) { ++fires; });
  m.run(200);
  const int fires_before = fires;
  EXPECT_GT(fires_before, 0);
  m.cancel_timer(id);
  m.run();
  EXPECT_EQ(fires, fires_before);
}

TEST(Machine, InterruptDeliveredAfterDelay) {
  ProgramBuilder b;
  b.begin_function("main");
  for (int i = 0; i < 32; ++i) b.nop();
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  std::uint64_t delivered_retired = 0;
  std::uint64_t delivered_pc = 0;
  m.run(4);  // retire 4 instructions
  m.schedule_interrupt(3, instr_address(3),
                       [&](const InterruptContext& ctx) {
                         delivered_retired = ctx.retired;
                         delivered_pc = ctx.pc_delivered;
                       });
  m.run();
  EXPECT_EQ(delivered_retired, 7u);
  // Delivered at the instruction that retired 3 later (index 6).
  EXPECT_EQ(delivered_pc, instr_address(6));
}

TEST(Machine, ZeroDelayInterruptDeliveredImmediately) {
  ProgramBuilder b;
  b.begin_function("main");
  for (int i = 0; i < 8; ++i) b.nop();
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  bool fired = false;
  m.schedule_interrupt(0, 0, [&](const InterruptContext&) { fired = true; });
  m.step();
  EXPECT_TRUE(fired);
}

TEST(Machine, ProbeHandlerInvokedWithId) {
  ProgramBuilder b;
  b.begin_function("main");
  b.probe(7);
  b.probe(9);
  b.halt();
  b.end_function();
  Machine m(std::move(b).build(), {});
  std::vector<std::int64_t> seen;
  m.set_probe_handler(
      [&seen](std::int64_t id, Machine&) { seen.push_back(id); });
  m.run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{7, 9}));
}

TEST(Machine, StallCyclesAreCostMinusOne) {
  ProgramBuilder b;
  b.begin_function("main");
  b.fli(1, 2.0);
  b.fli(2, 3.0);
  b.fdiv(3, 1, 2);  // long-latency op
  b.halt();
  b.end_function();
  MachineConfig config;
  Machine m(std::move(b).build(), config);
  SignalCounter counter(m);
  m.run();
  EXPECT_GE(counter[SimEvent::kStallCycles], config.fp_div_latency);
  EXPECT_EQ(counter[SimEvent::kCycles],
            counter[SimEvent::kInstructions] +
                counter[SimEvent::kStallCycles]);
}

TEST(Machine, MicrosecondsFollowFrequency) {
  ProgramBuilder b;
  b.begin_function("main");
  b.li(1, 0);
  b.li(2, 100000);
  auto loop = b.new_label();
  b.bind(loop);
  b.addi(1, 1, 1);
  b.blt(1, 2, loop);
  b.halt();
  b.end_function();
  MachineConfig config;
  config.frequency_ghz = 2.0;
  Machine m(std::move(b).build(), config);
  m.run();
  EXPECT_EQ(m.microseconds(),
            static_cast<std::uint64_t>(
                static_cast<double>(m.cycles()) / 2000.0));
}

}  // namespace
}  // namespace papirepro::sim
