#include "sim/machine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

namespace papirepro::sim {

Machine::Machine(Program program, const MachineConfig& config)
    : program_(std::move(program)),
      config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      dtlb_(config.dtlb),
      itlb_(config.itlb),
      bp_(config.branch),
      rng_(config.seed),
      iregs_(kNumIntRegs, 0),
      fregs_(kNumFpRegs, 0.0),
      pc_(program.entry()) {}

void Machine::add_listener(EventListener* listener) {
  assert(listener != nullptr);
  const std::lock_guard<std::mutex> lock(listeners_mutex_);
  listeners_.push_back(listener);
}

void Machine::remove_listener(EventListener* listener) {
  const std::lock_guard<std::mutex> lock(listeners_mutex_);
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

void Machine::emit(SimEvent e, std::uint64_t weight,
                   const EventContext& ctx) {
  const SimEventMask bit = sim_event_bit(e);
  for (EventListener* l : listeners_) {
    if ((l->wanted() & bit) != 0) l->on_event(e, weight, ctx);
  }
}

int Machine::add_cycle_timer(std::uint64_t period_cycles,
                             TimerCallback callback) {
  assert(period_cycles > 0);
  const int id = next_timer_id_++;
  timers_.push_back({id, period_cycles, cycles_ + period_cycles,
                     std::move(callback), false});
  next_timer_deadline_ = std::min(next_timer_deadline_,
                                  timers_.back().next_deadline);
  return id;
}

void Machine::cancel_timer(int id) {
  for (auto& t : timers_) {
    if (t.id == id) t.cancelled = true;
  }
}

void Machine::schedule_interrupt(std::uint32_t delay_instructions,
                                 std::uint64_t pc_requested,
                                 InterruptHandler handler) {
  pending_interrupts_.push_back(
      {retired_ + delay_instructions, pc_requested, std::move(handler)});
}

void Machine::charge_cycles(std::uint64_t n, std::uint32_t pollute_lines) {
  cycles_ += n;
  overhead_cycles_ += n;
  if (pollute_lines > 0) l1d_.pollute(pollute_lines);
  // Overhead cycles are real cycles: any active cycle counter sees them,
  // which is exactly how instrumentation overhead shows up on hardware.
  emit(SimEvent::kCycles, n,
       {.pc = pc_address(), .seq = retired_, .kernel = true});
}

void Machine::fire_timers() {
  if (cycles_ < next_timer_deadline_) return;
  std::uint64_t new_min = std::numeric_limits<std::uint64_t>::max();
  for (auto& t : timers_) {
    if (t.cancelled) continue;
    if (t.next_deadline <= cycles_) {
      // Reschedule from *now* before running the callback: callbacks may
      // charge more cycles than the period (e.g. a multiplex rotation
      // with a tiny slice), and firing at most once per check keeps that
      // a slow-but-progressing interrupt storm instead of a livelock.
      t.next_deadline = cycles_ + t.period;
      t.callback(*this);
    }
    if (!t.cancelled) new_min = std::min(new_min, t.next_deadline);
  }
  timers_.erase(std::remove_if(timers_.begin(), timers_.end(),
                               [](const Timer& t) { return t.cancelled; }),
                timers_.end());
  next_timer_deadline_ = new_min;
}

void Machine::deliver_interrupts(std::uint64_t pc_delivered) {
  if (pending_interrupts_.empty() || in_handler_) return;
  in_handler_ = true;
  for (std::size_t i = 0; i < pending_interrupts_.size();) {
    if (pending_interrupts_[i].deliver_at_retired <= retired_) {
      PendingInterrupt p = std::move(pending_interrupts_[i]);
      pending_interrupts_.erase(pending_interrupts_.begin() +
                                static_cast<std::ptrdiff_t>(i));
      p.handler(InterruptContext{.pc_requested = p.pc_requested,
                                 .pc_delivered = pc_delivered,
                                 .retired = retired_,
                                 .cycles = cycles_});
    } else {
      ++i;
    }
  }
  in_handler_ = false;
}

std::uint32_t Machine::data_access(std::uint64_t addr,
                                   const EventContext& ctx) {
  std::uint32_t extra = 0;
  if (!dtlb_.access(addr)) {
    extra += dtlb_.config().miss_latency;
    emit(SimEvent::kDTlbMiss, 1, ctx);
  }
  emit(SimEvent::kL1DAccess, 1, ctx);
  if (!l1d_.access(addr)) {
    emit(SimEvent::kL1DMiss, 1, ctx);
    emit(SimEvent::kL2Access, 1, ctx);
    if (!l2_.access(addr)) {
      emit(SimEvent::kL2Miss, 1, ctx);
      extra += l2_.config().miss_latency;
    } else {
      extra += l1d_.config().miss_latency;
    }
  } else {
    extra += l1d_.config().hit_latency;
  }
  return extra;
}

std::uint32_t Machine::fetch(const EventContext& ctx) {
  const std::uint64_t pc_addr = ctx.pc;
  std::uint32_t extra = 0;
  if (!itlb_.access(pc_addr)) {
    extra += itlb_.config().miss_latency;
    emit(SimEvent::kITlbMiss, 1, ctx);
  }
  emit(SimEvent::kL1IAccess, 1, ctx);
  if (!l1i_.access(pc_addr)) {
    emit(SimEvent::kL1IMiss, 1, ctx);
    emit(SimEvent::kL2Access, 1, ctx);
    if (!l2_.access(pc_addr)) {
      emit(SimEvent::kL2Miss, 1, ctx);
      extra += l2_.config().miss_latency;
    } else {
      extra += l1i_.config().miss_latency;
    }
  }
  return extra;
}

void Machine::step() {
  assert(!halted_);
  assert(pc_ >= 0 && static_cast<std::size_t>(pc_) < program_.size() &&
         "PC out of program bounds");

  const Instruction& ins = program_.code()[pc_];
  const std::uint64_t pc_addr = instr_address(pc_);
  EventContext ctx{.pc = pc_addr, .seq = retired_};

  std::uint32_t cost = 1 + fetch(ctx);
  std::int32_t next_pc = pc_ + 1;

  switch (ins.op) {
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      halted_ = true;
      break;
    case Opcode::kProbe:
      // Event accounting happens before the host handler runs so the
      // probe's own retirement is visible to the counters it reads.
      break;
    case Opcode::kLi:
      iregs_[ins.rd] = ins.imm;
      break;
    case Opcode::kMov:
      iregs_[ins.rd] = iregs_[ins.rs1];
      break;
    // Add, sub and mul wrap around like the hardware's: they compute
    // unsigned, because signed overflow is UB (random_access's LCG
    // overflows on every step).
    case Opcode::kAdd:
      iregs_[ins.rd] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(iregs_[ins.rs1]) +
          static_cast<std::uint64_t>(iregs_[ins.rs2]));
      break;
    case Opcode::kAddi:
      iregs_[ins.rd] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(iregs_[ins.rs1]) +
          static_cast<std::uint64_t>(ins.imm));
      break;
    case Opcode::kSub:
      iregs_[ins.rd] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(iregs_[ins.rs1]) -
          static_cast<std::uint64_t>(iregs_[ins.rs2]));
      break;
    case Opcode::kMul:
      iregs_[ins.rd] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(iregs_[ins.rs1]) *
          static_cast<std::uint64_t>(iregs_[ins.rs2]));
      cost += config_.int_mul_latency;
      break;
    case Opcode::kDivi:
      assert(ins.imm != 0);
      iregs_[ins.rd] = iregs_[ins.rs1] / ins.imm;
      cost += config_.int_div_latency;
      break;
    case Opcode::kAnd:
      iregs_[ins.rd] = iregs_[ins.rs1] & iregs_[ins.rs2];
      break;
    case Opcode::kOr:
      iregs_[ins.rd] = iregs_[ins.rs1] | iregs_[ins.rs2];
      break;
    case Opcode::kXor:
      iregs_[ins.rd] = iregs_[ins.rs1] ^ iregs_[ins.rs2];
      break;
    case Opcode::kShli:
      iregs_[ins.rd] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(iregs_[ins.rs1]) << ins.imm);
      break;
    case Opcode::kShri:
      iregs_[ins.rd] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(iregs_[ins.rs1]) >> ins.imm);
      break;
    case Opcode::kSlt:
      iregs_[ins.rd] = iregs_[ins.rs1] < iregs_[ins.rs2] ? 1 : 0;
      break;

    case Opcode::kFLi:
      fregs_[ins.rd] = std::bit_cast<double>(ins.imm);
      break;
    case Opcode::kFMov:
      fregs_[ins.rd] = fregs_[ins.rs1];
      break;
    case Opcode::kFNeg:
      fregs_[ins.rd] = -fregs_[ins.rs1];
      break;
    case Opcode::kFAdd:
      fregs_[ins.rd] = fregs_[ins.rs1] + fregs_[ins.rs2];
      cost += config_.fp_add_latency;
      break;
    case Opcode::kFSub:
      fregs_[ins.rd] = fregs_[ins.rs1] - fregs_[ins.rs2];
      cost += config_.fp_add_latency;
      break;
    case Opcode::kFMul:
      fregs_[ins.rd] = fregs_[ins.rs1] * fregs_[ins.rs2];
      cost += config_.fp_mul_latency;
      break;
    case Opcode::kFMadd:
      fregs_[ins.rd] += fregs_[ins.rs1] * fregs_[ins.rs2];
      cost += config_.fp_fma_latency;
      break;
    case Opcode::kFDiv:
      fregs_[ins.rd] = fregs_[ins.rs1] / fregs_[ins.rs2];
      cost += config_.fp_div_latency;
      break;
    case Opcode::kFSqrt:
      fregs_[ins.rd] = std::sqrt(fregs_[ins.rs1]);
      cost += config_.fp_sqrt_latency;
      break;
    case Opcode::kFCvtDS:
      fregs_[ins.rd] = static_cast<double>(static_cast<float>(fregs_[ins.rs1]));
      cost += config_.fp_cvt_latency;
      break;
    case Opcode::kFCvtSD:
      fregs_[ins.rd] = static_cast<double>(static_cast<float>(fregs_[ins.rs1]));
      cost += config_.fp_cvt_latency;
      break;

    case Opcode::kLoad: {
      const auto addr =
          static_cast<std::uint64_t>(iregs_[ins.rs1] + ins.imm);
      ctx.addr = addr;
      ctx.has_addr = true;
      cost += data_access(addr, ctx);
      iregs_[ins.rd] = memory_.read_i64(addr);
      break;
    }
    case Opcode::kStore: {
      const auto addr =
          static_cast<std::uint64_t>(iregs_[ins.rs1] + ins.imm);
      ctx.addr = addr;
      ctx.has_addr = true;
      cost += data_access(addr, ctx);
      memory_.write_i64(addr, iregs_[ins.rs2]);
      break;
    }
    case Opcode::kFLoad: {
      const auto addr =
          static_cast<std::uint64_t>(iregs_[ins.rs1] + ins.imm);
      ctx.addr = addr;
      ctx.has_addr = true;
      cost += data_access(addr, ctx);
      fregs_[ins.rd] = memory_.read_f64(addr);
      break;
    }
    case Opcode::kFStore: {
      const auto addr =
          static_cast<std::uint64_t>(iregs_[ins.rs1] + ins.imm);
      ctx.addr = addr;
      ctx.has_addr = true;
      cost += data_access(addr, ctx);
      memory_.write_f64(addr, fregs_[ins.rs2]);
      break;
    }

    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge: {
      bool taken = false;
      switch (ins.op) {
        case Opcode::kBeq: taken = iregs_[ins.rs1] == iregs_[ins.rs2]; break;
        case Opcode::kBne: taken = iregs_[ins.rs1] != iregs_[ins.rs2]; break;
        case Opcode::kBlt: taken = iregs_[ins.rs1] < iregs_[ins.rs2]; break;
        case Opcode::kBge: taken = iregs_[ins.rs1] >= iregs_[ins.rs2]; break;
        default: break;
      }
      emit(SimEvent::kBrIns, 1, ctx);
      if (taken) {
        emit(SimEvent::kBrTaken, 1, ctx);
        next_pc = ins.target;
      }
      if (!bp_.predict_and_train(pc_addr, taken)) {
        emit(SimEvent::kBrMispred, 1, ctx);
        cost += bp_.config().mispredict_penalty;
      }
      break;
    }
    case Opcode::kJump:
      next_pc = ins.target;
      break;
    case Opcode::kCall:
      call_stack_.push_back(pc_ + 1);
      next_pc = ins.target;
      break;
    case Opcode::kRet:
      if (call_stack_.empty()) {
        halted_ = true;  // returning from the outermost frame ends the run
      } else {
        next_pc = call_stack_.back();
        call_stack_.pop_back();
      }
      break;
  }

  // --- event accounting for the retired instruction ---
  cycles_ += cost;
  ++retired_;
  emit(SimEvent::kInstructions, 1, ctx);
  emit(SimEvent::kCycles, cost, ctx);
  if (cost > 1) emit(SimEvent::kStallCycles, cost - 1, ctx);

  switch (op_class(ins.op)) {
    case OpClass::kIntAlu:
    case OpClass::kIntMul:
    case OpClass::kIntDiv:
      emit(SimEvent::kIntIns, 1, ctx);
      break;
    case OpClass::kFpAdd: emit(SimEvent::kFpAdd, 1, ctx); break;
    case OpClass::kFpMul: emit(SimEvent::kFpMul, 1, ctx); break;
    case OpClass::kFpFma: emit(SimEvent::kFpFma, 1, ctx); break;
    case OpClass::kFpDiv: emit(SimEvent::kFpDiv, 1, ctx); break;
    case OpClass::kFpSqrt: emit(SimEvent::kFpSqrt, 1, ctx); break;
    case OpClass::kFpCvt: emit(SimEvent::kFpCvt, 1, ctx); break;
    case OpClass::kFpMove: emit(SimEvent::kFpMove, 1, ctx); break;
    case OpClass::kLoad: emit(SimEvent::kLoadIns, 1, ctx); break;
    case OpClass::kStore: emit(SimEvent::kStoreIns, 1, ctx); break;
    default: break;
  }

  pc_ = next_pc;

  // Probe handlers and interrupt/timer callbacks run after retirement,
  // like traps on real hardware.
  if (ins.op == Opcode::kProbe && probe_handler_) {
    probe_handler_(ins.imm, *this);
  }
  deliver_interrupts(pc_addr);
  fire_timers();
}

RunResult Machine::run(std::uint64_t max_instructions) {
  const std::uint64_t start_retired = retired_;
  const std::uint64_t start_cycles = cycles_;
  while (!halted_ && retired_ - start_retired < max_instructions) {
    step();
  }
  return RunResult{.halted = halted_,
                   .instructions = retired_ - start_retired,
                   .cycles = cycles_ - start_cycles};
}

}  // namespace papirepro::sim
