// Architectural event signals raised by the simulated machine, and the
// listener interface PMU models subscribe to.  These signals play the
// role of the raw hardware event lines; each PMU platform defines its own
// *native events* as (signal, multiplier) combinations with
// platform-specific quirks (e.g. sim-power3's FP-instruction event
// includes the convert/rounding signals — the POWER3 discrepancy from
// Section 4 of the paper).
#pragma once

#include <cstdint>
#include <string_view>

namespace papirepro::sim {

enum class SimEvent : std::uint8_t {
  kCycles = 0,       ///< weight = cycles elapsed
  kInstructions,     ///< every retired instruction
  kIntIns,           ///< integer ALU/mul/div instructions
  kFpAdd,            ///< FP add/sub
  kFpMul,            ///< FP multiply
  kFpFma,            ///< fused multiply-add (1 instruction, 2 FLOPs)
  kFpDiv,            ///< FP divide
  kFpSqrt,           ///< FP square root
  kFpCvt,            ///< FP precision convert ("rounding instruction")
  kFpMove,           ///< FP register moves / immediates / negate
  kLoadIns,          ///< load instructions
  kStoreIns,         ///< store instructions
  kL1DAccess,
  kL1DMiss,
  kL1IAccess,
  kL1IMiss,
  kL2Access,
  kL2Miss,
  kDTlbMiss,
  kITlbMiss,
  kBrIns,            ///< conditional branches
  kBrTaken,
  kBrMispred,
  kStallCycles,      ///< cycles beyond 1-per-instruction (latency, misses)
  kCount,            // sentinel
};

inline constexpr std::size_t kNumSimEvents =
    static_cast<std::size_t>(SimEvent::kCount);

std::string_view sim_event_name(SimEvent e) noexcept;

/// Context delivered with every event: the PC of the causing instruction
/// (always precise at this layer — imprecision is introduced by the
/// *interrupt delivery* skid, not by the signals) and, for memory events,
/// the effective data address.  Event Address Registers on the sim-ia64
/// platform latch exactly these fields.
struct EventContext {
  std::uint64_t pc = 0;
  std::uint64_t addr = 0;
  /// Retirement index of the instruction this event belongs to; lets
  /// sampling engines group the signals of one instruction together.
  std::uint64_t seq = 0;
  bool has_addr = false;
  /// True for cycles spent in measurement-infrastructure context
  /// (counter-read system calls, overflow handlers) rather than user
  /// code — the distinction behind PAPI's counting domains.
  bool kernel = false;
};

/// A set of SimEvents, one bit per signal.
using SimEventMask = std::uint32_t;
static_assert(kNumSimEvents <= 32, "SimEventMask has one bit per signal");

constexpr SimEventMask sim_event_bit(SimEvent e) noexcept {
  return SimEventMask{1} << static_cast<unsigned>(e);
}
inline constexpr SimEventMask kAllSimEvents =
    (SimEventMask{1} << kNumSimEvents) - 1;

/// A subscriber to the machine's signals.  It carries the set of
/// signals it wants, and Machine::emit calls on_event() only for those;
/// a listener narrows the set only to signals whose on_event() would
/// return without effect.
class EventListener {
 public:
  virtual ~EventListener() = default;
  virtual void on_event(SimEvent event, std::uint64_t weight,
                        const EventContext& ctx) = 0;

  SimEventMask wanted() const noexcept { return wanted_; }

 protected:
  explicit EventListener(SimEventMask wanted = kAllSimEvents) noexcept
      : wanted_(wanted) {}
  void set_wanted(SimEventMask wanted) noexcept { wanted_ = wanted; }

 private:
  SimEventMask wanted_;
};

}  // namespace papirepro::sim
