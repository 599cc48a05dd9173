// Multi-rank execution and message passing.  The paper's tool ecosystem
// exists for "parallel and threaded and/or message-passing programs"
// (TAU, Vampir correlating event rates with communication); this module
// provides the substrate for that scenario: N simulated machines
// ("ranks", distributed memory like MPI processes) interleaved in
// lockstep, exchanging messages through a mailbox layer driven by probe
// instructions.
//
// Communication ABI (probe-id based, so no ISA changes):
//   send to rank d:    probe(kSendBase + d)  with r24 = buffer address,
//                                                 r25 = word count
//   recv from rank s:  probe(kRecvBase + s)  with r24 = buffer address,
//                                                 r25 = max words
// Sends are non-blocking (message queued); receives busy-wait: if no
// message is pending, the probe handler rewinds the PC so the rank
// re-executes the recv probe — the wait burns real simulated cycles,
// which is exactly what a counter-based tool observes during
// communication phases.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "sim/kernels.h"
#include "sim/machine.h"

namespace papirepro::sim {

class CommWorld {
 public:
  static constexpr std::int64_t kSendBase = 2000;
  static constexpr std::int64_t kRecvBase = 3000;
  /// Register convention for the communication ABI.
  static constexpr int kAddrReg = 24;
  static constexpr int kCountReg = 25;

  /// Point-in-time snapshot of one rank's communication counters.
  struct RankStats {
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    std::uint64_t words_sent = 0;
    std::uint64_t words_recv = 0;
    /// Instructions spent re-executing a recv probe while waiting.
    std::uint64_t wait_retries = 0;
  };

  /// Installs the communication probe handlers on every rank (chaining
  /// any handler already present for non-comm probe ids).
  explicit CommWorld(std::vector<Machine*> ranks);

  /// Restores each rank's previous probe handler: the installed ones
  /// capture `this` and must not outlive the world.
  ~CommWorld();

  std::size_t num_ranks() const noexcept { return ranks_.size(); }
  /// Snapshot of `rank`'s counters, safe to call from any thread while
  /// the ranks run (a live-polling collector's view).  Each counter is
  /// internally a relaxed atomic written only by the owning rank's
  /// thread, so the snapshot is race-free; counters in one snapshot may
  /// straddle a probe (e.g. sends bumped, words_sent not yet), which a
  /// monitor tolerates by construction.
  RankStats stats(std::size_t rank) const {
    const AtomicRankStats& s = *stats_at(rank);
    RankStats out;
    out.sends = s.sends.load(std::memory_order_relaxed);
    out.recvs = s.recvs.load(std::memory_order_relaxed);
    out.words_sent = s.words_sent.load(std::memory_order_relaxed);
    out.words_recv = s.words_recv.load(std::memory_order_relaxed);
    out.wait_retries = s.wait_retries.load(std::memory_order_relaxed);
    return out;
  }
  Machine& rank_machine(std::size_t rank) const { return *ranks_.at(rank); }

  /// Runs all ranks round-robin in quanta of `quantum` instructions
  /// until every rank halts or `max_rounds` scheduler rounds elapse.
  /// Returns true if all ranks halted (false = budget exhausted, e.g. a
  /// deadlocked recv).
  bool run_lockstep(std::uint64_t quantum = 1'000,
                    std::uint64_t max_rounds = 1'000'000);

  /// Runs every rank on its own std::thread until it halts or retires
  /// `max_instructions_per_rank` (the deadlock budget — a starved recv
  /// busy-waits, retiring instructions, so it is bounded too).  The
  /// mailboxes are mutex-guarded; each Machine is still touched only by
  /// its own thread.  `thread_begin(rank)` / `thread_end(rank)` run on
  /// the rank's thread around execution — the place to bind the thread's
  /// machine to a substrate and start/stop its EventSet.  Returns true
  /// if every rank halted.
  bool run_threaded(
      std::uint64_t max_instructions_per_rank = 100'000'000,
      const std::function<void(std::size_t)>& thread_begin = {},
      const std::function<void(std::size_t)>& thread_end = {});

 private:
  /// Live counter storage.  Single-writer: each entry is bumped only by
  /// its own rank's thread (probe handlers run on the executing rank),
  /// so the writers use relaxed load+store — no RMW contention — while
  /// cross-thread pollers read via `stats()` snapshots.  Held in a
  /// unique_ptr array because atomics are not movable (vector resize
  /// would not compile) and the rank count is fixed at construction.
  struct AtomicRankStats {
    std::atomic<std::uint64_t> sends{0};
    std::atomic<std::uint64_t> recvs{0};
    std::atomic<std::uint64_t> words_sent{0};
    std::atomic<std::uint64_t> words_recv{0};
    std::atomic<std::uint64_t> wait_retries{0};
  };

  void on_probe(std::size_t rank, std::int64_t id, Machine& machine);

  const AtomicRankStats* stats_at(std::size_t rank) const {
    if (rank >= ranks_.size()) throw std::out_of_range("CommWorld::stats");
    return &stats_[rank];
  }

  std::vector<Machine*> ranks_;
  std::unique_ptr<AtomicRankStats[]> stats_;
  std::vector<Machine::ProbeHandler> chained_;
  /// Guards the mailboxes (the only cross-rank state).
  std::mutex comm_mutex_;
  /// mailboxes_[dest][src] = queue of pending messages.
  std::map<std::pair<std::size_t, std::size_t>,
           std::deque<std::vector<std::int64_t>>>
      mailboxes_;
};

/// Builds the program one rank of a ring-exchange benchmark runs:
/// `iters` rounds of (compute `work` FMAs on a local array; send a
/// `chunk_words` message to the right neighbour; receive from the left).
/// The classic compute/communicate alternation Vampir-style views show.
/// A one-rank ring is its own neighbour: the rank sends to itself and
/// receives its own message.
Workload make_ring_rank(std::size_t rank, std::size_t nranks,
                        std::int64_t iters, std::int64_t work,
                        std::int64_t chunk_words);

}  // namespace papirepro::sim
