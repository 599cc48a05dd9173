#include "sim/comm.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "sim/kernels.h"
#include "sim/program.h"

namespace papirepro::sim {

CommWorld::CommWorld(std::vector<Machine*> ranks)
    : ranks_(std::move(ranks)) {
  assert(!ranks_.empty());
  stats_ = std::make_unique<AtomicRankStats[]>(ranks_.size());
  chained_.resize(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    chained_[r] = ranks_[r]->probe_handler();
    ranks_[r]->set_probe_handler(
        [this, r](std::int64_t id, Machine& machine) {
          on_probe(r, id, machine);
        });
  }
}

CommWorld::~CommWorld() {
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r]->set_probe_handler(chained_[r]);
  }
}

void CommWorld::on_probe(std::size_t rank, std::int64_t id,
                         Machine& machine) {
  const auto n = static_cast<std::int64_t>(ranks_.size());
  if (id >= kSendBase && id < kSendBase + n) {
    const auto dest = static_cast<std::size_t>(id - kSendBase);
    const auto addr =
        static_cast<std::uint64_t>(machine.int_reg(kAddrReg));
    const auto count =
        static_cast<std::uint64_t>(machine.int_reg(kCountReg));
    std::vector<std::int64_t> payload;
    payload.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      payload.push_back(machine.memory().read_i64(addr + 8 * i));
    }
    // Single-writer relaxed bumps (this rank's thread is the only
    // writer of its entry); load+store avoids an RMW on the hot path.
    AtomicRankStats& s = stats_[rank];
    s.words_sent.store(
        s.words_sent.load(std::memory_order_relaxed) + payload.size(),
        std::memory_order_relaxed);
    s.sends.store(s.sends.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(comm_mutex_);
      mailboxes_[{dest, rank}].push_back(std::move(payload));
    }
    return;
  }
  if (id >= kRecvBase && id < kRecvBase + n) {
    const auto src = static_cast<std::size_t>(id - kRecvBase);
    std::vector<std::int64_t> payload;
    bool got = false;
    {
      const std::lock_guard<std::mutex> lock(comm_mutex_);
      auto& queue = mailboxes_[{rank, src}];
      if (!queue.empty()) {
        payload = std::move(queue.front());
        queue.pop_front();
        got = true;
      }
    }
    if (!got) {
      // Nothing to receive yet: rewind onto the recv probe so the rank
      // busy-waits, burning visible cycles.
      const std::int64_t next_index =
          address_to_index(machine.pc_address());
      machine.set_pc_index(static_cast<std::int32_t>(next_index - 1));
      AtomicRankStats& s = stats_[rank];
      s.wait_retries.store(
          s.wait_retries.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return;
    }
    const auto addr =
        static_cast<std::uint64_t>(machine.int_reg(kAddrReg));
    const auto cap =
        static_cast<std::uint64_t>(machine.int_reg(kCountReg));
    for (std::uint64_t i = 0; i < payload.size() && i < cap; ++i) {
      machine.memory().write_i64(addr + 8 * i, payload[i]);
    }
    AtomicRankStats& s = stats_[rank];
    s.words_recv.store(
        s.words_recv.load(std::memory_order_relaxed) +
            std::min<std::uint64_t>(payload.size(), cap),
        std::memory_order_relaxed);
    s.recvs.store(s.recvs.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    return;
  }
  if (chained_[rank]) chained_[rank](id, machine);
}

bool CommWorld::run_threaded(
    std::uint64_t max_instructions_per_rank,
    const std::function<void(std::size_t)>& thread_begin,
    const std::function<void(std::size_t)>& thread_end) {
  std::vector<std::thread> threads;
  std::vector<unsigned char> halted(ranks_.size(), 0);
  threads.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    threads.emplace_back([&, r] {
      if (thread_begin) thread_begin(r);
      ranks_[r]->run(max_instructions_per_rank);
      halted[r] = ranks_[r]->halted() ? 1 : 0;
      if (thread_end) thread_end(r);
    });
  }
  for (std::thread& t : threads) t.join();
  bool all = true;
  for (const unsigned char h : halted) all &= h != 0;
  return all;
}

bool CommWorld::run_lockstep(std::uint64_t quantum,
                             std::uint64_t max_rounds) {
  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    bool all_halted = true;
    for (Machine* rank : ranks_) {
      if (!rank->halted()) {
        rank->run(quantum);
        all_halted &= rank->halted();
      }
    }
    if (all_halted) return true;
  }
  return false;
}

Workload make_ring_rank(std::size_t rank, std::size_t nranks,
                        std::int64_t iters, std::int64_t work,
                        std::int64_t chunk_words) {
  assert(nranks >= 1 && rank < nranks);
  assert(iters > 0 && work > 0 && chunk_words > 0);
  const auto right =
      static_cast<std::int64_t>((rank + 1) % nranks);
  const auto left =
      static_cast<std::int64_t>((rank + nranks - 1) % nranks);
  constexpr std::int64_t kSendBuf = 0x20000000;
  constexpr std::int64_t kRecvBuf = 0x28000000;

  ProgramBuilder b;
  b.begin_function("main");
  b.set_line(1);
  b.li(1, 0);  // iteration
  b.li(2, iters);
  auto loop = b.new_label();
  b.bind(loop);
  // --- compute phase ---
  b.set_line(2);
  b.li(3, 0);
  b.li(4, work);
  auto comp = b.new_label();
  b.bind(comp);
  b.fmadd(1, 2, 3);
  b.addi(3, 3, 1);
  b.blt(3, 4, comp);
  // --- communicate phase ---
  b.set_line(3);
  b.li(CommWorld::kAddrReg, kSendBuf);
  b.store(1, CommWorld::kAddrReg, 0);  // payload[0] = iteration
  b.li(CommWorld::kCountReg, chunk_words);
  b.probe(CommWorld::kSendBase + right);
  b.li(CommWorld::kAddrReg, kRecvBuf);
  b.li(CommWorld::kCountReg, chunk_words);
  b.probe(CommWorld::kRecvBase + left);
  b.addi(1, 1, 1);
  b.blt(1, 2, loop);
  b.halt();
  b.end_function();

  Workload w;
  w.name = "ring_rank";
  w.program = std::move(b).build();
  const auto total_fma = static_cast<std::uint64_t>(iters) *
                         static_cast<std::uint64_t>(work);
  w.expected = {.fp_fma = total_fma, .flops = 2 * total_fma};
  w.regions = {{"sendbuf", static_cast<std::uint64_t>(kSendBuf),
                static_cast<std::uint64_t>(chunk_words) * 8},
               {"recvbuf", static_cast<std::uint64_t>(kRecvBuf),
                static_cast<std::uint64_t>(chunk_words) * 8}};
  return w;
}

}  // namespace papirepro::sim
