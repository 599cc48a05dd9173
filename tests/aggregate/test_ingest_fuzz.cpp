// Seeded mutational test of Collector::ingest: valid multi-frame
// buffers in both frame modes are damaged by bit flips, byte stores,
// truncation, inserted and deleted bytes and lying frame_len/entry_len
// fields, then ingested by a fresh collector.  Every rank the collector
// commits must hold exactly what the byte-at-a-time reference decoder
// (wire_reference.h) reads from the same bytes, with the same frame,
// entry, error and drop counts.  Run under ASan, the same cases check
// that the decoder's word loads stay inside the buffer.
//
// Tier-1 runs kDefaultCases cases; PAPIREPRO_WIRE_FUZZ_CASES sets
// another count (CI's ASan job runs more).  A failure names its case
// seed, which reproduces it alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "aggregate/collector.h"
#include "aggregate/wire.h"
#include "aggregate/wire_reference.h"
#include "common/rng.h"
#include "core/eventset.h"

namespace {

using namespace papirepro::aggregate;
namespace papi = papirepro::papi;
using papirepro::Error;
using papirepro::Xoshiro256;

constexpr std::uint32_t kMaxRanks = 40;
constexpr std::uint32_t kMetrics = 4;
constexpr std::uint64_t kDefaultCases = 4000;

std::uint64_t case_count() {
  if (const char* env = std::getenv("PAPIREPRO_WIRE_FUZZ_CASES")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return kDefaultCases;
}

/// A value of a random varint length: 1 to 10 bytes zigzagged, either
/// sign.
long long random_value(Xoshiro256& rng) {
  const auto magnitude =
      static_cast<long long>(rng.next() >> rng.next_below(64));
  return rng.next_below(2) == 0 ? magnitude : -magnitude;
}

/// 2 to 5 valid frames, each single-rank or rank-run, some naming ranks
/// past kMaxRanks and entries with more values than kMetrics.
std::vector<std::uint8_t> valid_buffer(Xoshiro256& rng) {
  static constexpr Error kStatuses[] = {Error::kOk, Error::kNotRunning,
                                        Error::kNoEventSet};
  std::vector<std::uint8_t> buf;
  const std::uint64_t frames = 2 + rng.next_below(4);
  for (std::uint64_t f = 0; f < frames; ++f) {
    const std::uint8_t mode =
        rng.next_below(2) == 0 ? kFrameModeSingleRank : kFrameModeRankRun;
    const auto rank = static_cast<std::uint32_t>(rng.next_below(kMaxRanks + 4));
    const std::uint64_t cycles = rng.next() >> rng.next_below(64);
    const std::size_t n = 1 + rng.next_below(mode == kFrameModeRankRun ? 8 : 3);
    std::vector<papi::SnapshotEntry> entries(n);
    std::vector<long long> values;
    for (papi::SnapshotEntry& e : entries) {
      e.handle = static_cast<int>(rng.next_below(1'000));
      e.status = kStatuses[rng.next_below(3)];
      e.flags = static_cast<std::uint32_t>(rng.next_below(256));
      e.pub_cycles = rng.next_below(4) == 0 ? rng.next()
                                            : cycles - rng.next_below(300);
      e.first_value = static_cast<std::uint32_t>(values.size());
      e.num_values = static_cast<std::uint32_t>(rng.next_below(7));
      for (std::uint32_t v = 0; v < e.num_values; ++v) {
        values.push_back(random_value(rng));
      }
    }
    EXPECT_TRUE(encode_frame(rank, cycles, entries, values, buf, mode));
  }
  return buf;
}

std::size_t pick(Xoshiro256& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_below(n));
}

/// Applies one random mutation to `buf`; `layout` names the valid
/// buffer's length fields (offsets go stale after an insert or delete,
/// which only makes the lie land somewhere else).
void mutate(Xoshiro256& rng, const reference::Layout& layout,
            std::vector<std::uint8_t>& buf) {
  static constexpr std::uint8_t kBytes[] = {0x00, 0x01, 0x7F, 0x80,
                                            0x81, 0xFE, 0xFF};
  const auto random_byte = [&rng] {
    return rng.next_below(2) == 0 ? kBytes[rng.next_below(std::size(kBytes))]
                                  : static_cast<std::uint8_t>(rng.next());
  };
  if (buf.empty()) return;
  switch (rng.next_below(7)) {
    case 0:  // bit flip
      buf[pick(rng, buf.size())] ^= static_cast<std::uint8_t>(
          1u << rng.next_below(8));
      break;
    case 1:  // byte store
      buf[pick(rng, buf.size())] = random_byte();
      break;
    case 2:  // truncation
      buf.resize(pick(rng, buf.size()));
      break;
    case 3: {  // inserted bytes
      const std::size_t at = pick(rng, buf.size() + 1);
      const std::size_t n = 1 + pick(rng, 4);
      for (std::size_t i = 0; i < n; ++i) {
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at),
                   random_byte());
      }
      break;
    }
    case 4: {  // deleted bytes
      const std::size_t at = pick(rng, buf.size());
      const std::size_t n = std::min(1 + pick(rng, 4), buf.size() - at);
      buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(at),
                buf.begin() + static_cast<std::ptrdiff_t>(at + n));
      break;
    }
    case 5: {  // lying frame_len: nearby, tiny, past the buffer or huge
      const std::size_t at =
          layout.frame_lens[pick(rng, layout.frame_lens.size())];
      if (at + 4 > buf.size()) break;
      std::uint32_t len = static_cast<std::uint32_t>(buf[at]) |
                          static_cast<std::uint32_t>(buf[at + 1]) << 8 |
                          static_cast<std::uint32_t>(buf[at + 2]) << 16 |
                          static_cast<std::uint32_t>(buf[at + 3]) << 24;
      const std::uint64_t r = rng.next();
      switch (rng.next_below(4)) {
        case 0: len += static_cast<std::uint32_t>(r % 9) - 4; break;
        case 1: len = static_cast<std::uint32_t>(r % 16); break;
        case 2: len = static_cast<std::uint32_t>(buf.size() + r % 8); break;
        default: len = static_cast<std::uint32_t>(r); break;
      }
      for (int i = 0; i < 4; ++i) {
        buf[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
      }
      break;
    }
    default: {  // lying entry_len
      if (layout.entry_lens.empty()) break;
      const std::size_t at =
          layout.entry_lens[pick(rng, layout.entry_lens.size())];
      if (at >= buf.size()) break;
      buf[at] = rng.next_below(2) == 0
                    ? static_cast<std::uint8_t>(buf[at] + rng.next_below(9) - 4)
                    : random_byte();
      break;
    }
  }
}

/// Compares what `collector` committed with the reference's ranks.
/// Every rank is live (no age-out is configured), so top_ranks() over
/// the whole population lists each committed rank under every metric
/// it carries.
void expect_same_ranks(Collector& collector,
                       const std::vector<reference::Rank>& want,
                       const std::string& where) {
  const ClusterReduction& red = collector.reduce(0);
  const auto seen = static_cast<std::uint32_t>(
      std::count_if(want.begin(), want.end(),
                    [](const reference::Rank& r) { return r.seen; }));
  EXPECT_EQ(red.ranks_live, seen) << where;
  std::vector<RankValue> rows(kMaxRanks);
  for (std::uint32_t m = 0; m < kMetrics; ++m) {
    const std::size_t n = collector.top_ranks(m, rows);
    std::vector<RankValue> got(rows.begin(),
                               rows.begin() + static_cast<std::ptrdiff_t>(n));
    std::sort(got.begin(), got.end(),
              [](const RankValue& a, const RankValue& b) {
                return a.rank < b.rank;
              });
    std::size_t k = 0;
    for (std::uint32_t r = 0; r < kMaxRanks; ++r) {
      if (!want[r].seen || want[r].values.size() <= m) continue;
      ASSERT_LT(k, got.size()) << where << " metric " << m << " rank " << r;
      EXPECT_EQ(got[k].rank, r) << where << " metric " << m;
      EXPECT_EQ(got[k].value, want[r].values[m])
          << where << " metric " << m << " rank " << r;
      EXPECT_EQ(got[k].pub_cycles, want[r].pub_cycles)
          << where << " metric " << m << " rank " << r;
      ++k;
    }
    EXPECT_EQ(k, got.size()) << where << " metric " << m;
  }
}

TEST(AggregationIngestFuzz, MutatedBuffersCommitWhatTheReferenceDecodes) {
  CollectorConfig cfg;
  cfg.max_ranks = kMaxRanks;
  cfg.ranks_per_node = 8;
  cfg.num_metrics = kMetrics;
  const std::uint64_t cases = case_count();
  std::uint64_t accepted = 0, rejected = 0, abandoned = 0;
  for (std::uint64_t c = 0; c < cases; ++c) {
    const std::uint64_t seed = 0xF0220000 + c;
    const std::string where = "case seed " + std::to_string(seed);
    Xoshiro256 rng(seed);
    std::vector<std::uint8_t> buf = valid_buffer(rng);
    reference::Layout layout;
    reference::Collector pristine(kMaxRanks, kMetrics);
    const reference::IngestCounts clean = pristine.ingest(buf, &layout);
    ASSERT_EQ(clean.decode_errors, 0u) << where;
    const std::uint64_t mutations = 1 + rng.next_below(3);
    for (std::uint64_t i = 0; i < mutations; ++i) mutate(rng, layout, buf);

    reference::Collector ref(kMaxRanks, kMetrics);
    const reference::IngestCounts want = ref.ingest(buf);
    Collector collector(cfg);
    const std::size_t frames = collector.ingest(buf);
    const CollectorStats& got = collector.stats();
    ASSERT_EQ(frames, want.frames) << where;
    ASSERT_EQ(got.frames, want.frames) << where;
    ASSERT_EQ(got.entries, want.entries) << where;
    ASSERT_EQ(got.decode_errors, want.decode_errors) << where;
    ASSERT_EQ(got.values_dropped, want.values_dropped) << where;
    ASSERT_EQ(got.ranks_dropped, want.ranks_dropped) << where;
    expect_same_ranks(collector, ref.ranks(), where);
    if (HasFailure()) return;
    accepted += want.frames;
    rejected += want.decode_errors;
    abandoned += want.abandoned;
  }
  // The mutations must reach every outcome: frames that survive, frames
  // rejected and skipped, and buffers abandoned early.
  EXPECT_GT(accepted, cases);
  EXPECT_GT(rejected, cases / 2);
  EXPECT_GT(abandoned, cases / 10);
}

}  // namespace
