// Wire-format oracle for the aggregation service: every frame that
// encode_frame produces must decode back bit-identically (headers,
// statuses, flags, stamps, zigzagged values over the full long long
// range), and every malformed input — truncation at any byte, bad
// magic/version, oversized or impossible declared lengths, overlong
// varints — must surface a clean WireError without the reader ever
// touching a byte outside the buffer (the CI ASan shard enforces the
// no-OOB half of that claim).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "aggregate/wire.h"
#include "common/rng.h"
#include "core/eventset.h"
#include "test_util.h"

namespace {

using namespace papirepro::aggregate;
namespace papi = papirepro::papi;
using papirepro::Error;
using papirepro::Xoshiro256;
using papirepro::test::AllocationGuard;

/// One randomized rank snapshot: entries plus the shared value buffer,
/// exercising every status/flag/value shape the library can publish.
struct RandomSnapshot {
  std::vector<papi::SnapshotEntry> entries;
  std::vector<long long> values;
};

RandomSnapshot make_random_snapshot(Xoshiro256& rng,
                                    std::size_t num_entries) {
  static constexpr Error kStatuses[] = {
      Error::kOk,          Error::kOk,       Error::kOk,
      Error::kNotRunning,  Error::kNoEventSet,
      Error::kComponentQuarantined};
  static constexpr std::uint32_t kFlagSets[] = {
      papi::read_flag::kValid,
      papi::read_flag::kStale,
      papi::read_flag::kPublished,
      papi::read_flag::kPublished | papi::read_flag::kStale,
      papi::read_flag::kQuarantined | papi::read_flag::kStale,
      papi::read_flag::kSuspect | papi::read_flag::kNoData};
  RandomSnapshot snap;
  for (std::size_t i = 0; i < num_entries; ++i) {
    papi::SnapshotEntry e;
    e.handle = static_cast<int>(rng.next() % 100'000);
    e.status = kStatuses[rng.next() % std::size(kStatuses)];
    e.flags = kFlagSets[rng.next() % std::size(kFlagSets)];
    e.pub_cycles = rng.next() >> (rng.next() % 64);
    e.first_value = static_cast<std::uint32_t>(snap.values.size());
    // kNoEventSet mimics a racing destroy: no values at all.
    e.num_values = e.status == Error::kNoEventSet
                       ? 0
                       : static_cast<std::uint32_t>(1 + rng.next() % 4);
    for (std::uint32_t v = 0; v < e.num_values; ++v) {
      // Mix tiny, huge, and negative magnitudes so both zigzag halves
      // and every varint length occur.
      const std::uint64_t raw = rng.next() >> (rng.next() % 64);
      snap.values.push_back(rng.next() % 2 == 0
                                ? static_cast<long long>(raw)
                                : -static_cast<long long>(raw));
    }
    snap.entries.push_back(e);
  }
  return snap;
}

TEST(AggregationWire, RandomizedRoundTripIsBitIdentical) {
  Xoshiro256 rng(0xC0FFEE);
  for (int round = 0; round < 50; ++round) {
    const std::uint32_t rank = static_cast<std::uint32_t>(rng.next());
    const std::uint64_t cycles = rng.next();
    const RandomSnapshot snap =
        make_random_snapshot(rng, 1 + rng.next() % 8);

    std::vector<std::uint8_t> buf;
    ASSERT_TRUE(
        encode_frame(rank, cycles, snap.entries, snap.values, buf));

    WireReader reader(buf);
    FrameHeader fh;
    ASSERT_EQ(reader.begin_frame(fh), WireError::kOk) << "round " << round;
    EXPECT_EQ(fh.rank, rank);
    EXPECT_EQ(fh.frame_cycles, cycles);
    ASSERT_EQ(fh.entry_count, snap.entries.size());
    std::size_t value_cursor = 0;
    for (const papi::SnapshotEntry& want : snap.entries) {
      EntryHeader got;
      ASSERT_EQ(reader.read_entry(got), WireError::kOk);
      EXPECT_EQ(got.handle, want.handle);
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.flags, static_cast<std::uint8_t>(want.flags));
      EXPECT_EQ(got.pub_cycles, want.pub_cycles);
      ASSERT_EQ(got.num_values, want.num_values);
      for (std::uint32_t v = 0; v < got.num_values; ++v) {
        long long value = 0;
        ASSERT_EQ(reader.read_value(value), WireError::kOk);
        EXPECT_EQ(value, snap.values[value_cursor++]);
      }
    }
    EXPECT_EQ(reader.end_frame(), WireError::kOk);
    EXPECT_TRUE(reader.done());
  }
}

TEST(AggregationWire, MultiFrameBufferDecodesInOrder) {
  Xoshiro256 rng(42);
  std::vector<std::uint8_t> buf;
  for (std::uint32_t rank = 0; rank < 5; ++rank) {
    const RandomSnapshot snap = make_random_snapshot(rng, 2);
    ASSERT_TRUE(
        encode_frame(rank, 100 + rank, snap.entries, snap.values, buf));
  }
  WireReader reader(buf);
  for (std::uint32_t rank = 0; rank < 5; ++rank) {
    FrameHeader fh;
    ASSERT_EQ(reader.begin_frame(fh), WireError::kOk);
    EXPECT_EQ(fh.rank, rank);
    EXPECT_EQ(fh.frame_cycles, 100 + rank);
    ASSERT_TRUE(reader.skip_frame());
  }
  FrameHeader fh;
  EXPECT_EQ(reader.begin_frame(fh), WireError::kNeedMore);
  EXPECT_TRUE(reader.done());
}

TEST(AggregationWire, ZigzagExtremesSurvive) {
  papi::SnapshotEntry e;
  e.handle = 1;
  e.first_value = 0;
  e.num_values = 4;
  const long long values[4] = {
      std::numeric_limits<long long>::min(),
      std::numeric_limits<long long>::max(), 0, -1};
  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(encode_frame(0, 0, {&e, 1}, values, buf));
  WireReader reader(buf);
  FrameHeader fh;
  ASSERT_EQ(reader.begin_frame(fh), WireError::kOk);
  EntryHeader eh;
  ASSERT_EQ(reader.read_entry(eh), WireError::kOk);
  for (const long long want : values) {
    long long got = 0;
    ASSERT_EQ(reader.read_value(got), WireError::kOk);
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(reader.end_frame(), WireError::kOk);
}

/// Builds one small valid frame to mutate in the rejection tests.
std::vector<std::uint8_t> small_valid_frame() {
  papi::SnapshotEntry e;
  e.handle = 3;
  e.status = Error::kOk;
  e.flags = papi::read_flag::kPublished;
  e.pub_cycles = 999;
  e.first_value = 0;
  e.num_values = 2;
  const long long values[2] = {123456789, -42};
  std::vector<std::uint8_t> buf;
  EXPECT_TRUE(encode_frame(9, 777, {&e, 1}, values, buf));
  return buf;
}

TEST(AggregationWire, TruncationAtEveryByteFailsCleanly) {
  const std::vector<std::uint8_t> full = small_valid_frame();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> part(full.begin(),
                                         full.begin() + cut);
    WireReader reader(part);
    FrameHeader fh;
    WireError e = reader.begin_frame(fh);
    if (e == WireError::kOk) {
      // Header survived the cut; the interior must not.
      EntryHeader eh;
      e = reader.read_entry(eh);
      if (e == WireError::kOk) {
        long long v = 0;
        while ((e = reader.read_value(v)) == WireError::kOk) {
        }
      }
    }
    EXPECT_NE(e, WireError::kOk) << "cut at byte " << cut;
    // A truncated buffer must never be resyncable past its end.
    EXPECT_LE(reader.offset(), part.size());
  }
}

TEST(AggregationWire, BadMagicVersionReservedRejected) {
  {
    std::vector<std::uint8_t> buf = small_valid_frame();
    buf[4] ^= 0x01;  // magic
    WireReader reader(buf);
    FrameHeader fh;
    EXPECT_EQ(reader.begin_frame(fh), WireError::kBadMagic);
    // The declared length was valid, so the frame can be skipped and
    // the stream resynchronized.
    EXPECT_TRUE(reader.skip_frame());
    EXPECT_TRUE(reader.done());
  }
  {
    std::vector<std::uint8_t> buf = small_valid_frame();
    buf[8] = kWireVersion + 1;  // version byte
    WireReader reader(buf);
    FrameHeader fh;
    EXPECT_EQ(reader.begin_frame(fh), WireError::kBadVersion);
    EXPECT_TRUE(reader.skip_frame());
  }
  {
    std::vector<std::uint8_t> buf = small_valid_frame();
    buf[9] = 0xAA;  // unknown frame mode
    WireReader reader(buf);
    FrameHeader fh;
    EXPECT_EQ(reader.begin_frame(fh), WireError::kMalformed);
  }
}

TEST(AggregationWire, DeclaredLengthAbuseRejected) {
  {
    // Declared length beyond the format cap.
    std::vector<std::uint8_t> buf = small_valid_frame();
    const std::uint32_t huge = kMaxFrameBytes + 1;
    buf[0] = static_cast<std::uint8_t>(huge);
    buf[1] = static_cast<std::uint8_t>(huge >> 8);
    buf[2] = static_cast<std::uint8_t>(huge >> 16);
    buf[3] = static_cast<std::uint8_t>(huge >> 24);
    WireReader reader(buf);
    FrameHeader fh;
    EXPECT_EQ(reader.begin_frame(fh), WireError::kOversized);
    EXPECT_FALSE(reader.skip_frame());  // nothing trustworthy to skip to
  }
  {
    // Declared length larger than the buffer that arrived.
    std::vector<std::uint8_t> buf = small_valid_frame();
    buf[0] = static_cast<std::uint8_t>(buf.size() + 10);
    WireReader reader(buf);
    FrameHeader fh;
    EXPECT_EQ(reader.begin_frame(fh), WireError::kTruncated);
  }
  {
    // Declared length too small to hold even an empty frame.
    std::vector<std::uint8_t> buf = small_valid_frame();
    buf[0] = 5;
    buf[1] = buf[2] = buf[3] = 0;
    WireReader reader(buf);
    FrameHeader fh;
    EXPECT_EQ(reader.begin_frame(fh), WireError::kMalformed);
  }
  {
    // Entry count that cannot fit the declared payload.
    papi::SnapshotEntry e;
    e.handle = 1;
    e.num_values = 0;
    std::vector<std::uint8_t> buf;
    ASSERT_TRUE(encode_frame(0, 0, {&e, 1}, {}, buf));
    // Overwrite the entry-count varint (last header byte before the
    // entry) with a large one-byte value.
    // Header: 4 len + 4 magic + 1 ver + 1 res + rank(1) + cycles(1) +
    // count(1) -> count lives at offset 12 for these tiny values.
    buf[12] = 0x7F;  // 127 entries declared, ~5 bytes present
    WireReader reader(buf);
    FrameHeader fh;
    EXPECT_EQ(reader.begin_frame(fh), WireError::kMalformed);
  }
}

TEST(AggregationWire, OverlongVarintRejected) {
  // Hand-build a frame whose rank varint has continuation bits through
  // all ten bytes.
  std::vector<std::uint8_t> buf(4 + 4 + 2, 0);
  buf[4] = static_cast<std::uint8_t>(kWireMagic);
  buf[5] = static_cast<std::uint8_t>(kWireMagic >> 8);
  buf[6] = static_cast<std::uint8_t>(kWireMagic >> 16);
  buf[7] = static_cast<std::uint8_t>(kWireMagic >> 24);
  buf[8] = kWireVersion;
  buf[9] = 0;
  for (int i = 0; i < 10; ++i) buf.push_back(0xFF);  // overlong varint
  buf.push_back(0x00);
  buf.push_back(0x00);
  const std::uint32_t len = static_cast<std::uint32_t>(buf.size());
  buf[0] = static_cast<std::uint8_t>(len);
  buf[1] = static_cast<std::uint8_t>(len >> 8);
  buf[2] = static_cast<std::uint8_t>(len >> 16);
  buf[3] = static_cast<std::uint8_t>(len >> 24);
  WireReader reader(buf);
  FrameHeader fh;
  EXPECT_EQ(reader.begin_frame(fh), WireError::kMalformed);
}

TEST(AggregationWire, FrameModeRoundTripsAndUnknownModeRejected) {
  papi::SnapshotEntry e;
  e.handle = 1;
  e.first_value = 0;
  e.num_values = 1;
  const long long values[1] = {5};
  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(encode_frame(4, 100, {&e, 1}, values, buf,
                           kFrameModeRankRun));
  WireReader reader(buf);
  FrameHeader fh;
  ASSERT_EQ(reader.begin_frame(fh), WireError::kOk);
  EXPECT_EQ(fh.mode, kFrameModeRankRun);
  EXPECT_EQ(fh.rank, 4u);
  // The encoder refuses modes the format does not define.
  std::vector<std::uint8_t> buf2;
  EXPECT_FALSE(encode_frame(4, 100, {&e, 1}, values, buf2,
                            kFrameModeRankRun + 1));
  EXPECT_TRUE(buf2.empty());
}

TEST(AggregationWire, TrailingEntryBytesAreSkippedForwardCompat) {
  // The per-entry length is authoritative: bytes past the fields this
  // decoder version consumes must be skipped, which is what lets a
  // newer encoder append entry fields without breaking old decoders.
  std::vector<std::uint8_t> buf = small_valid_frame();
  // Layout for small_valid_frame: 10-byte header, rank 9 (1 byte),
  // cycles 777 (2 bytes), count 1 (1 byte) -> entry_len at offset 14.
  ASSERT_EQ(buf[14], buf.size() - 15) << "frame layout drifted";
  buf.insert(buf.end(), {0xEE, 0xEE, 0xEE});  // "future fields"
  buf[14] += 3;
  const auto len = static_cast<std::uint32_t>(buf.size());
  buf[0] = static_cast<std::uint8_t>(len);
  buf[1] = static_cast<std::uint8_t>(len >> 8);
  buf[2] = static_cast<std::uint8_t>(len >> 16);
  buf[3] = static_cast<std::uint8_t>(len >> 24);

  WireReader reader(buf);
  FrameHeader fh;
  ASSERT_EQ(reader.begin_frame(fh), WireError::kOk);
  EntryHeader eh;
  ASSERT_EQ(reader.read_entry(eh), WireError::kOk);
  EXPECT_EQ(eh.handle, 3);
  EXPECT_EQ(eh.pub_cycles, 999u);
  ASSERT_EQ(eh.num_values, 2u);
  long long got[2] = {0, 0};
  ASSERT_EQ(reader.read_values(got, 2), WireError::kOk);
  EXPECT_EQ(got[0], 123456789);
  EXPECT_EQ(got[1], -42);
  // end_frame hops the unknown trailing bytes and still lands exactly
  // on the declared frame end.
  EXPECT_EQ(reader.end_frame(), WireError::kOk);
  EXPECT_TRUE(reader.done());
}

TEST(AggregationWire, LyingEntryLengthRejected) {
  {
    // Entry length reaching past the frame end.
    std::vector<std::uint8_t> buf = small_valid_frame();
    buf[14] = 0x60;
    WireReader reader(buf);
    FrameHeader fh;
    ASSERT_EQ(reader.begin_frame(fh), WireError::kOk);
    EntryHeader eh;
    EXPECT_EQ(reader.read_entry(eh), WireError::kMalformed);
  }
  {
    // Entry length too small for its own fields: every field read is
    // bounded by the declared entry end, never the frame end.
    std::vector<std::uint8_t> buf = small_valid_frame();
    buf[14] = 2;
    WireReader reader(buf);
    FrameHeader fh;
    ASSERT_EQ(reader.begin_frame(fh), WireError::kOk);
    EntryHeader eh;
    EXPECT_NE(reader.read_entry(eh), WireError::kOk);
  }
}

TEST(AggregationWire, DeltaStampsSurviveExtremeDistance) {
  // Publication stamps ride as wrapping zigzag deltas from the frame
  // stamp; the mapping must be exact even when the two are at opposite
  // ends of the 64-bit range.
  const std::uint64_t kPairs[][2] = {
      {0, std::numeric_limits<std::uint64_t>::max()},
      {std::numeric_limits<std::uint64_t>::max(), 0},
      {1ull << 63, (1ull << 63) - 1},
  };
  for (const auto& pair : kPairs) {
    papi::SnapshotEntry e;
    e.handle = 1;
    e.pub_cycles = pair[1];
    e.first_value = 0;
    e.num_values = 0;
    std::vector<std::uint8_t> buf;
    ASSERT_TRUE(encode_frame(0, pair[0], {&e, 1}, {}, buf));
    WireReader reader(buf);
    FrameHeader fh;
    ASSERT_EQ(reader.begin_frame(fh), WireError::kOk);
    EXPECT_EQ(fh.frame_cycles, pair[0]);
    EntryHeader eh;
    ASSERT_EQ(reader.read_entry(eh), WireError::kOk);
    EXPECT_EQ(eh.pub_cycles, pair[1]);
    EXPECT_EQ(reader.end_frame(), WireError::kOk);
  }
}

TEST(AggregationWire, EncoderEnforcesCaps) {
  // Entry pointing past the value buffer is refused and rolls back.
  papi::SnapshotEntry e;
  e.handle = 1;
  e.first_value = 4;
  e.num_values = 4;
  const long long values[2] = {1, 2};
  std::vector<std::uint8_t> buf{0xAB};  // pre-existing bytes survive
  EXPECT_FALSE(encode_frame(0, 0, {&e, 1}, values, buf));
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0xAB);
  // Declared per-entry value count beyond the cap is refused.
  e.first_value = 0;
  e.num_values = kMaxValuesPerEntry + 1;
  EXPECT_FALSE(encode_frame(0, 0, {&e, 1}, values, buf));
  EXPECT_EQ(buf.size(), 1u);
  // Fields the decoder would reject are refused at the source instead
  // of reaching the collector as a decode error.
  e.num_values = 2;
  e.handle = -1;
  EXPECT_FALSE(encode_frame(0, 0, {&e, 1}, values, buf)) << "handle";
  e.handle = 1;
  for (const int status :
       {1, static_cast<int>(Error::kComponentQuarantined) - 1}) {
    e.status = static_cast<Error>(status);
    EXPECT_FALSE(encode_frame(0, 0, {&e, 1}, values, buf)) << status;
  }
  e.status = Error::kComponentQuarantined;
  e.flags = 0x100;  // would otherwise truncate to 0
  EXPECT_FALSE(encode_frame(0, 0, {&e, 1}, values, buf)) << "flags";
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0xAB);
  // The same entry with its flags in range encodes.
  e.flags = 0xFF;
  EXPECT_TRUE(encode_frame(0, 0, {&e, 1}, values, buf));
}

TEST(AggregationWire, LongEntryRoundTripsInBothModes) {
  // 16 full-width values make a 160+ byte entry, whose entry_len takes
  // two varint bytes; short neighbours on both sides catch a shift that
  // lands on the wrong bytes.
  std::vector<long long> values;
  papi::SnapshotEntry e[3];
  for (int i = 0; i < 3; ++i) {
    e[i].handle = 10 + i;
    e[i].status = i == 1 ? Error::kOk : Error::kNotRunning;
    e[i].flags = papi::read_flag::kPublished;
    e[i].pub_cycles = 5000 - i;
    e[i].first_value = static_cast<std::uint32_t>(values.size());
    e[i].num_values = i == 1 ? 16 : 1;
    for (std::uint32_t v = 0; v < e[i].num_values; ++v) {
      values.push_back(v % 2 == 0 ? std::numeric_limits<long long>::min()
                                  : std::numeric_limits<long long>::max());
    }
  }
  for (const std::uint8_t mode : {kFrameModeSingleRank, kFrameModeRankRun}) {
    std::vector<std::uint8_t> buf;
    ASSERT_TRUE(encode_frame(3, 5000, e, values, buf, mode));
    WireReader reader(buf);
    FrameHeader fh;
    ASSERT_EQ(reader.begin_frame(fh), WireError::kOk);
    EXPECT_EQ(fh.mode, mode);
    ASSERT_EQ(fh.entry_count, 3u);
    for (const papi::SnapshotEntry& want : e) {
      EntryHeader got;
      ASSERT_EQ(reader.read_entry(got), WireError::kOk);
      EXPECT_EQ(got.handle, want.handle);
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.flags, want.flags);
      EXPECT_EQ(got.pub_cycles, want.pub_cycles);
      ASSERT_EQ(got.num_values, want.num_values);
      std::vector<long long> decoded(got.num_values);
      ASSERT_EQ(reader.read_values(decoded.data(), got.num_values),
                WireError::kOk);
      for (std::uint32_t v = 0; v < got.num_values; ++v) {
        EXPECT_EQ(decoded[v], values[want.first_value + v]);
      }
    }
    EXPECT_EQ(reader.end_frame(), WireError::kOk);
    EXPECT_TRUE(reader.done());
  }
}

TEST(AggregationWire, OverCapFrameRefusedWithoutOversizingOut) {
  // 4096 entries each naming the same 1024 full-width values: ~42 MB
  // of frame, far past kMaxFrameBytes.  The encoder must notice within
  // one entry of crossing the cap rather than write the whole frame
  // first.
  const std::vector<long long> values(kMaxValuesPerEntry,
                                      std::numeric_limits<long long>::min());
  papi::SnapshotEntry e;
  e.handle = 1;
  e.first_value = 0;
  e.num_values = kMaxValuesPerEntry;
  const std::vector<papi::SnapshotEntry> entries(kMaxEntriesPerFrame, e);
  std::vector<std::uint8_t> buf{0x01, 0x02, 0x03};
  EXPECT_FALSE(encode_frame(0, 0, entries, values, buf));
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
  EXPECT_EQ(buf[2], 0x03);
  EXPECT_LT(buf.capacity(), 4 * kMaxFrameBytes);
}

TEST(AggregationWire, SteadyStatePollsReuseTheBuffer) {
  // A poll encodes 4 rank-run frames of 32 one-value entries into one
  // buffer and clear()s it before the next.  Each poll below widens one
  // more value across a varint boundary, so frame 0 grows by a byte and
  // every later frame starts a byte further in; the buffer must absorb
  // that without reallocating.
  constexpr std::size_t kFrames = 4, kEntries = 32;
  std::vector<papi::SnapshotEntry> entries(kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) {
    entries[i].handle = static_cast<int>(i);
    entries[i].first_value = static_cast<std::uint32_t>(i);
    entries[i].num_values = 1;
  }
  std::vector<long long> values(kFrames * kEntries, 5);
  std::vector<std::uint8_t> buf;
  const auto poll = [&] {
    buf.clear();
    for (std::size_t f = 0; f < kFrames; ++f) {
      ASSERT_TRUE(encode_frame(
          static_cast<std::uint32_t>(f), 1000, entries,
          std::span<const long long>(values).subspan(f * kEntries, kEntries),
          buf, kFrameModeRankRun));
    }
  };
  poll();
  AllocationGuard guard;
  for (std::size_t i = 0; i < kEntries; ++i) {
    values[i] = 1000;  // zigzag 2000: two varint bytes instead of one
    poll();
  }
  EXPECT_EQ(guard.delta(), 0u)
      << "a steady-state poll must reuse the buffer's capacity";
}

TEST(AggregationWire, RankRunFrameMatchesGoldenBytes) {
  // Wire v1 pinned byte for byte, so an encoder and decoder that drift
  // together still fail here.
  papi::SnapshotEntry e[3];
  e[0].handle = 7;
  e[0].flags = papi::read_flag::kPublished;
  e[0].pub_cycles = 1000;
  e[0].first_value = 0;
  e[0].num_values = 2;
  e[1].handle = 8;
  e[1].status = Error::kNotRunning;
  e[1].flags = papi::read_flag::kPublished | papi::read_flag::kStale;
  e[1].pub_cycles = 990;
  e[1].first_value = 2;
  e[1].num_values = 2;
  e[2].handle = 9;
  e[2].status = Error::kNoEventSet;
  e[2].pub_cycles = 0;
  e[2].first_value = 4;
  e[2].num_values = 0;
  const long long values[4] = {123, -1, 300, 0};
  static constexpr std::uint8_t kGolden[] = {
      0x27, 0x00, 0x00, 0x00,  // frame_len 39
      0x50, 0x53, 0x43, 0x46,  // magic "PSCF"
      0x01, 0x01,              // version 1, rank-run mode
      0x28,                    // rank 40
      0xE8, 0x07,              // frame_cycles 1000
      0x03,                    // entry_count
      // len, handle, status, flags, pub_delta 0, 2 values: 123, -1
      0x08, 0x07, 0x00, 0x08, 0x00, 0x02, 0xF6, 0x01, 0x01,
      // len, handle, -kNotRunning, flags, pub_delta -10, 2 values: 300, 0
      0x08, 0x08, 0x0A, 0x09, 0x13, 0x02, 0xD8, 0x04, 0x00,
      // len, handle, -kNoEventSet, flags, pub_delta -1000, 0 values
      0x06, 0x09, 0x0C, 0x00, 0xCF, 0x0F, 0x00};
  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(encode_frame(40, 1000, e, values, buf, kFrameModeRankRun));
  EXPECT_EQ(buf, std::vector<std::uint8_t>(std::begin(kGolden),
                                           std::end(kGolden)));
}

}  // namespace
