// Byte-at-a-time reference decoder for wire v1 and the collector's
// commit rules, written from the format description in aggregate/wire.h
// and the ingest contract in aggregate/collector.h rather than from
// WireReader.  It reads one byte per step through index arithmetic and
// checks every read against its limit, so it has no word loads, no
// fast paths and no shared code with the decoder under test; the wire
// and collector tests compare WireReader and Collector::ingest with it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aggregate/wire.h"
#include "common/status.h"

namespace papirepro::aggregate::reference {

/// One varint decode: the error, the value (kOk only) and the index
/// after the last byte read.
struct Varint {
  WireError error = WireError::kOk;
  std::uint64_t value = 0;
  std::size_t end = 0;
};

/// Decodes the LEB128 varint at `buf[pos]`, reading no byte at or past
/// `limit`.  A varint that reaches `limit` unterminated is kTruncated
/// with `end == limit`; a 10th byte above 0x01 (bits past 64, or a
/// continuation) is kMalformed with `end` just past it.
inline Varint varint(std::span<const std::uint8_t> buf, std::size_t pos,
                     std::size_t limit) {
  std::uint64_t value = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= limit) return {WireError::kTruncated, 0, pos};
    const std::uint8_t b = buf[pos++];
    if (i == 9 && b > 0x01) return {WireError::kMalformed, 0, pos};
    value |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
    if (b < 0x80) return {WireError::kOk, value, pos};
  }
  return {WireError::kMalformed, 0, pos};  // not reached: i == 9 returns
}

inline long long unzigzag(std::uint64_t u) {
  const auto half = static_cast<long long>(u >> 1);
  return (u & 1) != 0 ? -half - 1 : half;
}

/// What one rank slot holds after the reference ingest.
struct Rank {
  bool seen = false;
  std::vector<long long> values;
  std::uint64_t pub_cycles = 0;
};

/// The CollectorStats fields one ingest() call moves, and whether it
/// abandoned the rest of the buffer at an untrustworthy length prefix.
struct IngestCounts {
  std::uint64_t frames = 0;
  std::uint64_t entries = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t values_dropped = 0;
  std::uint64_t ranks_dropped = 0;
  bool abandoned = false;
};

/// Where the length fields of a buffer sit: the first byte of every
/// frame_len and entry_len the reference read.
struct Layout {
  std::vector<std::size_t> frame_lens;
  std::vector<std::size_t> entry_lens;
};

/// The reference collector: rank slots plus ingest().
class Collector {
 public:
  Collector(std::uint32_t max_ranks, std::uint32_t num_metrics)
      : max_ranks_(max_ranks), num_metrics_(num_metrics), ranks_(max_ranks) {}

  const std::vector<Rank>& ranks() const { return ranks_; }

  /// Walks every frame of `buf` as Collector::ingest does: a frame
  /// whose length prefix is sane is skipped to its declared end when it
  /// is bad; one whose prefix is not abandons the rest of the buffer.
  IngestCounts ingest(std::span<const std::uint8_t> buf,
                      Layout* layout = nullptr) {
    IngestCounts counts;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      if (buf.size() - pos < 4 || u32(buf, pos) > kMaxFrameBytes ||
          u32(buf, pos) < 13 || u32(buf, pos) > buf.size() - pos) {
        ++counts.decode_errors;
        counts.abandoned = true;
        break;
      }
      const std::uint32_t len = u32(buf, pos);
      if (layout != nullptr) layout->frame_lens.push_back(pos);
      const std::size_t fend = pos + len;
      switch (frame(buf, pos, fend, counts, layout)) {
        case Outcome::kAccepted: ++counts.frames; break;
        case Outcome::kRejected: ++counts.decode_errors; break;
        case Outcome::kSkipped: break;
      }
      pos = fend;
    }
    return counts;
  }

 private:
  enum class Outcome { kAccepted, kRejected, kSkipped };

  struct Entry {
    std::uint64_t pub_cycles = 0;
    std::uint64_t num_values = 0;
    std::size_t values = 0;  ///< index of the first value byte
    std::size_t end = 0;     ///< index one past the entry
  };

  static std::uint32_t u32(std::span<const std::uint8_t> buf,
                           std::size_t pos) {
    return static_cast<std::uint32_t>(buf[pos]) |
           static_cast<std::uint32_t>(buf[pos + 1]) << 8 |
           static_cast<std::uint32_t>(buf[pos + 2]) << 16 |
           static_cast<std::uint32_t>(buf[pos + 3]) << 24;
  }

  /// Parses the entry whose entry_len sits at `pos`; false when the
  /// entry is malformed.
  static bool entry(std::span<const std::uint8_t> buf, std::size_t pos,
                    std::size_t fend, std::uint64_t frame_cycles, Entry& out,
                    Layout* layout) {
    if (layout != nullptr) layout->entry_lens.push_back(pos);
    const Varint len = varint(buf, pos, fend);
    if (len.error != WireError::kOk || len.value > fend - len.end) {
      return false;
    }
    out.end = len.end + len.value;
    const Varint handle = varint(buf, len.end, out.end);
    if (handle.error != WireError::kOk || handle.value > 0x7FFFFFFF) {
      return false;
    }
    pos = handle.end;
    if (out.end - pos < 2) return false;
    const std::uint8_t status = buf[pos];
    pos += 2;  // status, flags
    if (status > -static_cast<int>(Error::kComponentQuarantined)) {
      return false;
    }
    const Varint delta = varint(buf, pos, out.end);
    if (delta.error != WireError::kOk) return false;
    const Varint count = varint(buf, delta.end, out.end);
    if (count.error != WireError::kOk || count.value > kMaxValuesPerEntry ||
        count.value > out.end - count.end) {
      return false;
    }
    out.pub_cycles =
        frame_cycles + static_cast<std::uint64_t>(unzigzag(delta.value));
    out.num_values = count.value;
    out.values = count.end;
    return true;
  }

  /// Decodes the first `n` values of `e` onto `dst`; false on a bad one.
  static bool values(std::span<const std::uint8_t> buf, const Entry& e,
                     std::uint64_t n, std::vector<long long>& dst) {
    std::size_t pos = e.values;
    for (std::uint64_t i = 0; i < n; ++i) {
      const Varint v = varint(buf, pos, e.end);
      if (v.error != WireError::kOk) return false;
      dst.push_back(unzigzag(v.value));
      pos = v.end;
    }
    return true;
  }

  Outcome frame(std::span<const std::uint8_t> buf, std::size_t start,
                std::size_t fend, IngestCounts& counts, Layout* layout) {
    if (u32(buf, start + 4) != kWireMagic) return Outcome::kRejected;
    if (buf[start + 8] != kWireVersion) return Outcome::kRejected;
    const std::uint8_t mode = buf[start + 9];
    if (mode != kFrameModeSingleRank && mode != kFrameModeRankRun) {
      return Outcome::kRejected;
    }
    const Varint rank = varint(buf, start + 10, fend);
    if (rank.error != WireError::kOk) return Outcome::kRejected;
    const Varint cycles = varint(buf, rank.end, fend);
    if (cycles.error != WireError::kOk) return Outcome::kRejected;
    const Varint count = varint(buf, cycles.end, fend);
    if (count.error != WireError::kOk || rank.value > 0xFFFFFFFF ||
        count.value > kMaxEntriesPerFrame ||
        count.value * 6 > fend - count.end) {
      return Outcome::kRejected;
    }
    std::size_t pos = count.end;
    if (mode == kFrameModeRankRun) {
      // Entry i is rank `rank + i`; each commits as soon as it decodes.
      IngestCounts frame_counts;
      for (std::uint64_t i = 0; i < count.value; ++i) {
        Entry e;
        if (!entry(buf, pos, fend, cycles.value, e, layout)) {
          return Outcome::kRejected;
        }
        const std::uint64_t stored = std::min<std::uint64_t>(e.num_values,
                                                             num_metrics_);
        std::vector<long long> vals;
        if (!values(buf, e, stored, vals)) return Outcome::kRejected;
        frame_counts.values_dropped += e.num_values - stored;
        ++frame_counts.entries;
        pos = e.end;
        const std::uint64_t r = rank.value + i;
        if (r >= max_ranks_) {
          ++counts.ranks_dropped;  // counted even if the frame fails later
          continue;
        }
        ranks_[r] = Rank{true, std::move(vals), e.pub_cycles};
      }
      if (pos != fend) return Outcome::kRejected;
      counts.entries += frame_counts.entries;
      counts.values_dropped += frame_counts.values_dropped;
      return Outcome::kAccepted;
    }
    // Single rank: every entry's values concatenate into the one rank,
    // which commits only when the whole frame decoded.
    if (rank.value >= max_ranks_) {
      ++counts.ranks_dropped;
      return Outcome::kSkipped;
    }
    Rank staged{true, {}, 0};
    std::uint64_t dropped = 0;
    for (std::uint64_t i = 0; i < count.value; ++i) {
      Entry e;
      if (!entry(buf, pos, fend, cycles.value, e, layout)) {
        return Outcome::kRejected;
      }
      if (e.pub_cycles > staged.pub_cycles) staged.pub_cycles = e.pub_cycles;
      const std::uint64_t take = std::min<std::uint64_t>(
          e.num_values, num_metrics_ - staged.values.size());
      if (!values(buf, e, take, staged.values)) return Outcome::kRejected;
      dropped += e.num_values - take;
      pos = e.end;
    }
    if (pos != fend) return Outcome::kRejected;
    ranks_[rank.value] = std::move(staged);
    counts.entries += count.value;
    counts.values_dropped += dropped;
    return Outcome::kAccepted;
  }

  std::uint32_t max_ranks_;
  std::uint32_t num_metrics_;
  std::vector<Rank> ranks_;
};

}  // namespace papirepro::aggregate::reference
