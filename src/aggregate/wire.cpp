#include "aggregate/wire.h"

#include <algorithm>
#include <cstring>

namespace papirepro::aggregate {

const char* wire_error_name(WireError e) noexcept {
  switch (e) {
    case WireError::kOk: return "ok";
    case WireError::kNeedMore: return "need_more";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kOversized: return "oversized";
    case WireError::kMalformed: return "malformed";
  }
  return "unknown";
}

namespace {

// Worst-case encoded sizes.  encode_frame sums them over its entries
// to size `out` once before writing a byte.
constexpr std::size_t kMaxVarintBytes = 10;
/// len + magic + version + mode + rank (u32) + frame_cycles + count.
constexpr std::size_t kMaxHeaderBytes = 4 + 4 + 1 + 1 + 5 + 10 + 2;
/// entry_len + handle (>= 0) + status + flags + pub_delta + num_values.
constexpr std::size_t kMaxEntryFieldBytes = 2 + 5 + 1 + 1 + 10 + 2;
constexpr std::size_t kMaxEntryBytes =
    kMaxEntryFieldBytes + kMaxVarintBytes * kMaxValuesPerEntry;
// The two-byte entry_len and count slots above rely on these.
static_assert(kMaxEntriesPerFrame < (1u << 14));
static_assert(kMaxValuesPerEntry < (1u << 14));
static_assert(kMaxEntryBytes < (1u << 14));

/// Stores `v` as LEB128 at `p`; returns one past the last byte.
std::uint8_t* store_varint(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint8_t* store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  return p + 4;
}

/// True when the decoder would accept `e` as encoded: a non-negative
/// handle, a known Error code, one byte of flags, and a value window
/// inside `num_values` within the per-entry cap.
bool encodable(const papi::SnapshotEntry& e,
               std::size_t num_values) noexcept {
  const int status = static_cast<int>(e.status);
  return e.handle >= 0 && status <= 0 &&
         status >= static_cast<int>(Error::kComponentQuarantined) &&
         e.flags <= 0xFFu && e.num_values <= kMaxValuesPerEntry &&
         e.first_value + static_cast<std::size_t>(e.num_values) <=
             num_values;
}

}  // namespace

bool encode_frame(std::uint32_t rank, std::uint64_t frame_cycles,
                  std::span<const papi::SnapshotEntry> entries,
                  std::span<const long long> values,
                  std::vector<std::uint8_t>& out, std::uint8_t mode) {
  if (entries.size() > kMaxEntriesPerFrame) return false;
  if (mode > kFrameModeRankRun) return false;
  std::size_t bound = kMaxHeaderBytes;
  for (const papi::SnapshotEntry& e : entries) {
    if (!encodable(e, values.size())) return false;
    bound += kMaxEntryFieldBytes + kMaxVarintBytes * e.num_values;
  }
  // A bound past the cap does not mean the frame is: varints are
  // usually short.  The loop below refuses the frame as soon as it
  // crosses the cap, so the cursor starts every entry within it and
  // needs at most one maximal entry of room beyond.
  bound = std::min(bound, kMaxFrameBytes + kMaxEntryBytes);
  const std::size_t base = out.size();
  // Grow geometrically: resize() alone would grow the capacity to exactly
  // base + bound, so a caller refilling one buffer every poll would
  // reallocate each time an earlier frame came out a byte longer.
  if (out.capacity() < base + bound) {
    out.reserve(std::max(base + bound, 2 * out.capacity()));
  }
  out.resize(base + bound);
  std::uint8_t* const frame = out.data() + base;
  std::uint8_t* p = frame + 4;  // frame_len backpatched below
  p = store_u32(p, kWireMagic);
  *p++ = kWireVersion;
  *p++ = mode;
  p = store_varint(p, rank);
  p = store_varint(p, frame_cycles);
  p = store_varint(p, entries.size());
  for (const papi::SnapshotEntry& e : entries) {
    // entry_len rides ahead of the fields so the decoder can hop
    // entry-to-entry off one byte: reserve that byte and backpatch.
    std::uint8_t* const len_pos = p++;
    p = store_varint(p, static_cast<std::uint32_t>(e.handle));
    // Error codes are 0 or negative; one byte covers the enum range.
    *p++ = static_cast<std::uint8_t>(-static_cast<int>(e.status));
    *p++ = static_cast<std::uint8_t>(e.flags);
    // Publication stamps ride as zigzag deltas from frame_cycles: one
    // byte in the steady state (the poller stamps the frame with the
    // clock it just snapshotted under).  Wrapping subtraction keeps the
    // mapping exact for any stamp pair.
    const auto delta = static_cast<long long>(e.pub_cycles - frame_cycles);
    p = store_varint(p, zigzag_encode(delta));
    p = store_varint(p, e.num_values);
    const long long* v = values.data() + e.first_value;
    for (std::uint32_t i = 0; i < e.num_values; ++i) {
      p = store_varint(p, zigzag_encode(v[i]));
    }
    const auto entry_len = static_cast<std::size_t>(p - (len_pos + 1));
    if (entry_len < 0x80) {
      *len_pos = static_cast<std::uint8_t>(entry_len);
    } else {
      // Rare (a dozen or more wide values): a two-byte entry_len.  The
      // bound counted both bytes, so shift the fields up by one.
      std::memmove(len_pos + 2, len_pos + 1, entry_len);
      len_pos[0] = static_cast<std::uint8_t>(entry_len) | 0x80u;
      len_pos[1] = static_cast<std::uint8_t>(entry_len >> 7);
      ++p;
    }
    if (static_cast<std::size_t>(p - frame) > kMaxFrameBytes) {
      out.resize(base);
      return false;
    }
  }
  const auto frame_len = static_cast<std::size_t>(p - frame);
  store_u32(frame, static_cast<std::uint32_t>(frame_len));
  out.resize(base + frame_len);
  return true;
}

}  // namespace papirepro::aggregate
