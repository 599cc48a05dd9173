// Compact, versioned binary wire format for per-rank counter snapshots.
// The aggregation service (collector.h) ingests hundreds to thousands
// of ranks' `Library::snapshot_all` results per polling interval; the
// frames here are what travels from a rank (or the thread polling on
// its behalf) to the collector: length-prefixed, varint-packed, and
// self-delimiting so a stream of frames from many ranks can share one
// buffer and a corrupt frame can be skipped without resynchronizing.
//
// Frame layout (all little-endian, offsets in bytes):
//   u32  frame_len   total frame size including this prefix
//   u32  magic       kWireMagic ("PSCF")
//   u8   version     kWireVersion
//   u8   mode        kFrameModeSingleRank: every entry is one EventSet
//                    of the rank named in the header (a rank with many
//                    sets sends them in one frame);
//                    kFrameModeRankRun: entry i is the single set of
//                    rank `rank + i` — the node-agent batch shape of
//                    the reduction tree, amortizing this header across
//                    a whole node's fan-in.  Other values are rejected.
//   var  rank        sender rank id
//   var  frame_cycles sender clock when the frame was assembled
//   var  entry_count
//   entries, each:
//     var  entry_len   byte length of the rest of the entry (fields +
//                      values).  Self-delimiting entries keep decode
//                      latency flat in batched frames: the next entry's
//                      position comes from one byte, not from chaining
//                      through every varint of this one.
//     var  handle      EventSet handle (>= 0)
//     u8   status      negated Error code (0 = kOk, 2 = kNotRunning, ...)
//     u8   flags       OR of the entry's read_flag::* bits
//     var  pub_delta   SnapshotEntry::pub_cycles as a zigzag delta from
//                      frame_cycles (wrapping): entries published near
//                      the frame's assembly time — the steady state —
//                      cost one byte instead of a full absolute stamp
//     var  num_values
//     var× values      zigzag-encoded long long counter values
//
// "var" is LEB128: 7 value bits per byte, high bit = continuation, at
// most 10 bytes for 64-bit payloads.  Signed values are zigzag-mapped
// first so small magnitudes of either sign stay short.
//
// The decoder is a bounds-checked cursor (WireReader): every read is
// validated against the buffer end AND the frame's declared length, and
// declared counts are capped (kMaxEntriesPerFrame / kMaxValuesPerEntry
// / kMaxFrameBytes) before anything is trusted, so truncated frames,
// bad magic/version, and oversized declared lengths error cleanly
// without reading out of bounds or allocating.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/eventset.h"

namespace papirepro::aggregate {

inline constexpr std::uint32_t kWireMagic = 0x46435350u;  // "PSCF"
inline constexpr std::uint8_t kWireVersion = 1;

/// Frame modes (the byte after the version; see the layout above).
inline constexpr std::uint8_t kFrameModeSingleRank = 0;
inline constexpr std::uint8_t kFrameModeRankRun = 1;

/// Hard caps the decoder enforces before trusting any declared size.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kMaxEntriesPerFrame = 4096;
inline constexpr std::size_t kMaxValuesPerEntry = 1024;

enum class WireError : std::uint8_t {
  kOk = 0,
  kNeedMore,    ///< buffer ends cleanly between frames
  kTruncated,   ///< frame or field extends past the buffer
  kBadMagic,    ///< frame does not start with kWireMagic
  kBadVersion,  ///< version this decoder does not speak
  kOversized,   ///< declared length/count exceeds a kMax* cap
  kMalformed,   ///< internal inconsistency (overlong varint, reserved
                ///< bits, counts that do not fit the declared length)
};

const char* wire_error_name(WireError e) noexcept;

/// Decoded per-frame header.
struct FrameHeader {
  std::uint32_t rank = 0;  ///< sender rank; first rank of a rank run
  std::uint64_t frame_cycles = 0;
  std::uint32_t entry_count = 0;
  std::uint8_t mode = kFrameModeSingleRank;
};

/// Decoded per-entry header; values follow via read_value().
struct EntryHeader {
  int handle = 0;
  Error status = Error::kOk;
  std::uint8_t flags = 0;
  std::uint64_t pub_cycles = 0;
  std::uint32_t num_values = 0;
};

// --- zigzag mapping: small magnitudes of either sign stay short ----------

inline std::uint64_t zigzag_encode(long long v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline long long zigzag_decode(std::uint64_t u) noexcept {
  return static_cast<long long>((u >> 1) ^ (~(u & 1) + 1));
}

// --- encoding -------------------------------------------------------------

/// Appends one frame carrying `entries` (their value windows resolved
/// through `values` via first_value/num_values, exactly as
/// snapshot_all laid them out) to `out`.  Reuses `out`'s capacity:
/// steady-state encoding into a warm buffer performs no allocation.
/// Returns false (and leaves `out`'s size and bytes untouched) when the
/// frame would exceed kMaxFrameBytes or a declared cap, or carries an
/// entry the decoder would reject: a negative handle, a status outside
/// 0..kComponentQuarantined, or flags above 0xFF.
bool encode_frame(std::uint32_t rank, std::uint64_t frame_cycles,
                  std::span<const papi::SnapshotEntry> entries,
                  std::span<const long long> values,
                  std::vector<std::uint8_t>& out,
                  std::uint8_t mode = kFrameModeSingleRank);

// --- decoding -------------------------------------------------------------

/// Bounds-checked streaming decoder over a buffer of frames.  Usage:
///
///   WireReader r(buf);
///   FrameHeader fh;
///   while (r.begin_frame(fh) == WireError::kOk) {
///     for (each of fh.entry_count entries) {
///       EntryHeader eh;  r.read_entry(eh);
///       for (each of eh.num_values) { long long v;  r.read_value(v); }
///     }
///     r.end_frame();  // verifies position == declared length
///   }
///
/// After any error except kNeedMore the caller may call skip_frame()
/// to jump to the next length-delimited frame (only possible when the
/// length prefix itself was readable and sane).  The reader never
/// reads outside `buf` and never allocates.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> buf)
      : begin_(buf.data()),
        end_(buf.data() + buf.size()),
        p_(buf.data()),
        fend_(nullptr) {}

  /// Parses the next frame's prefix + header.  kNeedMore at a clean
  /// end of buffer; kTruncated/kBadMagic/kBadVersion/kOversized/
  /// kMalformed otherwise.
  WireError begin_frame(FrameHeader& out) noexcept;
  /// Parses the next entry header within the current frame.
  WireError read_entry(EntryHeader& out) noexcept;
  /// Parses the next counter value of the current entry.
  WireError read_value(long long& out) noexcept;
  /// Bulk form of read_value: decodes exactly `n` values.  One
  /// state/bounds setup for the whole run, so the collector's hot loop
  /// pays per-varint cost only.
  WireError read_values(long long* out, std::uint32_t n) noexcept;
  /// Finishes the current frame: the cursor must sit exactly at the
  /// declared frame end (kMalformed otherwise — trailing garbage
  /// inside the declared length is corruption, not padding).
  WireError end_frame() noexcept;

  /// Jumps to the byte after the current frame's declared end, if that
  /// length was successfully read and lies within the buffer — also
  /// when the error left the cursor on that end already, so the cursor
  /// always lands past the frame's first byte.  Returns false when
  /// resynchronization is impossible (the rest of the buffer must be
  /// abandoned) and after a frame end_frame() closed cleanly.
  bool skip_frame() noexcept;

  std::size_t offset() const noexcept {
    return static_cast<std::size_t>(p_ - begin_);
  }
  bool done() const noexcept { return p_ >= end_; }

 private:
  WireError get_varint(std::uint64_t& out,
                       const std::uint8_t* limit) noexcept;

  // Pointer cursor rather than index + span: the decode hot loop is
  // all address arithmetic, and keeping the cursor and the frame end
  // as raw pointers measurably tightens the inlined ingest path (the
  // bench gates it against the snapshot read cost).
  const std::uint8_t* begin_;
  const std::uint8_t* end_;
  const std::uint8_t* p_;     ///< cursor
  /// One past the current frame; null while no frame whose declared
  /// length begin_frame() validated is open.
  const std::uint8_t* fend_;
  const std::uint8_t* eend_ = nullptr;  ///< one past the current entry
  std::uint64_t frame_cycles_ = 0;  ///< base for entry pub_delta fields
  bool in_frame_ = false;
  bool in_entry_ = false;
};

// WireReader definitions live in the header so the collector's ingest
// loop inlines the whole decode: at one entry per frame the per-frame
// call overhead (5 out-of-line calls) would otherwise rival the decode
// itself, and the bench gates ingest against the snapshot read cost.

inline WireError WireReader::get_varint(
    std::uint64_t& out, const std::uint8_t* limit) noexcept {
  if (p_ >= limit) return WireError::kTruncated;
  // Fast paths for the ingest hot loop: the one-byte case (small
  // counts, handles, flags-adjacent fields) costs a single bounds
  // check.
  if ((*p_ & 0x80u) == 0) {
    out = *p_++;
    return WireError::kOk;
  }
  if constexpr (std::endian::native == std::endian::little) {
    // Word path: whenever 8 bytes remain in the buffer, one load holds
    // every 2- to 5-byte varint (counter magnitudes), even when its
    // field limit is nearer: the load may read past the entry or the
    // frame, but never past the buffer, and a decoded length is kept
    // only when it fits the limit.  Each case tests one continuation
    // bit and moves the cursor by a constant, so the decode is a few
    // masks and shifts with no data-dependent loop.  Longer varints, a
    // varint that runs past its limit and the buffer's last 7 bytes
    // take the byte loops below, which give every error and leave the
    // cursor where a byte-at-a-time decode stops.
    if (end_ - p_ >= 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, p_, 8);
      const std::ptrdiff_t room = limit - p_;
      if ((w & 0x8000u) == 0) {
        if (room >= 2) {
          out = (w & 0x7Fu) | (w >> 1 & 0x3F80u);
          p_ += 2;
          return WireError::kOk;
        }
      } else if ((w & 0x800000u) == 0) {
        if (room >= 3) {
          out = (w & 0x7Fu) | (w >> 1 & 0x3F80u) | (w >> 2 & 0x1FC000u);
          p_ += 3;
          return WireError::kOk;
        }
      } else if ((w & 0x80000000u) == 0) {
        if (room >= 4) {
          out = (w & 0x7Fu) | (w >> 1 & 0x3F80u) | (w >> 2 & 0x1FC000u) |
                (w >> 3 & 0xFE00000u);
          p_ += 4;
          return WireError::kOk;
        }
      } else if ((w & 0x8000000000ull) == 0) {
        if (room >= 5) {
          out = (w & 0x7Fu) | (w >> 1 & 0x3F80u) | (w >> 2 & 0x1FC000u) |
                (w >> 3 & 0xFE00000u) | (w >> 4 & 0x7F0000000ull);
          p_ += 5;
          return WireError::kOk;
        }
      }
    }
  }
  if (limit - p_ >= 10) {
    // A maximal varint fits before the limit: no per-byte bounds check.
    const std::uint8_t* const q = p_;
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      const std::uint8_t b = q[i];
      if (i == 9 && (b & ~0x01u) != 0) break;
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << (7 * i);
      if ((b & 0x80u) == 0) {
        p_ = q + i + 1;
        out = v;
        return WireError::kOk;
      }
    }
    p_ = q + 10;  // where the guarded loop below stops on the same bytes
    return WireError::kMalformed;
  }
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (p_ >= limit) return WireError::kTruncated;
    const std::uint8_t b = *p_++;
    if (i == 9 && (b & ~0x01u) != 0) return WireError::kMalformed;
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      out = v;
      return WireError::kOk;
    }
    shift += 7;
  }
  return WireError::kMalformed;  // continuation bit on the 10th byte
}

inline WireError WireReader::begin_frame(FrameHeader& out) noexcept {
  in_frame_ = false;
  fend_ = nullptr;
  if (p_ >= end_) return WireError::kNeedMore;
  if (end_ - p_ < 4) return WireError::kTruncated;
  const std::uint8_t* base = p_;
  const std::uint32_t frame_len =
      static_cast<std::uint32_t>(base[0]) |
      static_cast<std::uint32_t>(base[1]) << 8 |
      static_cast<std::uint32_t>(base[2]) << 16 |
      static_cast<std::uint32_t>(base[3]) << 24;
  if (frame_len > kMaxFrameBytes) return WireError::kOversized;
  // 4 len + 4 magic + 1 version + 1 reserved + >= 3 one-byte varints.
  if (frame_len < 13) return WireError::kMalformed;
  if (frame_len > static_cast<std::size_t>(end_ - base)) {
    return WireError::kTruncated;
  }
  fend_ = base + frame_len;
  const std::uint32_t magic =
      static_cast<std::uint32_t>(base[4]) |
      static_cast<std::uint32_t>(base[5]) << 8 |
      static_cast<std::uint32_t>(base[6]) << 16 |
      static_cast<std::uint32_t>(base[7]) << 24;
  p_ = base + 8;
  if (magic != kWireMagic) return WireError::kBadMagic;
  if (base[8] != kWireVersion) return WireError::kBadVersion;
  const std::uint8_t mode = base[9];
  if (mode > kFrameModeRankRun) return WireError::kMalformed;
  p_ = base + 10;
  std::uint64_t rank = 0;
  std::uint64_t cycles = 0;
  std::uint64_t count = 0;
  WireError e = get_varint(rank, fend_);
  if (e != WireError::kOk) return e;
  e = get_varint(cycles, fend_);
  if (e != WireError::kOk) return e;
  e = get_varint(count, fend_);
  if (e != WireError::kOk) return e;
  if (rank > 0xFFFFFFFFu) return WireError::kMalformed;
  if (count > kMaxEntriesPerFrame) return WireError::kOversized;
  // Each entry needs at least 6 bytes (four 1-byte varints + status +
  // flags): reject counts that cannot possibly fit the declared length
  // before anyone sizes storage from them.
  if (count * 6 > static_cast<std::size_t>(fend_ - p_)) {
    return WireError::kMalformed;
  }
  out.rank = static_cast<std::uint32_t>(rank);
  out.frame_cycles = cycles;
  out.entry_count = static_cast<std::uint32_t>(count);
  out.mode = mode;
  frame_cycles_ = cycles;
  in_frame_ = true;
  in_entry_ = false;
  return WireError::kOk;
}

inline WireError WireReader::read_entry(EntryHeader& out) noexcept {
  if (!in_frame_) return WireError::kMalformed;
  if (in_entry_) {
    // The declared length is authoritative: the cursor hops straight
    // to the boundary it named.  Bytes past the fields a decoder of
    // this version consumes are skipped — that is what lets a newer
    // encoder append entry fields without breaking old decoders — and
    // it keeps consecutive entry decodes independent of each other's
    // varint chains (one byte names the next entry's position).
    p_ = eend_;
  }
  std::uint64_t entry_len = 0;
  WireError e = get_varint(entry_len, fend_);
  if (e != WireError::kOk) return e;
  if (entry_len > static_cast<std::size_t>(fend_ - p_)) {
    return WireError::kMalformed;
  }
  eend_ = p_ + entry_len;
  in_entry_ = true;
  // Every field below is bounded by the entry's own end, so a lying
  // field can never consume the next entry's bytes.
  std::uint64_t handle = 0;
  e = get_varint(handle, eend_);
  if (e != WireError::kOk) return e;
  if (handle > 0x7FFFFFFFu) return WireError::kMalformed;
  if (eend_ - p_ < 2) return WireError::kTruncated;
  const std::uint8_t status = *p_++;
  const std::uint8_t flags = *p_++;
  // Status must be a known Error code: 0 .. -kMinError.
  if (status > static_cast<std::uint8_t>(
                   -static_cast<int>(Error::kComponentQuarantined))) {
    return WireError::kMalformed;
  }
  std::uint64_t pub_delta = 0;
  std::uint64_t num_values = 0;
  e = get_varint(pub_delta, eend_);
  if (e != WireError::kOk) return e;
  e = get_varint(num_values, eend_);
  if (e != WireError::kOk) return e;
  if (num_values > kMaxValuesPerEntry) return WireError::kOversized;
  if (num_values > static_cast<std::size_t>(eend_ - p_)) {
    return WireError::kMalformed;
  }
  out.handle = static_cast<int>(handle);
  out.status = static_cast<Error>(-static_cast<int>(status));
  out.flags = flags;
  // Wrapping add inverts the encoder's wrapping subtract exactly, for
  // any pub/frame stamp pair.
  out.pub_cycles =
      frame_cycles_ + static_cast<std::uint64_t>(zigzag_decode(pub_delta));
  out.num_values = static_cast<std::uint32_t>(num_values);
  return WireError::kOk;
}

inline WireError WireReader::read_value(long long& out) noexcept {
  if (!in_frame_) return WireError::kMalformed;
  std::uint64_t u = 0;
  const WireError e = get_varint(u, in_entry_ ? eend_ : fend_);
  if (e != WireError::kOk) return e;
  out = zigzag_decode(u);
  return WireError::kOk;
}

inline WireError WireReader::read_values(long long* out,
                                         std::uint32_t n) noexcept {
  if (!in_frame_) return WireError::kMalformed;
  const std::uint8_t* const limit = in_entry_ ? eend_ : fend_;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t u = 0;
    const WireError e = get_varint(u, limit);
    if (e != WireError::kOk) return e;
    out[i] = zigzag_decode(u);
  }
  return WireError::kOk;
}

inline WireError WireReader::end_frame() noexcept {
  if (!in_frame_) return WireError::kMalformed;
  in_frame_ = false;
  if (in_entry_) p_ = eend_;  // skip the last entry's trailing bytes
  in_entry_ = false;
  if (p_ != fend_) {
    p_ = fend_;  // stay frame-aligned for the next begin_frame
    return WireError::kMalformed;
  }
  fend_ = nullptr;  // closed cleanly: nothing left to skip
  return WireError::kOk;
}

inline bool WireReader::skip_frame() noexcept {
  // Resync is possible exactly when begin_frame validated the current
  // frame's declared length.  Every read inside the frame is bounded by
  // that end, so the cursor never passed it; it may already sit on it
  // (a field that ran to the frame end, trailing bytes end_frame
  // rejected), and the frame is skipped all the same.
  if (fend_ == nullptr) return false;
  p_ = fend_;
  fend_ = nullptr;
  in_frame_ = false;
  in_entry_ = false;
  return true;
}

}  // namespace papirepro::aggregate
