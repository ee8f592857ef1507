#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>

#include "puppies/common/bytes.h"

namespace puppies::jpeg {

/// MSB-first bit writer for JPEG entropy-coded segments. Emits a 0x00 stuff
/// byte after every 0xFF, as the standard requires.
///
/// Bits collect in a 64-bit accumulator until it fills; then the writer
/// stores one whole 8-byte word. One 0xFF screen per word decides between
/// that raw store and the per-byte stuffing path, which runs only for a word
/// that holds a 0xFF byte. Words land in a small staging buffer inside the
/// writer and reach `out` a block at a time, so the hot path never touches
/// the vector: `out` holds exactly the stream written so far after every
/// flush() and restart_marker().
class BitWriter {
 public:
  /// Largest `count` a single put() accepts. The codec emits at most a
  /// 16-bit code fused with an 11-bit magnitude.
  static constexpr int kMaxPutBits = 57;

  explicit BitWriter(Bytes& out) : out_(out) {}

  /// Writes the low `count` bits of `bits` (count in [0, kMaxPutBits]).
  /// The count contract is a debug assertion.
  void put(std::uint64_t bits, int count) {
    assert(count >= 0 && count <= kMaxPutBits);
    bits &= (std::uint64_t{1} << count) - 1;
    if (count < free_) {
      acc_ = (acc_ << count) | bits;
      free_ -= count;
      return;
    }
    // The word fills: its low `free_` bits are the top of `bits`, and the
    // `over` bits left over start the next word. Here 1 <= free_ <= count
    // <= kMaxPutBits, so neither shift reaches 64. Bits of acc_ above the
    // ones still buffered are stale and shift out before they are stored.
    const int over = count - free_;
    put_word((acc_ << free_) | (bits >> over));
    acc_ = bits;
    free_ = 64 - over;
  }

  /// Pads the final partial byte with 1-bits and writes every buffered byte
  /// to `out`. The writer is then byte-aligned: restart segments rest on
  /// this, since a segment's bytes never lean on its neighbour's.
  void flush();

  /// Flushes, then emits restart marker RSTn (n in 0..7) unstuffed.
  void restart_marker(int n);

 private:
  /// Staging capacity. A word needs at most 16 bytes (8 stuffed 0xFFs), so
  /// put_word spills to `out` once fewer than that are free.
  static constexpr std::size_t kStageBytes = 512;

  void put_word(std::uint64_t w) {
    if (staged_ + 16 > kStageBytes) spill();
    // Zero-byte test (bit-twiddling haszero) on ~w: a zero byte there is a
    // 0xFF byte in w. Exact for "is any byte zero", which is all the branch
    // needs.
    const std::uint64_t inv = ~w;
    if (((inv - 0x0101010101010101ull) & ~inv & 0x8080808080808080ull) != 0) {
      for (int i = 56; i >= 0; i -= 8)
        stage_byte(static_cast<std::uint8_t>(w >> i));
      return;
    }
    if constexpr (std::endian::native == std::endian::little)
      w = __builtin_bswap64(w);
    std::memcpy(stage_ + staged_, &w, sizeof w);
    staged_ += sizeof w;
  }
  void stage_byte(std::uint8_t b) {
    stage_[staged_++] = b;
    if (b == 0xff) stage_[staged_++] = 0x00;  // byte stuffing
  }
  void pad_to_byte();
  void spill();

  Bytes& out_;
  std::uint64_t acc_ = 0;  ///< low 64 - free_ bits are buffered, MSB-first
  int free_ = 64;          ///< free accumulator bits, in [1, 64]
  std::size_t staged_ = 0;
  std::uint8_t stage_[kStageBytes];
};

/// MSB-first bit reader that un-stuffs 0xFF00 and stops at any other marker.
///
/// Internally buffers up to 64 bits: refill() consumes whole bytes until the
/// accumulator is full or it reaches the end of the data, a dangling 0xFF, or
/// a marker. Those three conditions are recorded, not thrown — the matching
/// ParseError fires only if the caller actually requests bits past them, so
/// the error behavior is identical to a byte-at-a-time reader.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Reads `count` bits (count in [0,24]). Throws ParseError past the end of
  /// the entropy-coded segment.
  std::uint32_t get(int count);
  /// Reads a single bit.
  int bit() { return static_cast<int>(get(1)); }

  /// Non-consuming read of `count` bits (count in [1,24]) into `bits`.
  /// Returns false if fewer than `count` bits remain before the end of the
  /// segment (never throws). On success a following skip(count) consumes.
  bool peek(int count, std::uint32_t& bits);

  /// Wide variant of peek (count in [1,56]) for the fused Huffman+magnitude
  /// decode: one peek covers an 8-bit first-level code plus up to 11
  /// magnitude bits. Same refill/stop semantics as peek. Inline because it
  /// runs once per decoded coefficient — the refill stays out of line, so
  /// the hot path is a compare and two shifts on registers.
  bool peek_wide(int count, std::uint64_t& bits) {
    if (avail_ < count) {
      refill();
      if (avail_ < count) return false;
    }
    bits = (acc_ >> (avail_ - count)) & (~std::uint64_t{0} >> (64 - count));
    return true;
  }

  /// Consumes `count` bits previously seen via peek (count <= peeked count).
  void skip(int count) { avail_ -= count; }

  /// Consumes a restart marker RSTn (discarding any partial byte first).
  /// Throws ParseError if the next marker is not RST(expected_n).
  void expect_restart_marker(int expected_n);

  /// True iff the reader sits where expect_restart_marker would accept a
  /// marker: the partial-byte remainder is discarded and no whole entropy
  /// byte is left buffered or unread. The parallel segment decoder checks
  /// this at the end of every non-final segment — the RSTn itself lies
  /// outside the segment's byte range — so a segment that over- or
  /// under-consumes falls back to the serial decoder and its exact error.
  bool at_segment_end();

 private:
  enum class Stop : std::uint8_t { kNone, kEnd, kDangling, kMarker };

  void refill();
  [[noreturn]] void throw_stopped() const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;  // low avail_ bits are unconsumed, MSB-first
  int avail_ = 0;
  Stop stop_ = Stop::kNone;
};

}  // namespace puppies::jpeg
