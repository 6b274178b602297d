// Bit-granular output/input streams.
//
// The grammar serialization format of the paper (Section III-C2) is
// bit-packed: rules are sequences of Elias delta codes interleaved with
// single marker bits, and k^2-trees are raw bit arrays. BitWriter and
// BitReader provide the substrate; Elias codes live in elias.h. Every
// payload and directory decode reads through BitReader's refilled
// window, so its inline reads are the decode path's inner loop.

#ifndef GREPAIR_UTIL_BIT_STREAM_H_
#define GREPAIR_UTIL_BIT_STREAM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/status.h"

namespace grepair {

/// \brief Append-only bit sink backed by a byte buffer.
///
/// Bits are appended MSB-first within each byte, so the serialized form
/// is byte-order independent and the i-th appended bit is bit
/// `7 - (i % 8)` of byte `i / 8`.
class BitWriter {
 public:
  BitWriter() = default;

  /// \brief Appends a single bit (any nonzero value means 1).
  void PutBit(bool bit) {
    if (bit_pos_ == 0) buffer_.push_back(0);
    if (bit) buffer_.back() |= static_cast<uint8_t>(1u << (7 - bit_pos_));
    bit_pos_ = (bit_pos_ + 1) & 7;
  }

  /// \brief Appends the lowest `num_bits` bits of `value`, MSB first.
  ///
  /// `num_bits` may be 0 (no-op) up to 64.
  void PutBits(uint64_t value, int num_bits) {
    for (int i = num_bits - 1; i >= 0; --i) {
      PutBit((value >> i) & 1u);
    }
  }

  /// \brief Number of bits appended so far.
  size_t bit_size() const {
    return buffer_.size() * 8 - (bit_pos_ == 0 ? 0 : (8 - bit_pos_));
  }

  /// \brief Number of bytes needed to hold the bits (last byte zero-padded).
  size_t byte_size() const { return buffer_.size(); }

  /// \brief Returns the accumulated bytes; the writer remains usable.
  const std::vector<uint8_t>& bytes() const { return buffer_; }

  /// \brief Moves the buffer out and resets the writer.
  std::vector<uint8_t> TakeBytes() {
    bit_pos_ = 0;
    return std::move(buffer_);
  }

  /// \brief Pads with zero bits to the next byte boundary.
  void AlignToByte() {
    while (bit_pos_ != 0) PutBit(false);
  }

 private:
  std::vector<uint8_t> buffer_;
  int bit_pos_ = 0;  // next free bit index within the last byte, 0..7
};

/// \brief Test-only: whether SetEliasDecodeScalarForTest (elias.h) has
/// switched decoding to the bit-at-a-time oracles. Defined in
/// elias.cc; a BitReader samples it once, when it is constructed.
bool EliasDecodeScalarForTest();

/// \brief Sequential reader over a bit buffer produced by BitWriter.
///
/// The reader keeps a refilled 64-bit window: window() holds the next
/// window_bits() bits at the cursor, MSB-aligned, and zeros below
/// them. Refill loads 8 bytes at the cursor's byte with one unaligned
/// load and a byte swap, which leaves 57 to 64 bits in the window;
/// near the stream end it assembles the ragged tail and masks it, so
/// no bit past bit_count (buffer padding, or a neighboring field when
/// the reader spans a sub-window of a larger buffer) ever enters it.
/// Every read that fits the window is a shift: ReadBit, ReadBits and
/// EliasDeltaDecode (elias.h) are forced inline over it, with no call
/// and no Status to build beyond an OK one.
///
/// Reads the window does not hold (past its end, past the stream's, or
/// a code too long for it) go out of line through ReadOutOfLine, which
/// hands the out-of-line code the buffer and the cursor by value and
/// moves the cursor to where it stopped. So the reader's address never
/// reaches a call, and a reader that a decode loop holds in a local
/// keeps its cursor and window in registers. With both, the read
/// corpus's directory parses in about 7.3 ns per node-map id, down from
/// 15.6 with an out-of-line decode per code (4-vCPU Xeon). A caller that
/// must pass a reader to an out-of-line function (the k^2 walk) passes
/// a copy and takes it back.
///
/// While the scalar-oracle switch is on (EliasDecodeScalarForTest) the
/// reader never fills its window, so every read falls through to its
/// bit-at-a-time path: ReadBitsScalar, and the *Scalar Elias oracles.
class BitReader {
 public:
  /// \brief Reads from `data` without copying; `data` must outlive the
  /// reader. `bit_count` bounds the readable bits (defaults to all).
  explicit BitReader(const std::vector<uint8_t>& data)
      : BitReader(data.data(), data.size() * 8) {}
  BitReader(const uint8_t* data, size_t bit_count)
      : data_(data),
        bit_count_(bit_count),
        scalar_(EliasDecodeScalarForTest()),
        whole_bytes_(scalar_ ? 0 : bit_count / 8) {}

  /// \brief True if at least `n` more bits can be read.
  bool HasBits(size_t n) const { return pos_ + n <= bit_count_; }

  /// \brief Current read position in bits.
  size_t position() const { return pos_; }

  /// \brief Bits left before the stream ends (0 when past the end,
  /// which AlignToByte can legitimately produce on a ragged tail).
  size_t BitsAvailable() const {
    return pos_ >= bit_count_ ? 0 : bit_count_ - pos_;
  }

  /// \brief Whether this reader decodes bit at a time (see above).
  bool scalar() const { return scalar_; }

  /// \brief The next window_bits() bits at the cursor, MSB-aligned;
  /// the bits below them are zero.
  uint64_t window() const { return window_; }
  unsigned window_bits() const { return window_bits_; }

  /// \brief Reloads the window at the cursor: 57 to 64 bits, or all
  /// bits left near the end; none in scalar mode.
  [[gnu::always_inline]] void Refill() {
    const size_t byte = pos_ >> 3;
    if (byte + 8 <= whole_bytes_) {
      const unsigned offset = static_cast<unsigned>(pos_ & 7);
      window_ = LoadBigEndian64(data_ + byte) << offset;
      window_bits_ = 64 - offset;
      return;
    }
    window_ = scalar_ ? 0 : PeekAt(data_, bit_count_, pos_);
    window_bits_ = scalar_ ? 0
                           : static_cast<unsigned>(
                                 std::min<size_t>(64, BitsAvailable()));
  }

  /// \brief Set bits among the next `n` bits, which must all be in the
  /// stream. Does not advance.
  [[gnu::always_inline]] uint64_t CountOnes(size_t n) const {
    if (n <= window_bits_) {
      return n == 0 ? 0 : PopCount(window_ >> (64 - n));
    }
    return CountOnesAt(data_, pos_, n);
  }

  /// \brief The next 64 bits at the cursor, read from the buffer and
  /// MSB-aligned: the bit that ReadBit would return next is bit 63 of
  /// the result. Bits past the stream end read as zero. Does not
  /// advance.
  uint64_t Peek64() const { return PeekAt(data_, bit_count_, pos_); }

  /// \brief Advances the cursor `n` bits, past the window if need be
  /// (the next read refills it). The caller must have verified
  /// `HasBits(n)`, except that AlignToByte may step past the end.
  [[gnu::always_inline]] void Consume(size_t n) {
    pos_ += n;
    if (n < window_bits_) {
      window_ <<= n;
      window_bits_ -= static_cast<unsigned>(n);
    } else {
      window_ = 0;
      window_bits_ = 0;
    }
  }

  /// \brief Reads one bit into `*bit`.
  [[gnu::always_inline]] Status ReadBit(bool* bit) {
    if (window_bits_ == 0) Refill();
    if (window_bits_ == 0) {
      return ReadOutOfLine(
          [bit](const uint8_t* data, size_t bit_count, size_t* pos) {
            uint64_t value = 0;
            Status status = ReadBitsAt(data, bit_count, pos, 1, &value);
            *bit = value != 0;
            return status;
          });
    }
    *bit = window_ >> 63;
    Consume(1);
    return Status::OK();
  }

  /// \brief Reads `num_bits` (0..64) into `*value`, MSB first: a shift
  /// of the window when they fit it.
  [[gnu::always_inline]] Status ReadBits(int num_bits, uint64_t* value) {
    const unsigned n = static_cast<unsigned>(num_bits);
    if (n > window_bits_) Refill();
    // 1 <= n <= window_bits_; n == 0 wraps past it.
    if (n - 1 < window_bits_) {
      *value = window_ >> (64 - n);
      Consume(n);
      return Status::OK();
    }
    // An empty read succeeds unless the cursor is past the end.
    if (n == 0 && pos_ <= bit_count_) {
      *value = 0;
      return Status::OK();
    }
    return ReadBitsScalar(num_bits, value);
  }

  /// \brief Bit-at-a-time ReadBits straight from the buffer: the
  /// differential oracle for the window (tests decode every stream
  /// both ways), the scalar mode's read, and the read of what the
  /// window cannot hold (past its end, or past the stream's).
  [[gnu::always_inline]] Status ReadBitsScalar(int num_bits,
                                               uint64_t* value) {
    return ReadOutOfLine(
        [num_bits, value](const uint8_t* data, size_t bit_count,
                          size_t* pos) {
          return ReadBitsAt(data, bit_count, pos, num_bits, value);
        });
  }

  /// \brief Runs `read(data, bit_count, &pos)`, an out-of-line read
  /// that takes the stream by value and advances `pos` past what it
  /// consumed, and moves the cursor there. The reader's address
  /// reaches no call, so a reader held in a local keeps its state in
  /// registers around the read, and the one named Status is built in
  /// the caller's return slot.
  template <typename Read>
  [[gnu::always_inline]] Status ReadOutOfLine(Read&& read) {
    size_t pos = pos_;
    Status status = read(data_, bit_count_, &pos);
    Consume(pos - pos_);
    return status;
  }

  /// \brief Skips forward to the next byte boundary.
  void AlignToByte() { Consume((8 - (pos_ & 7)) & 7); }

 private:
  // Peek64, ReadBitsScalar and CountOnes on values (bit_stream.cc):
  // out of line, and with no pointer to the reader (see ReadOutOfLine).
  static uint64_t PeekAt(const uint8_t* data, size_t bit_count, size_t pos);
  static Status ReadBitsAt(const uint8_t* data, size_t bit_count,
                           size_t* pos, int num_bits, uint64_t* value);
  static uint64_t CountOnesAt(const uint8_t* data, size_t pos, size_t n);

  // Set bits of `x`, by bit arithmetic: without a popcount instruction
  // in the target, __builtin_popcountll is a library call.
  static uint64_t PopCount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return (x * 0x0101010101010101ull) >> 56;
  }

  // Stream bytes are MSB-first, so the big-endian value of 8 bytes is
  // their bits in stream order.
  static uint64_t LoadBigEndian64(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return v;
#else
    return __builtin_bswap64(v);
#endif
  }

  const uint8_t* data_;
  size_t bit_count_;
  bool scalar_;
  // Bytes wholly inside the stream (none in scalar mode): Refill loads
  // 8 of them at a time while it can.
  size_t whole_bytes_;
  size_t pos_ = 0;
  uint64_t window_ = 0;
  unsigned window_bits_ = 0;
};

}  // namespace grepair

#endif  // GREPAIR_UTIL_BIT_STREAM_H_
