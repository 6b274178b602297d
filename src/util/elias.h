// Elias gamma and delta universal integer codes (Elias 1975).
//
// The paper stores rule edge lists with variable-length delta codes
// (Section III-C2): node IDs, labels and edge counts are all delta-coded.
// Codes are defined for integers >= 1; callers shift 0-based IDs by one.
//
// Decoding is the hot open and fault path: the directory's node maps,
// psi', rule bodies, tuple sections, dup patches and k^2 headers are
// all delta codes. EliasDeltaDecode is forced inline over the
// BitReader's refilled window (bit_stream.h): one __builtin_clzll
// finds the unary prefix, and a code that lies wholly inside the window
// decodes with two shifts, with no call and no Status to build beyond
// an OK one. Codes the window does not hold (longer than it, or cut by
// the stream end) and malformed ones go out of line, through
// BitReader::ReadOutOfLine, to the general path, which reads with
// Peek64 and ReadBits. EliasGammaDecode is out of line: no field of the
// format is a bare gamma code. The original bit-at-a-time implementations
// are retained as *Scalar differential oracles: tests require both
// paths to be bit-identical (values, statuses and cursor positions) on
// every input, valid or corrupt.

#ifndef GREPAIR_UTIL_ELIAS_H_
#define GREPAIR_UTIL_ELIAS_H_

#include <cstddef>
#include <cstdint>

#include "src/util/bit_stream.h"
#include "src/util/status.h"

namespace grepair {

/// \brief Number of bits in the binary representation of `n`.
///
/// Defined for all inputs: returns 0 for n == 0 (callers encoding must
/// still pass n >= 1; see the encoder contracts below). The n == 0
/// guard exists because __builtin_clzll(0) is undefined behavior the
/// moment release builds compile the old assert out.
int BitLength(uint64_t n);

/// \brief Appends the Elias gamma code of `n` (n >= 1) to `writer`.
///
/// gamma(n) = (len(n)-1) zero bits, then the len(n) bits of n.
/// n == 0 is not representable: the call fails closed by appending
/// nothing.
void EliasGammaEncode(uint64_t n, BitWriter* writer);

/// \brief Appends the Elias delta code of `n` (n >= 1) to `writer`.
///
/// delta(n) = gamma(len(n)), then the binary of n without its leading
/// 1-bit. Asymptotically log n + 2 log log n bits. n == 0 is not
/// representable: the call fails closed by appending nothing.
void EliasDeltaEncode(uint64_t n, BitWriter* writer);

/// \brief Decodes an Elias gamma code into `*n` (word-at-a-time).
Status EliasGammaDecode(BitReader* reader, uint64_t* n);

/// \brief The out-of-line half of EliasDeltaDecode: a code the
/// window does not hold, a malformed one, or any code in scalar mode.
/// Decodes at bit `*pos` of the `bit_count`-bit buffer `data` and
/// advances `*pos` as EliasDeltaDecode advances its reader.
Status EliasDeltaDecodeSlow(const uint8_t* data, size_t bit_count,
                            size_t* pos, uint64_t* n);

/// \brief Decodes an Elias delta code into `*n`. Refills the window
/// when it holds fewer than 32 bits, so every code of up to 32 bits
/// (values below 2^26) decodes inline; the rest go through
/// BitReader::ReadOutOfLine, so a reader held in a local keeps its
/// state in registers.
[[gnu::always_inline]] inline Status EliasDeltaDecode(BitReader* reader,
                                                      uint64_t* n) {
  if (reader->window_bits() < 32) reader->Refill();
  const uint64_t w = reader->window();
  // gamma(len) has at most 6 leading zeros for len <= 64; w == 0 reads
  // as 63 of them and goes out of line too.
  const int zeros = __builtin_clzll(w | 1);
  if (zeros <= 6) {
    const unsigned gamma_bits = 2 * static_cast<unsigned>(zeros) + 1;
    const unsigned len = static_cast<unsigned>(w >> (64 - gamma_bits));
    const unsigned total = gamma_bits + len - 1;
    if (len <= 64 && total <= reader->window_bits()) {
      // The mantissa's len - 1 bits follow gamma(len); the leading 1
      // is implied. Shifting by 1 first keeps len == 1 defined.
      *n = (uint64_t{1} << (len - 1)) |
           ((w << gamma_bits) >> 1 >> (64 - len));
      reader->Consume(total);
      return Status::OK();
    }
  }
  return reader->ReadOutOfLine(
      [n](const uint8_t* data, size_t bit_count, size_t* pos) {
        return EliasDeltaDecodeSlow(data, bit_count, pos, n);
      });
}

/// \brief Bit-at-a-time gamma decoder: the differential oracle the
/// fast path is tested against. Identical outputs, statuses and cursor
/// movement on every input.
Status EliasGammaDecodeScalar(BitReader* reader, uint64_t* n);

/// \brief Bit-at-a-time delta decoder (differential oracle).
Status EliasDeltaDecodeScalar(BitReader* reader, uint64_t* n);

/// \brief Test-only switch: when true, every BitReader constructed
/// afterwards keeps its window empty, so ReadBit, ReadBits (the k^2
/// walk's level reads and bitmap loads included), EliasGammaDecode and
/// EliasDeltaDecode all take their bit-at-a-time paths. Whole parsers
/// (DecodeGrammar, container opens) then run differentially against
/// golden fixtures without a second code path of their own. Not
/// thread-safe: flip it only from a single-threaded test before any
/// decoding starts, and restore it afterwards. bit_stream.h declares
/// EliasDecodeScalarForTest, which reads it.
void SetEliasDecodeScalarForTest(bool scalar);

/// \brief Bit cost of gamma(n) without encoding it (0 for n == 0).
int EliasGammaLength(uint64_t n);

/// \brief Bit cost of delta(n) without encoding it (0 for n == 0).
int EliasDeltaLength(uint64_t n);

}  // namespace grepair

#endif  // GREPAIR_UTIL_ELIAS_H_
