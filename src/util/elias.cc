#include "src/util/elias.h"

namespace grepair {

namespace {

// Test-only dispatch to the scalar oracles (see header). Plain bool:
// only ever written by single-threaded test setup, read-only in
// production (default false), so there is no racing write to order.
bool g_decode_scalar_for_test = false;

}  // namespace

void SetEliasDecodeScalarForTest(bool scalar) {
  g_decode_scalar_for_test = scalar;
}

bool EliasDecodeScalarForTest() { return g_decode_scalar_for_test; }

int BitLength(uint64_t n) {
  // clz(0) is undefined; 0 has no binary digits worth counting.
  if (n == 0) return 0;
  return 64 - __builtin_clzll(n);
}

void EliasGammaEncode(uint64_t n, BitWriter* writer) {
  if (n == 0) return;  // fail closed: 0 has no gamma code (see header)
  int len = BitLength(n);
  for (int i = 0; i < len - 1; ++i) writer->PutBit(false);
  writer->PutBits(n, len);
}

void EliasDeltaEncode(uint64_t n, BitWriter* writer) {
  if (n == 0) return;  // fail closed: 0 has no delta code (see header)
  int len = BitLength(n);
  EliasGammaEncode(static_cast<uint64_t>(len), writer);
  // Binary of n without the leading 1-bit.
  writer->PutBits(n & ~(1ull << (len - 1)), len - 1);
}

Status EliasGammaDecodeScalar(BitReader* reader, uint64_t* n) {
  int zeros = 0;
  uint64_t bit = 0;
  for (;;) {
    GREPAIR_RETURN_IF_ERROR(reader->ReadBitsScalar(1, &bit));
    if (bit != 0) break;
    if (++zeros > 63) return Status::Corruption("gamma code too long");
  }
  uint64_t rest = 0;
  GREPAIR_RETURN_IF_ERROR(reader->ReadBitsScalar(zeros, &rest));
  *n = (1ull << zeros) | rest;
  return Status::OK();
}

Status EliasDeltaDecodeScalar(BitReader* reader, uint64_t* n) {
  uint64_t len = 0;
  GREPAIR_RETURN_IF_ERROR(EliasGammaDecodeScalar(reader, &len));
  if (len == 0 || len > 64) return Status::Corruption("bad delta length");
  uint64_t rest = 0;
  GREPAIR_RETURN_IF_ERROR(
      reader->ReadBitsScalar(static_cast<int>(len - 1), &rest));
  *n = (len == 64 ? 0ull : (1ull << (len - 1))) | rest;
  if (len == 64) *n |= 1ull << 63;
  return Status::OK();
}

namespace {

// The word-at-a-time delta decode of a code the window did not hold:
// gamma(len) through EliasGammaDecode, then the mantissa.
Status DeltaDecodeWords(BitReader* reader, uint64_t* n) {
  uint64_t len = 0;
  GREPAIR_RETURN_IF_ERROR(EliasGammaDecode(reader, &len));
  if (len == 0 || len > 64) return Status::Corruption("bad delta length");
  uint64_t rest = 0;
  GREPAIR_RETURN_IF_ERROR(reader->ReadBits(static_cast<int>(len - 1), &rest));
  *n = (len == 64 ? 0ull : (1ull << (len - 1))) | rest;
  if (len == 64) *n |= 1ull << 63;
  return Status::OK();
}

}  // namespace

Status EliasGammaDecode(BitReader* reader, uint64_t* n) {
  if (reader->scalar()) return EliasGammaDecodeScalar(reader, n);
  const uint64_t w = reader->Peek64();
  if (w == 0) {
    // No stop bit inside the window: either 64+ zeros lie ahead (no
    // gamma code is that long — the scalar oracle reports corruption
    // on the 64th zero) or only zero bits remain before the end. The
    // oracle consumes those zero bits before failing, so the cursor
    // must advance the same way here.
    const size_t avail = reader->BitsAvailable();
    if (avail >= 64) {
      reader->Consume(64);
      return Status::Corruption("gamma code too long");
    }
    reader->Consume(avail);
    return Status::OutOfRange("bit stream exhausted");
  }
  const int zeros = __builtin_clzll(w);  // w != 0, so 0..63
  const size_t total = 2 * static_cast<size_t>(zeros) + 1;
  if (total <= 64 && reader->HasBits(total)) {
    // Whole code inside the window: bits [zeros, 2*zeros] are
    // 1 followed by the mantissa, i.e. the value itself.
    *n = w >> (64 - total);
    reader->Consume(total);
    return Status::OK();
  }
  // Code straddles the window or is truncated: the unary prefix and
  // stop bit are inside it (the masked window put the stop bit before
  // the stream end), the mantissa read is bounds-checked.
  reader->Consume(static_cast<size_t>(zeros) + 1);
  uint64_t rest = 0;
  GREPAIR_RETURN_IF_ERROR(reader->ReadBits(zeros, &rest));
  *n = (1ull << zeros) | rest;
  return Status::OK();
}

Status EliasDeltaDecodeSlow(const uint8_t* data, size_t bit_count,
                            size_t* pos, uint64_t* n) {
  BitReader reader(data, bit_count);
  reader.Consume(*pos);
  Status status = reader.scalar() ? EliasDeltaDecodeScalar(&reader, n)
                                  : DeltaDecodeWords(&reader, n);
  *pos = reader.position();
  return status;
}

int EliasGammaLength(uint64_t n) {
  if (n == 0) return 0;  // no code exists; mirror the encoder's no-op
  return 2 * BitLength(n) - 1;
}

int EliasDeltaLength(uint64_t n) {
  if (n == 0) return 0;  // no code exists; mirror the encoder's no-op
  int len = BitLength(n);
  return EliasGammaLength(static_cast<uint64_t>(len)) + len - 1;
}

}  // namespace grepair
