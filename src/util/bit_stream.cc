#include "src/util/bit_stream.h"

namespace grepair {

uint64_t BitReader::PeekAt(const uint8_t* data, size_t bit_count,
                           size_t pos) {
  const size_t avail = pos >= bit_count ? 0 : bit_count - pos;
  if (avail == 0) return 0;
  const size_t byte_pos = pos >> 3;
  const int bit_off = static_cast<int>(pos & 7);
  const size_t total_bytes = (bit_count + 7) >> 3;
  uint64_t hi;
  if (byte_pos + 8 <= total_bytes) {
    hi = LoadBigEndian64(data + byte_pos);
  } else {
    hi = 0;
    for (size_t i = byte_pos; i < total_bytes; ++i) {
      hi |= static_cast<uint64_t>(data[i]) << (56 - 8 * (i - byte_pos));
    }
  }
  uint64_t w = hi;
  if (bit_off != 0) {
    w = hi << bit_off;
    if (byte_pos + 8 < total_bytes) {
      w |= static_cast<uint64_t>(data[byte_pos + 8]) >> (8 - bit_off);
    }
  }
  if (avail < 64) w &= ~0ull << (64 - avail);
  return w;
}

Status BitReader::ReadBitsAt(const uint8_t* data, size_t bit_count,
                             size_t* pos, int num_bits, uint64_t* value) {
  const size_t n = static_cast<size_t>(num_bits);
  if (*pos > bit_count || n > bit_count - *pos) {
    return Status::OutOfRange("bit stream exhausted");
  }
  uint64_t v = 0;
  for (size_t p = *pos; p < *pos + n; ++p) {
    v = (v << 1) | ((data[p >> 3] >> (7 - (p & 7))) & 1u);
  }
  *value = v;
  *pos += n;
  return Status::OK();
}

uint64_t BitReader::CountOnesAt(const uint8_t* data, size_t pos, size_t n) {
  if (n == 0) return 0;
  // A count does not care about bit order, so the bytes strictly
  // between the first and the last go eight at a time as they lie.
  const size_t end = pos + n;
  const size_t first = pos >> 3;
  const size_t last = (end - 1) >> 3;
  const uint64_t head = data[first] & (0xFFu >> (pos & 7));
  const uint64_t tail = data[last] & (0xFF00u >> (1 + ((end - 1) & 7)));
  if (first == last) return PopCount(head & tail);
  uint64_t ones = PopCount(head) + PopCount(tail);
  size_t i = first + 1;
  for (; i + 8 <= last; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    ones += PopCount(word);
  }
  for (; i < last; ++i) ones += PopCount(data[i]);
  return ones;
}

}  // namespace grepair
