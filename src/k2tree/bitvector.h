// Bit vector with constant-time rank support.
//
// Substrate of the k^2-tree (k2tree.h): point queries navigate from an
// internal node to its children with rank1 over the tree bitmap, while
// enumeration walks the words directly and needs no directory. We use
// a two-level directory (512-bit superblocks, 64-bit words) giving O(1)
// rank with ~6% space overhead, in the spirit of the rank structures
// used by Brisaboa et al.'s implementation.

#ifndef GREPAIR_K2TREE_BITVECTOR_H_
#define GREPAIR_K2TREE_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace grepair {

/// \brief Append-built bit vector with O(1) rank after Finalize().
class RankBitVector {
 public:
  RankBitVector() = default;

  /// \brief Appends one bit.
  void PushBack(bool bit) {
    size_t word = size_ / 64;
    if (word >= words_.size()) words_.push_back(0);
    if (bit) words_[word] |= 1ull << (size_ % 64);
    ++size_;
  }

  /// \brief Appends `nbits` (0..64) bits taken MSB-first from `word`:
  /// the first appended bit is bit 63. This is the word-at-a-time
  /// deserialization path — a 64-bit stream chunk lands as one
  /// bit-reversal plus at most two word writes instead of one PushBack
  /// per bit, whatever the alignment and length.
  void PushWord(uint64_t word, size_t nbits) {
    if (nbits == 0) return;
    uint64_t bits = ReverseBits64(word);
    if (nbits < 64) bits &= (1ull << nbits) - 1;
    const size_t offset = size_ % 64;
    if (offset == 0) {
      words_.push_back(bits);
    } else {
      words_.back() |= bits << offset;
      if (offset + nbits > 64) words_.push_back(bits >> (64 - offset));
    }
    size_ += nbits;
  }

  /// \brief Preallocates room for `nbits` bits in total.
  void Reserve(size_t nbits) { words_.reserve((nbits + 63) / 64); }

  /// \brief Random access.
  bool Get(size_t i) const { return (words_[i / 64] >> (i % 64)) & 1u; }

  size_t size() const { return size_; }

  /// \brief Number of set bits.
  size_t num_ones() const { return total_ones_; }

  /// \brief Builds the rank directory; call once after the last PushBack.
  void Finalize();

  /// \brief Number of set bits in positions [0, i). Requires Finalize().
  size_t Rank1(size_t i) const;

  /// \brief Approximate heap footprint in bytes (bits + directory).
  size_t MemoryBytes() const {
    return words_.size() * 8 + super_ranks_.size() * 8;
  }

  const std::vector<uint64_t>& words() const { return words_; }

  /// \brief Rebuilds from raw words (deserialization path).
  static RankBitVector FromWords(std::vector<uint64_t> words, size_t size);

 private:
  // Maps a stream-order (MSB-first) chunk onto the LSB-first internal
  // packing: swap adjacent bits, pairs, nibbles, then bytes.
  static uint64_t ReverseBits64(uint64_t v) {
    v = ((v >> 1) & 0x5555555555555555ull) |
        ((v & 0x5555555555555555ull) << 1);
    v = ((v >> 2) & 0x3333333333333333ull) |
        ((v & 0x3333333333333333ull) << 2);
    v = ((v >> 4) & 0x0F0F0F0F0F0F0F0Full) |
        ((v & 0x0F0F0F0F0F0F0F0Full) << 4);
    return __builtin_bswap64(v);
  }

  std::vector<uint64_t> words_;
  std::vector<uint64_t> super_ranks_;  // ones before each 8-word superblock
  size_t size_ = 0;
  size_t total_ones_ = 0;
};

}  // namespace grepair

#endif  // GREPAIR_K2TREE_BITVECTOR_H_
