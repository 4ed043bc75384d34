#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "compression/bitpack.h"
#include "compression/dictionary.h"
#include "compression/frame_of_reference.h"
#include "util/rng.h"

namespace casper {
namespace {

TEST(BitPack, RoundTripAllWidths) {
  Rng rng(1);
  for (unsigned width = 0; width <= 64; width += (width < 8 ? 1 : 7)) {
    const size_t n = 257;  // crosses word boundaries at every width
    BitPackedArray arr(n, width);
    std::vector<uint64_t> expect(n);
    const uint64_t mask =
        width == 0 ? 0 : (width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1));
    for (size_t i = 0; i < n; ++i) {
      expect[i] = rng.Next() & mask;
      arr.Set(i, expect[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(arr.Get(i), expect[i]) << "width=" << width << " i=" << i;
    }
  }
}

// The bulk pack the encoders use must lay down exactly the words Set()
// produces, at every width (0, 64, and the word-straddling ones) and at
// counts that end mid-word, on a word boundary, and at zero.
TEST(BitPack, BulkPackMatchesSetWordForWord) {
  Rng rng(4);
  for (unsigned width = 0; width <= 64; ++width) {
    const uint64_t mask =
        width == 0 ? 0 : (width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1));
    for (const size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                           size_t{65}, size_t{1000}}) {
      std::vector<uint64_t> values(n);
      for (size_t i = 0; i < n; ++i) {
        // Every third value is the width's maximum, the rest random.
        values[i] = i % 3 == 0 ? mask : rng.Next() & mask;
      }
      BitPackedArray by_set(n, width);
      for (size_t i = 0; i < n; ++i) by_set.Set(i, values[i]);
      const BitPackedArray bulk = BitPackedArray::Pack(
          values.data(), n, width, mask, [](uint64_t v) { return v; });
      ASSERT_EQ(bulk.num_words(), by_set.num_words());
      for (size_t w = 0; w < bulk.num_words(); ++w) {
        ASSERT_EQ(bulk.words()[w], by_set.words()[w])
            << "width=" << width << " n=" << n << " word=" << w;
      }
    }
  }
}

// FoR frames and dictionary codes go through the bulk pack; their words
// must match a Set()-built array of the same offsets / codes.
TEST(BitPack, CodecsPackLikeSet) {
  Rng rng(5);
  std::vector<Value> values;
  for (int i = 0; i < 3000; ++i) values.push_back(rng.Range(-500, 70000));
  const FrameOfReferenceColumn forc(values, std::vector<size_t>{1000, 1337, 663});
  for (size_t f = 0; f < forc.num_frames(); ++f) {
    const BitPackedArray& got = forc.frame_offsets(f);
    BitPackedArray want(got.size(), got.bit_width());
    for (size_t i = 0; i < got.size(); ++i) {
      want.Set(i, static_cast<uint64_t>(values[forc.frame_begin(f) + i]) -
                      static_cast<uint64_t>(forc.frame_reference(f)));
    }
    ASSERT_TRUE(std::equal(got.words(), got.words() + got.num_words(),
                           want.words()))
        << "frame " << f;
  }
  std::vector<Value> low;
  for (int i = 0; i < 3000; ++i) low.push_back(rng.Range(0, 40) * 1000);
  const DictionaryColumn dict(low);
  std::vector<Value> sorted = low;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  BitPackedArray want(low.size(), dict.bit_width());
  for (size_t i = 0; i < low.size(); ++i) {
    want.Set(i, static_cast<uint64_t>(
                    std::lower_bound(sorted.begin(), sorted.end(), low[i]) -
                    sorted.begin()));
  }
  ASSERT_TRUE(std::equal(want.words(), want.words() + want.num_words(),
                         dict.words()));
}

TEST(BitPack, OverwriteIsClean) {
  BitPackedArray arr(10, 7);
  arr.Set(3, 127);
  arr.Set(3, 1);
  EXPECT_EQ(arr.Get(3), 1u);
  EXPECT_EQ(arr.Get(2), 0u);
  EXPECT_EQ(arr.Get(4), 0u);
}

TEST(Dictionary, RoundTrip) {
  Rng rng(2);
  std::vector<Value> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.Range(0, 99));  // 100 distinct
  DictionaryColumn dict(values);
  EXPECT_LE(dict.dictionary_size(), 100u);
  EXPECT_LE(dict.bit_width(), 7u);
  EXPECT_EQ(dict.DecodeAll(), values);
}

TEST(Dictionary, LowCardinalityCompressesHard) {
  // 8-byte values with 11 distinct codes -> 4 bits/value: >10x.
  std::vector<Value> values;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) values.push_back(rng.Range(0, 10));
  DictionaryColumn dict(values);
  EXPECT_GT(dict.CompressionRatio(), 10.0);
}

TEST(Dictionary, RangePredicatesOnCodes) {
  std::vector<Value> values = {5, 1, 9, 5, 3, 7, 1, 9, 5};
  DictionaryColumn dict(values);
  EXPECT_EQ(dict.CountRange(1, 6), 6u);   // 1,1,3,5,5,5
  EXPECT_EQ(dict.CountRange(6, 100), 3u); // 7,9,9
  EXPECT_EQ(dict.CountRange(2, 3), 0u);   // value absent from dictionary
  std::vector<uint32_t> pos;
  dict.CollectEqual(5, &pos);
  EXPECT_EQ(pos, (std::vector<uint32_t>{0, 3, 8}));
  pos.clear();
  dict.CollectEqual(4, &pos);
  EXPECT_TRUE(pos.empty());
}

// Dictionary codec fuzz (scan-on-compressed ISSUE distributions): duplicate-
// heavy, domain-edge, and single-value columns must round-trip exactly, and
// the code-domain predicates (CountRange / CollectEqual, which run on the
// packed words) must match a brute-force value-space reference.
TEST(Dictionary, RoundTripFuzz) {
  Rng rng(20260808);
  for (int iter = 0; iter < 120; ++iter) {
    const size_t n = 1 + rng.Below(800);
    std::vector<Value> values;
    values.reserve(n);
    switch (iter % 3) {
      case 0:  // duplicate-heavy: few distinct values, wide apart
        for (size_t i = 0; i < n; ++i) {
          values.push_back(static_cast<Value>(rng.Below(9)) * 1000003 - 4000000);
        }
        break;
      case 1:  // domain edges spliced into a random column
        for (size_t i = 0; i < n; ++i) {
          const uint64_t pick = rng.Below(10);
          if (pick == 0) {
            values.push_back(kMinValue);
          } else if (pick == 1) {
            values.push_back(kMaxValue);
          } else {
            values.push_back(static_cast<Value>(rng.Below(100000)) - 50000);
          }
        }
        break;
      default:  // single value: bit width 0
        values.assign(n, static_cast<Value>(rng.Below(1u << 20)));
        break;
    }
    const DictionaryColumn dict(values);
    ASSERT_EQ(dict.DecodeAll(), values) << iter;
    for (int probe = 0; probe < 8; ++probe) {
      const size_t i = rng.Below(n);
      ASSERT_EQ(dict.Get(i), values[i]) << iter;
    }

    // Half-open range counts vs brute force, bounds around present values.
    const Value a = values[rng.Below(n)];
    const Value b = values[rng.Below(n)];
    const Value lo = std::min(a, b);
    const Value hi = std::max(a, b);  // may equal lo: empty half-open range
    uint64_t want = 0;
    for (const Value v : values) want += (lo <= v && v < hi) ? 1 : 0;
    ASSERT_EQ(dict.CountRange(lo, hi), want) << iter;

    // Equality positions for a present and an absent value.
    std::vector<uint32_t> got, want_pos;
    dict.CollectEqual(a, &got);
    for (size_t i = 0; i < n; ++i) {
      if (values[i] == a) want_pos.push_back(static_cast<uint32_t>(i));
    }
    ASSERT_EQ(got, want_pos) << iter;
    got.clear();
    dict.CollectEqual(kMaxValue - 12345, &got);  // (almost surely) absent
    want_pos.clear();
    for (size_t i = 0; i < n; ++i) {
      if (values[i] == kMaxValue - 12345) want_pos.push_back(static_cast<uint32_t>(i));
    }
    ASSERT_EQ(got, want_pos) << iter;
  }
}

TEST(FrameOfReference, RoundTrip) {
  Rng rng(4);
  std::vector<Value> values;
  Value base = 1000000;
  for (int i = 0; i < 10000; ++i) {
    base += rng.Range(0, 20);
    values.push_back(base);
  }
  FrameOfReferenceColumn col(values, size_t{256});
  EXPECT_EQ(col.DecodeAll(), values);
  for (size_t i : {size_t{0}, size_t{255}, size_t{256}, size_t{9999}}) {
    EXPECT_EQ(col.Get(i), values[i]);
  }
}

TEST(FrameOfReference, SortedDataCompressesWell) {
  std::vector<Value> values;
  for (Value v = 0; v < 100000; ++v) values.push_back(v * 3);  // dense sorted
  FrameOfReferenceColumn col(values, size_t{4096});
  // Each 4096-value frame spans ~12288 -> 14 bits vs 64: > 4x.
  EXPECT_GT(col.CompressionRatio(), 4.0);
  EXPECT_EQ(col.SumAll(), [] {
    int64_t s = 0;
    for (Value v = 0; v < 100000; ++v) s += v * 3;
    return s;
  }());
}

TEST(FrameOfReference, CountRangeWithZonemapSkipping) {
  std::vector<Value> values;
  for (Value v = 0; v < 1000; ++v) values.push_back(v);
  FrameOfReferenceColumn col(values, size_t{100});
  EXPECT_EQ(col.CountRange(250, 750), 500u);
  EXPECT_EQ(col.CountRange(-10, 2000), 1000u);
  EXPECT_EQ(col.CountRange(999, 1000), 1u);
  EXPECT_EQ(col.CountRange(1000, 2000), 0u);
}

TEST(FrameOfReference, PartitioningCompressionSynergy) {
  // Paper §6.2: finer partitions over queried ranges shrink per-frame value
  // spans, enabling better delta compression. Sorted data cut into more
  // frames must never need more bits per value.
  Rng rng(5);
  std::vector<Value> values;
  for (int i = 0; i < 65536; ++i) values.push_back(rng.Range(0, 1 << 20));
  std::sort(values.begin(), values.end());
  double prev_bits = 1e9;
  for (size_t frames : {1u, 4u, 16u, 64u, 256u}) {
    FrameOfReferenceColumn col(values, values.size() / frames);
    const double bits = col.MeanBitsPerValue();
    EXPECT_LE(bits, prev_bits + 1e-9) << frames;
    prev_bits = bits;
  }
  // And the effect is substantial end-to-end: 256 frames beat 1 frame.
  FrameOfReferenceColumn coarse(values, values.size());
  FrameOfReferenceColumn fine(values, values.size() / 256);
  EXPECT_LT(fine.MeanBitsPerValue(), coarse.MeanBitsPerValue() - 4.0);
}

TEST(FrameOfReference, ExplicitFrameSizesMatchPartitions) {
  std::vector<Value> values = {1, 2, 3, 100, 101, 5000};
  FrameOfReferenceColumn col(values, std::vector<size_t>{3, 2, 1});
  EXPECT_EQ(col.num_frames(), 3u);
  EXPECT_EQ(col.frame_bit_width(0), 2u);  // span 2
  EXPECT_EQ(col.frame_bit_width(1), 1u);  // span 1
  EXPECT_EQ(col.frame_bit_width(2), 0u);  // single value
  EXPECT_EQ(col.DecodeAll(), values);
}

}  // namespace
}  // namespace casper
