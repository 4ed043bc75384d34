#include "exec/scan_kernels.h"

namespace casper::kernels {

// --- Scalar reference implementations ---------------------------------------
// Written as branch-free accumulation over independent partial counters so
// any optimizing compiler autovectorizes them at the build's baseline ISA
// (SSE2 on stock x86-64). They are also the bit-exact reference for the
// equivalence suite: all sums wrap in 64 bits, which is associative, so any
// lane order produces the same result.

namespace scalar {

uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<uint64_t>(d[i] >= lo) & static_cast<uint64_t>(d[i] < hi);
    c1 += static_cast<uint64_t>(d[i + 1] >= lo) & static_cast<uint64_t>(d[i + 1] < hi);
    c2 += static_cast<uint64_t>(d[i + 2] >= lo) & static_cast<uint64_t>(d[i + 2] < hi);
    c3 += static_cast<uint64_t>(d[i + 3] >= lo) & static_cast<uint64_t>(d[i + 3] < hi);
  }
  uint64_t c = c0 + c1 + c2 + c3;
  for (; i < n; ++i) {
    c += static_cast<uint64_t>(d[i] >= lo) & static_cast<uint64_t>(d[i] < hi);
  }
  return c;
}

uint64_t CountEqual(const Value* d, size_t n, Value v) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<uint64_t>(d[i] == v);
    c1 += static_cast<uint64_t>(d[i + 1] == v);
    c2 += static_cast<uint64_t>(d[i + 2] == v);
    c3 += static_cast<uint64_t>(d[i + 3] == v);
  }
  uint64_t c = c0 + c1 + c2 + c3;
  for (; i < n; ++i) c += static_cast<uint64_t>(d[i] == v);
  return c;
}

int64_t SumInRange(const Value* d, size_t n, Value lo, Value hi) {
  // Mask-and-add: qualifying lanes contribute their value, others 0.
  // Unsigned accumulation keeps wraparound defined (UBSan-clean).
  uint64_t s0 = 0, s1 = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64_t m0 =
        (d[i] >= lo) & (d[i] < hi) ? ~uint64_t{0} : uint64_t{0};
    const uint64_t m1 =
        (d[i + 1] >= lo) & (d[i + 1] < hi) ? ~uint64_t{0} : uint64_t{0};
    s0 += static_cast<uint64_t>(d[i]) & m0;
    s1 += static_cast<uint64_t>(d[i + 1]) & m1;
  }
  uint64_t s = s0 + s1;
  for (; i < n; ++i) {
    const uint64_t m = (d[i] >= lo) & (d[i] < hi) ? ~uint64_t{0} : uint64_t{0};
    s += static_cast<uint64_t>(d[i]) & m;
  }
  return static_cast<int64_t>(s);
}

int64_t SumValues(const Value* d, size_t n) {
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += static_cast<uint64_t>(d[i]);
    s1 += static_cast<uint64_t>(d[i + 1]);
    s2 += static_cast<uint64_t>(d[i + 2]);
    s3 += static_cast<uint64_t>(d[i + 3]);
  }
  uint64_t s = s0 + s1 + s2 + s3;
  for (; i < n; ++i) s += static_cast<uint64_t>(d[i]);
  return static_cast<int64_t>(s);
}

int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi) {
  uint64_t s0 = 0, s1 = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64_t m0 =
        (keys[i] >= lo) & (keys[i] < hi) ? ~uint64_t{0} : uint64_t{0};
    const uint64_t m1 =
        (keys[i + 1] >= lo) & (keys[i + 1] < hi) ? ~uint64_t{0} : uint64_t{0};
    s0 += static_cast<uint64_t>(payload[i]) & m0;
    s1 += static_cast<uint64_t>(payload[i + 1]) & m1;
  }
  uint64_t s = s0 + s1;
  for (; i < n; ++i) {
    const uint64_t m =
        (keys[i] >= lo) & (keys[i] < hi) ? ~uint64_t{0} : uint64_t{0};
    s += static_cast<uint64_t>(payload[i]) & m;
  }
  return static_cast<int64_t>(s);
}

int64_t SumPayload(const Payload* payload, size_t n) {
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += payload[i];
    s1 += payload[i + 1];
    s2 += payload[i + 2];
    s3 += payload[i + 3];
  }
  uint64_t s = s0 + s1 + s2 + s3;
  for (; i < n; ++i) s += payload[i];
  return static_cast<int64_t>(s);
}

size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] < hi);
  }
  return k;
}

size_t FilterSlotsEqual(const Value* d, size_t n, Value v, uint32_t base,
                        uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] == v);
  }
  return k;
}

size_t FindFirstEqual(const Value* d, size_t n, Value v) {
  // Block the early-exit check so the inner loop stays branch-light: scan 8
  // at a time accumulating a match flag, then pinpoint within the block.
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    int any = 0;
    for (size_t j = 0; j < 8; ++j) any |= (d[i + j] == v);
    if (any) {
      for (size_t j = 0; j < 8; ++j) {
        if (d[i + j] == v) return i + j;
      }
    }
  }
  for (; i < n; ++i) {
    if (d[i] == v) return i;
  }
  return n;
}

size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out) {
  // Branch-free refine. Reading the slot before writing out[k] keeps the
  // in-place (out == slots) case correct: k never exceeds i.
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = slots[i];
    const Payload v = col[s];
    out[k] = s;
    k += static_cast<size_t>(v >= lo) & static_cast<size_t>(v <= hi);
  }
  return k;
}

uint64_t SumBytes(const uint8_t* d, size_t n) {
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += d[i];
    s1 += d[i + 1];
    s2 += d[i + 2];
    s3 += d[i + 3];
  }
  uint64_t s = s0 + s1 + s2 + s3;
  for (; i < n; ++i) s += d[i];
  return s;
}

// CountU64InRange and SumIndexedU64 run on the 64-element unpack buffers of
// the packed kernels below. Their unrolled loops stop at n rounded down to a
// multiple of 4, so once a full block (n == 64) is inlined the compiler sees
// the main loop end exactly at the block bound and the tail loop run zero
// times.
uint64_t CountU64InRange(const uint64_t* d, size_t n, uint64_t lo, uint64_t hi) {
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    c0 += static_cast<uint64_t>(d[i] >= lo) & static_cast<uint64_t>(d[i] < hi);
    c1 += static_cast<uint64_t>(d[i + 1] >= lo) & static_cast<uint64_t>(d[i + 1] < hi);
    c2 += static_cast<uint64_t>(d[i + 2] >= lo) & static_cast<uint64_t>(d[i + 2] < hi);
    c3 += static_cast<uint64_t>(d[i + 3] >= lo) & static_cast<uint64_t>(d[i + 3] < hi);
  }
  uint64_t c = c0 + c1 + c2 + c3;
  for (; i < n; ++i) {
    c += static_cast<uint64_t>(d[i] >= lo) & static_cast<uint64_t>(d[i] < hi);
  }
  return c;
}

size_t FilterSlotsU64InClosedRange(const uint64_t* d, size_t n, uint64_t lo,
                                   uint64_t hi, uint32_t base, uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] <= hi);
  }
  return k;
}

size_t FilterSlotsU32InClosedRange(const uint32_t* d, size_t n, uint32_t lo,
                                   uint32_t hi, uint32_t base, uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += static_cast<size_t>(d[i] >= lo) & static_cast<size_t>(d[i] <= hi);
  }
  return k;
}

uint64_t SumIndexedU64(const uint64_t* lut, const uint64_t* idx, size_t n) {
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  const size_t n4 = n & ~size_t{3};
  for (; i < n4; i += 4) {
    s0 += lut[idx[i]];
    s1 += lut[idx[i + 1]];
    s2 += lut[idx[i + 2]];
    s3 += lut[idx[i + 3]];
  }
  uint64_t s = s0 + s1 + s2 + s3;
  for (; i < n; ++i) s += lut[idx[i]];
  return s;
}

}  // namespace scalar

// --- Runtime dispatch --------------------------------------------------------
// One CPU probe at process start; every entry point then branches on a
// cached bool. When the AVX2 translation unit is compiled out (CASPER_AVX2
// off, or a non-x86 target), dispatch degrades to the scalar kernels with no
// runtime probe at all — a prebuilt binary can never hit an illegal
// instruction.

namespace {

bool DetectAvx2() {
#if defined(CASPER_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const bool g_have_avx2 = DetectAvx2();

}  // namespace

bool HaveAvx2() { return g_have_avx2; }

#if defined(CASPER_AVX2)
#define CASPER_DISPATCH(fn, ...) \
  (g_have_avx2 ? avx2::fn(__VA_ARGS__) : scalar::fn(__VA_ARGS__))
#else
#define CASPER_DISPATCH(fn, ...) scalar::fn(__VA_ARGS__)
#endif

uint64_t CountInRange(const Value* d, size_t n, Value lo, Value hi) {
  return CASPER_DISPATCH(CountInRange, d, n, lo, hi);
}

uint64_t CountEqual(const Value* d, size_t n, Value v) {
  return CASPER_DISPATCH(CountEqual, d, n, v);
}

int64_t SumInRange(const Value* d, size_t n, Value lo, Value hi) {
  return CASPER_DISPATCH(SumInRange, d, n, lo, hi);
}

int64_t SumValues(const Value* d, size_t n) {
  return CASPER_DISPATCH(SumValues, d, n);
}

int64_t SumPayloadInRange(const Value* keys, const Payload* payload, size_t n,
                          Value lo, Value hi) {
  return CASPER_DISPATCH(SumPayloadInRange, keys, payload, n, lo, hi);
}

int64_t SumPayload(const Payload* payload, size_t n) {
  return CASPER_DISPATCH(SumPayload, payload, n);
}

size_t FilterSlots(const Value* d, size_t n, Value lo, Value hi, uint32_t base,
                   uint32_t* out) {
  return CASPER_DISPATCH(FilterSlots, d, n, lo, hi, base, out);
}

size_t FilterSlotsEqual(const Value* d, size_t n, Value v, uint32_t base,
                        uint32_t* out) {
  return CASPER_DISPATCH(FilterSlotsEqual, d, n, v, base, out);
}

size_t FindFirstEqual(const Value* d, size_t n, Value v) {
  return CASPER_DISPATCH(FindFirstEqual, d, n, v);
}

size_t FilterPayloadInRange(const Payload* col, const uint32_t* slots, size_t n,
                            Payload lo, Payload hi, uint32_t* out) {
  return CASPER_DISPATCH(FilterPayloadInRange, col, slots, n, lo, hi, out);
}

uint64_t SumBytes(const uint8_t* d, size_t n) {
  return CASPER_DISPATCH(SumBytes, d, n);
}

uint64_t CountU64InRange(const uint64_t* d, size_t n, uint64_t lo, uint64_t hi) {
  return CASPER_DISPATCH(CountU64InRange, d, n, lo, hi);
}

size_t FilterSlotsU64InClosedRange(const uint64_t* d, size_t n, uint64_t lo,
                                   uint64_t hi, uint32_t base, uint32_t* out) {
  return CASPER_DISPATCH(FilterSlotsU64InClosedRange, d, n, lo, hi, base, out);
}

size_t FilterSlotsU32InClosedRange(const uint32_t* d, size_t n, uint32_t lo,
                                   uint32_t hi, uint32_t base, uint32_t* out) {
  return CASPER_DISPATCH(FilterSlotsU32InClosedRange, d, n, lo, hi, base, out);
}

uint64_t SumIndexedU64(const uint64_t* lut, const uint64_t* idx, size_t n) {
  return CASPER_DISPATCH(SumIndexedU64, lut, idx, n);
}

#undef CASPER_DISPATCH

// --- Scan-on-compressed ------------------------------------------------------
// Bit-packed blocks are unpacked 64 values at a time into a stack buffer and
// fed to the vector predicate — the column is never materialized, and the
// working set stays register/L1-resident regardless of frame size.

namespace {

constexpr size_t kUnpackBlock = 64;

/// Unpacks packed elements [begin, begin + n) (n <= kUnpackBlock) into out —
/// the generic any-alignment path (per-element word/offset arithmetic). The
/// lane type T is uint64_t for the generic kernels and uint32_t for payload
/// widths <= 32, where narrower lanes double the SIMD throughput downstream.
template <typename T>
inline void UnpackBlock(const uint64_t* words, size_t begin, size_t n,
                        unsigned width, T* out) {
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  size_t bit = begin * width;
  for (size_t i = 0; i < n; ++i, bit += width) {
    const size_t word = bit >> 6;
    const unsigned offset = static_cast<unsigned>(bit & 63);
    uint64_t v = words[word] >> offset;
    if (offset + width > 64) v |= words[word + 1] << (64 - offset);
    out[i] = static_cast<T>(v & mask);
  }
}

/// Unpacks one 64-element-ALIGNED block (64 elements = W words exactly) with
/// the bit width known at compile time: the loop fully unrolls, every shift
/// becomes an immediate, and the word-straddle test constant-folds per lane —
/// the classic per-width unpacker that makes scan-on-compressed competitive
/// with flat-array kernels on cache-resident data.
template <unsigned W, typename T>
inline void Unpack64Fixed(const uint64_t* w, T* out) {
  constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
  unsigned bit = 0;
  for (unsigned i = 0; i < 64; ++i, bit += W) {
    const unsigned word = bit >> 6;
    const unsigned offset = bit & 63;
    uint64_t v = w[word] >> offset;
    if (offset + W > 64) v |= w[word + 1] << (64 - offset);
    out[i] = static_cast<T>(v & kMask);
  }
}

/// Fast unpack of the aligned 64-element block starting at element
/// `block64 * 64` (payload widths are <= 32; wider falls back to generic).
template <typename T>
inline void Unpack64(const uint64_t* words, size_t block64, unsigned width,
                     T* out) {
  const uint64_t* w = words + block64 * width;
  switch (width) {
    // clang-format off
    case 1:  Unpack64Fixed<1>(w, out); return;
    case 2:  Unpack64Fixed<2>(w, out); return;
    case 3:  Unpack64Fixed<3>(w, out); return;
    case 4:  Unpack64Fixed<4>(w, out); return;
    case 5:  Unpack64Fixed<5>(w, out); return;
    case 6:  Unpack64Fixed<6>(w, out); return;
    case 7:  Unpack64Fixed<7>(w, out); return;
    case 8:  Unpack64Fixed<8>(w, out); return;
    case 9:  Unpack64Fixed<9>(w, out); return;
    case 10: Unpack64Fixed<10>(w, out); return;
    case 11: Unpack64Fixed<11>(w, out); return;
    case 12: Unpack64Fixed<12>(w, out); return;
    case 13: Unpack64Fixed<13>(w, out); return;
    case 14: Unpack64Fixed<14>(w, out); return;
    case 15: Unpack64Fixed<15>(w, out); return;
    case 16: Unpack64Fixed<16>(w, out); return;
    case 17: Unpack64Fixed<17>(w, out); return;
    case 18: Unpack64Fixed<18>(w, out); return;
    case 19: Unpack64Fixed<19>(w, out); return;
    case 20: Unpack64Fixed<20>(w, out); return;
    case 21: Unpack64Fixed<21>(w, out); return;
    case 22: Unpack64Fixed<22>(w, out); return;
    case 23: Unpack64Fixed<23>(w, out); return;
    case 24: Unpack64Fixed<24>(w, out); return;
    case 25: Unpack64Fixed<25>(w, out); return;
    case 26: Unpack64Fixed<26>(w, out); return;
    case 27: Unpack64Fixed<27>(w, out); return;
    case 28: Unpack64Fixed<28>(w, out); return;
    case 29: Unpack64Fixed<29>(w, out); return;
    case 30: Unpack64Fixed<30>(w, out); return;
    case 31: Unpack64Fixed<31>(w, out); return;
    case 32: Unpack64Fixed<32>(w, out); return;
    // clang-format on
    default:
      UnpackBlock(words, block64 * 64, 64, width, out);
      return;
  }
}

/// Drives fn(buf, count, rel_off) over [begin, end) in blocks of up to 64
/// unpacked elements: a generic head up to the 64-element alignment
/// boundary, fixed-width fast blocks through the middle, generic tail.
template <typename T = uint64_t, typename Fn>
inline void ForEachUnpackedBlock(const uint64_t* words, size_t begin,
                                 size_t end, unsigned width, Fn&& fn) {
  T buf[kUnpackBlock];
  const size_t n = end - begin;
  size_t off = 0;
  const size_t head = std::min(n, (64 - (begin & 63)) & 63);
  if (head > 0) {
    UnpackBlock(words, begin, head, width, buf);
    fn(buf, head, size_t{0});
    off = head;
  }
  while (off + kUnpackBlock <= n) {
    Unpack64(words, (begin + off) >> 6, width, buf);
    fn(buf, kUnpackBlock, off);
    off += kUnpackBlock;
  }
  if (off < n) {
    UnpackBlock(words, begin + off, n - off, width, buf);
    fn(buf, n - off, off);
  }
}

}  // namespace

uint64_t CountPackedInRange(const uint64_t* words, size_t elem_begin,
                            size_t elem_end, unsigned width, uint64_t olo,
                            uint64_t ohi) {
  if (elem_begin >= elem_end || olo >= ohi) return 0;
  const size_t n = elem_end - elem_begin;
  if (width == 0) return olo == 0 ? n : 0;  // every element unpacks to 0
  uint64_t count = 0;
  ForEachUnpackedBlock(words, elem_begin, elem_end, width,
                       [&](const uint64_t* buf, size_t m, size_t) {
                         count += CountU64InRange(buf, m, olo, ohi);
                       });
  return count;
}

uint64_t SumPacked(const uint64_t* words, size_t elem_begin, size_t elem_end,
                   unsigned width) {
  if (elem_begin >= elem_end || width == 0) return 0;
  uint64_t sum = 0;
  ForEachUnpackedBlock(words, elem_begin, elem_end, width,
                       [&](const uint64_t* buf, size_t m, size_t) {
                         for (size_t i = 0; i < m; ++i) sum += buf[i];
                       });
  return sum;
}

// --- Packed payload kernels --------------------------------------------------
// Same block-unpack structure as the key-side kernels above, but in payload
// space: FoR runs carry their reference into the sum, dictionary runs sum
// through the decoded lut, and the filters emit slot lists directly from the
// packed lanes (closed-range compares, matching the closed payload
// predicates of ScanSpec).

namespace {

/// Random-access unpack of one packed element (the slot-list refine path).
inline uint64_t PackedAt(const uint64_t* words, unsigned width, size_t i) {
  if (width == 0) return 0;
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  const size_t bit = i * width;
  const size_t word = bit >> 6;
  const unsigned offset = static_cast<unsigned>(bit & 63);
  uint64_t v = words[word] >> offset;
  if (offset + width > 64) v |= words[word + 1] << (64 - offset);
  return v & mask;
}

}  // namespace

uint64_t SumPackedPayload(const uint64_t* words, size_t elem_begin,
                          size_t elem_end, unsigned width, uint64_t base) {
  if (elem_begin >= elem_end) return 0;
  const uint64_t n = static_cast<uint64_t>(elem_end - elem_begin);
  return base * n + SumPacked(words, elem_begin, elem_end, width);
}

uint64_t SumPackedLookup(const uint64_t* words, size_t elem_begin,
                         size_t elem_end, unsigned width, const uint64_t* lut) {
  if (elem_begin >= elem_end) return 0;
  const size_t n = elem_end - elem_begin;
  if (width == 0) return static_cast<uint64_t>(n) * lut[0];
  uint64_t sum = 0;
  ForEachUnpackedBlock(words, elem_begin, elem_end, width,
                       [&](const uint64_t* buf, size_t m, size_t) {
                         sum += SumIndexedU64(lut, buf, m);
                       });
  return sum;
}

size_t FilterPackedPayloadInRange(const uint64_t* words, size_t elem_begin,
                                  size_t elem_end, unsigned width, uint64_t plo,
                                  uint64_t phi, uint32_t slot_base,
                                  uint32_t* out) {
  if (elem_begin >= elem_end || plo > phi) return 0;
  const size_t n = elem_end - elem_begin;
  if (width == 0) {
    // Every element unpacks to 0: all qualify iff the range contains 0.
    if (plo != 0) return 0;
    for (size_t i = 0; i < n; ++i) out[i] = slot_base + static_cast<uint32_t>(i);
    return n;
  }
  size_t k = 0;
  if (width <= 32) {
    // Packed payload lanes fit 32 bits, so unpack into u32 lanes and compare
    // with the 8-wide closed-range filter — double the throughput of the
    // 64-bit variant. Clamp the rewritten bounds into the lane domain first
    // (a phi above the width mask just means "no upper cut").
    const uint64_t mask = (uint64_t{1} << width) - 1;
    if (plo > mask) return 0;
    const uint32_t lo32 = static_cast<uint32_t>(plo);
    const uint32_t hi32 = static_cast<uint32_t>(phi < mask ? phi : mask);
    ForEachUnpackedBlock<uint32_t>(
        words, elem_begin, elem_end, width,
        [&](const uint32_t* buf, size_t m, size_t off) {
          k += FilterSlotsU32InClosedRange(
              buf, m, lo32, hi32, slot_base + static_cast<uint32_t>(off),
              out + k);
        });
    return k;
  }
  ForEachUnpackedBlock(
      words, elem_begin, elem_end, width,
      [&](const uint64_t* buf, size_t m, size_t off) {
        k += FilterSlotsU64InClosedRange(
            buf, m, plo, phi, slot_base + static_cast<uint32_t>(off), out + k);
      });
  return k;
}

size_t RefinePackedPayloadInRange(const uint64_t* words, unsigned width,
                                  const uint32_t* slots, size_t n,
                                  int64_t slot_bias, uint64_t plo, uint64_t phi,
                                  uint32_t* out) {
  if (plo > phi) return 0;
  // Branch-free, in-place safe (reads slots[i] before writing out[k]).
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = slots[i];
    const uint64_t v = PackedAt(
        words, width, static_cast<size_t>(static_cast<int64_t>(s) + slot_bias));
    out[k] = s;
    k += static_cast<size_t>(v >= plo) & static_cast<size_t>(v <= phi);
  }
  return k;
}

}  // namespace casper::kernels
