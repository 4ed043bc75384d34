// Fuzz suite for the packed payload column (compression/packed_column.h) and
// the per-column encoding advisor (model/encoding_advisor.h): round trips on
// duplicate-heavy / u32-edge / single-value distributions for both codecs,
// predicate rewriting checked against a brute-force value-space reference,
// the prefix-sum SumRows fast path checked against plain accumulation on
// random row windows, the bitmap distinct count against the sort, and the
// table's per-column chunk encodings (built only for referenced columns,
// extended copy-on-write, identical to an all-columns build). CI runs this
// under ASan+UBSan and TSan as well.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "compression/packed_column.h"
#include "exec/scan_kernels.h"
#include "exec/scan_spec.h"
#include "model/encoding_advisor.h"
#include "storage/table.h"
#include "util/rng.h"

namespace casper {
namespace {

constexpr Payload kPayMax = std::numeric_limits<Payload>::max();

// The three ISSUE distributions plus a mixed one; `mode` cycles through them.
std::vector<Payload> MakeValues(int mode, size_t n, Rng& rng) {
  std::vector<Payload> v;
  v.reserve(n);
  switch (mode % 4) {
    case 0:  // duplicate-heavy: a handful of spread-out distinct values
      for (size_t i = 0; i < n; ++i) {
        v.push_back(static_cast<Payload>(rng.Below(7)) * 1000003u + 17u);
      }
      break;
    case 1:  // u32 edges spliced into a random column
      for (size_t i = 0; i < n; ++i) {
        const uint64_t pick = rng.Below(10);
        if (pick == 0) {
          v.push_back(0);
        } else if (pick == 1) {
          v.push_back(kPayMax);
        } else if (pick == 2) {
          v.push_back(kPayMax - 1);
        } else {
          v.push_back(static_cast<Payload>(rng.Below(uint64_t{1} << 32)));
        }
      }
      break;
    case 2: {  // single value (bit width 0 in both codecs)
      const Payload only = static_cast<Payload>(rng.Below(uint64_t{1} << 32));
      v.assign(n, only);
      break;
    }
    default:  // narrow dense range (the FoR-friendly shape)
      for (size_t i = 0; i < n; ++i) {
        v.push_back(900000u + static_cast<Payload>(rng.Below(250)));
      }
      break;
  }
  return v;
}

TEST(PackedPayload, RoundTripFuzzBothCodecs) {
  Rng rng(20260808);
  for (int iter = 0; iter < 64; ++iter) {
    const size_t n = rng.Below(3000);
    const auto values = MakeValues(iter, n, rng);
    for (const auto enc :
         {PayloadEncoding::kFrameOfReference, PayloadEncoding::kDictionary}) {
      const auto col = PackedPayloadColumn::Encode(values, enc);
      if (n == 0) {
        ASSERT_EQ(col, nullptr) << iter;
        continue;
      }
      ASSERT_NE(col, nullptr) << iter;
      ASSERT_EQ(col->size(), n);
      ASSERT_EQ(col->encoding(), enc);
      ASSERT_EQ(col->DecodeAll(), values) << "iter=" << iter;
      for (int probe = 0; probe < 16; ++probe) {
        const size_t i = rng.Below(n);
        ASSERT_EQ(col->DecodeAt(i), values[i]) << "iter=" << iter << " i=" << i;
      }
      // The dictionary lut mirrors the decoded dictionary for the gather sum.
      if (enc == PayloadEncoding::kDictionary) {
        ASSERT_NE(col->lut(), nullptr);
      } else {
        ASSERT_EQ(col->lut(), nullptr);
      }
    }
  }
}

TEST(PackedPayload, RewritePredicateMatchesBruteForce) {
  Rng rng(77001);
  for (int iter = 0; iter < 96; ++iter) {
    const size_t n = 1 + rng.Below(2000);
    const auto values = MakeValues(iter, n, rng);
    // Closed bounds: usually near the data, sometimes at the u32 edges,
    // sometimes inverted (must veto).
    Payload lo, hi;
    const uint64_t pick = rng.Below(10);
    if (pick == 0) {
      lo = 0;
      hi = kPayMax;
    } else if (pick == 1) {
      lo = 5;  // inverted: lo > hi
      hi = 4;
    } else {
      const size_t a = rng.Below(n);
      const size_t b = rng.Below(n);
      lo = std::min(values[a], values[b]);
      hi = std::max(values[a], values[b]);
      if (rng.Below(2) == 0 && lo > 0) --lo;   // off-by-one edges around
      if (rng.Below(2) == 0 && hi < kPayMax) ++hi;  // present values
    }
    std::vector<uint32_t> want;
    for (size_t i = 0; i < n; ++i) {
      if (lo <= values[i] && values[i] <= hi) {
        want.push_back(static_cast<uint32_t>(i));
      }
    }
    for (const auto enc :
         {PayloadEncoding::kFrameOfReference, PayloadEncoding::kDictionary}) {
      const auto col = PackedPayloadColumn::Encode(values, enc);
      ASSERT_NE(col, nullptr);
      uint64_t plo = 0, phi = 0;
      if (!col->RewritePredicate(lo, hi, &plo, &phi)) {
        // Whole-run veto must only fire when no row can qualify.
        ASSERT_TRUE(want.empty()) << "iter=" << iter << " enc=" << (int)enc;
        continue;
      }
      std::vector<uint32_t> got(n);
      const size_t k = kernels::FilterPackedPayloadInRange(
          col->words(), 0, n, col->bit_width(), plo, phi, 0, got.data());
      got.resize(k);
      ASSERT_EQ(got, want) << "iter=" << iter << " enc=" << (int)enc;
    }
  }
}

TEST(PackedPayload, SumRowsMatchesAccumulateOnRandomWindows) {
  Rng rng(424242);
  // Big enough that windows span multiple kSumBlock prefix blocks, so both
  // the O(1) interior path and the packed edges get exercised.
  const size_t n = 3 * PackedPayloadColumn::kSumBlock + 37;
  for (int mode = 0; mode < 4; ++mode) {
    const auto values = MakeValues(mode, n, rng);
    for (const auto enc :
         {PayloadEncoding::kFrameOfReference, PayloadEncoding::kDictionary}) {
      const auto col = PackedPayloadColumn::Encode(values, enc);
      ASSERT_NE(col, nullptr);
      for (int iter = 0; iter < 48; ++iter) {
        const size_t b = rng.Below(n + 1);
        const size_t e = b + rng.Below(n + 1 - b);
        uint64_t want = 0;
        for (size_t i = b; i < e; ++i) want += values[i];
        ASSERT_EQ(col->SumRows(b, e), want)
            << "mode=" << mode << " enc=" << (int)enc << " [" << b << "," << e
            << ")";
      }
      // Clamped and empty windows.
      uint64_t all = 0;
      for (const Payload v : values) all += v;
      ASSERT_EQ(col->SumRows(0, n + 999), all);
      ASSERT_EQ(col->SumRows(5, 5), 0u);
    }
  }
}

// Predicated evaluation through the generic evaluator on a run long enough
// to cross the packed-filter bandwidth gate (~2M rows): with the encodings
// attached, the first predicate collapses into FilterPackedPayloadInRange and
// later ones refine via RefinePackedPayloadInRange, and the partial must be
// bit-identical to the flat-array evaluation of the same run.
TEST(PackedPayload, SpecEvalOnHugeRunMatchesFlat) {
  Rng rng(606060);
  const size_t n = (size_t{1} << 21) + 1237;
  std::vector<Value> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<Value>(i);
  std::vector<std::vector<Payload>> cols(2);
  cols[0] = MakeValues(0, n, rng);  // duplicate-heavy: dictionary
  cols[1] = MakeValues(3, n, rng);  // narrow dense: frame-of-reference
  std::vector<std::shared_ptr<const PackedPayloadColumn>> packed = {
      PackedPayloadColumn::Encode(cols[0], PayloadEncoding::kDictionary),
      PackedPayloadColumn::Encode(cols[1], PayloadEncoding::kFrameOfReference)};
  ASSERT_NE(packed[0], nullptr);
  ASSERT_NE(packed[1], nullptr);

  exec::SpecRows flat;
  flat.keys = keys.data();
  flat.n = n;
  flat.base = 0;
  flat.cols = &cols;
  flat.key_check = false;
  exec::SpecRows enc = flat;
  enc.packed = &packed;
  enc.packed_base = 0;

  ScanSpec spec = ScanSpec::Sum(0, static_cast<Value>(n), {0, 1});
  spec.predicates.push_back({0, 17u, 2000023u});         // hits some dict words
  spec.predicates.push_back({1, 900010u, 900200u});      // inside the FoR span
  const ScanPartial a = exec::EvalSpecRows(spec, flat);
  const ScanPartial b = exec::EvalSpecRows(spec, enc);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_GT(b.sum, 0u);

  // A predicate below every encoded value: the rewrite vetoes the whole run.
  ScanSpec veto = spec;
  veto.predicates[0] = {0, 0u, 5u};
  const ScanPartial av = exec::EvalSpecRows(veto, flat);
  const ScanPartial bv = exec::EvalSpecRows(veto, enc);
  EXPECT_EQ(av.sum, 0u);
  EXPECT_EQ(bv.sum, 0u);
}

TEST(EncodingAdvisor, PicksExpectedEncodings) {
  Rng rng(9);
  // Write-heavy columns stay raw no matter how compressible.
  {
    std::vector<Payload> v(10000, 42);
    auto p = ProfilePayloadValues(v);
    p.reads = 1;
    p.writes = 2;
    EXPECT_EQ(ChoosePayloadEncoding(p), PayloadEncoding::kRaw);
  }
  // Few distinct values spread over a wide range: dictionary wins.
  {
    std::vector<Payload> v;
    for (int i = 0; i < 10000; ++i) {
      v.push_back(static_cast<Payload>(rng.Below(7)) * 100000019u);
    }
    auto p = ProfilePayloadValues(v);
    p.reads = 1;
    EXPECT_EQ(ChoosePayloadEncoding(p), PayloadEncoding::kDictionary);
  }
  // Dense narrow range with many distinct values: FoR wins.
  {
    std::vector<Payload> v;
    for (int i = 0; i < 10000; ++i) {
      v.push_back(500000u + static_cast<Payload>(rng.Below(250)));
    }
    auto p = ProfilePayloadValues(v);
    p.reads = 1;
    EXPECT_EQ(ChoosePayloadEncoding(p), PayloadEncoding::kFrameOfReference);
  }
  // Wide random u32 data beats the >=2x payoff gate in neither codec: raw.
  {
    std::vector<Payload> v;
    for (int i = 0; i < 10000; ++i) {
      v.push_back(static_cast<Payload>(rng.Below(uint64_t{1} << 32)));
    }
    auto p = ProfilePayloadValues(v);
    p.reads = 1;
    EXPECT_EQ(ChoosePayloadEncoding(p), PayloadEncoding::kRaw);
    EXPECT_EQ(AdvisePayloadEncoding(v, /*reads=*/1, /*writes=*/0), nullptr);
  }
  // End to end: the advisor's chosen encoding round-trips and clears the
  // central mean-bits gate.
  {
    std::vector<Payload> v;
    for (int i = 0; i < 10000; ++i) {
      v.push_back(static_cast<Payload>(rng.Below(1000)));
    }
    const auto col = AdvisePayloadEncoding(v, /*reads=*/1, /*writes=*/0);
    ASSERT_NE(col, nullptr);
    EXPECT_LE(col->MeanBitsPerValue(), kMaxPayloadMeanBits);
    EXPECT_EQ(col->DecodeAll(), v);
  }
  // Empty column: nothing to encode.
  EXPECT_EQ(AdvisePayloadEncoding({}, /*reads=*/1, /*writes=*/0), nullptr);
}

// CountDistinct takes the bitmap path when (max - min) / 64 <= rows and
// sorts otherwise; both must count the same set. Random columns cover
// range == 0, ranges anchored at 0 and at UINT32_MAX, the exact path
// boundary on both sides, and wide columns that fall back to the sort.
TEST(EncodingAdvisor, CountDistinctBitmapMatchesSort) {
  Rng rng(131);
  auto sorted_count = [](std::vector<Payload> v) {
    std::sort(v.begin(), v.end());
    return static_cast<size_t>(std::unique(v.begin(), v.end()) - v.begin());
  };
  size_t bitmap_cases = 0;
  size_t sort_cases = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t n = 1 + rng.Below(2000);
    // [lo, lo + range] with both ends present.
    uint64_t range = 0;
    uint64_t lo = 0;
    switch (trial % 6) {
      case 0:  // a single value, at the u32 edges or anywhere
        lo = trial % 12 == 0 ? 0 : (trial % 18 == 0 ? kPayMax : rng.Below(uint64_t{1} << 32));
        break;
      case 1:  // anchored at 0, bitmap-sized
        range = rng.Below(64 * n + 64);
        break;
      case 2:  // anchored at UINT32_MAX, bitmap-sized
        range = rng.Below(64 * n + 64);
        lo = kPayMax - range;
        break;
      case 3:  // the last range the bitmap takes: range / 64 == n
        range = 64 * n + 63;
        lo = rng.Below((uint64_t{1} << 32) - range);
        break;
      case 4:  // the first range it refuses: range / 64 == n + 1
        range = 64 * (n + 1);
        lo = rng.Below((uint64_t{1} << 32) - range);
        break;
      default:  // the whole u32 domain: 0 and UINT32_MAX, sort fallback
        range = kPayMax;
        break;
    }
    std::vector<Payload> v(n);
    for (size_t i = 0; i < n; ++i) {
      // Duplicate-heavy half the time, so the counts are not just n.
      const uint64_t off = trial % 2 == 0 ? rng.Below(range + 1)
                                          : rng.Below(4) * (range / 3);
      v[i] = static_cast<Payload>(lo + std::min(off, range));
    }
    v[0] = static_cast<Payload>(lo);
    v[n - 1] = static_cast<Payload>(lo + range);
    const bool bitmap = range / 64 <= n;
    (bitmap ? bitmap_cases : sort_cases) += 1;
    const size_t want = sorted_count(v);
    ASSERT_EQ(CountDistinct(v.data(), n, static_cast<Payload>(lo),
                            static_cast<Payload>(lo + range)),
              want)
        << "trial " << trial << " n=" << n << " range=" << range;
    ASSERT_EQ(ProfilePayloadValues(v).distinct, want) << "trial " << trial;
  }
  EXPECT_GT(bitmap_cases, 300u);
  EXPECT_GT(sort_cases, 150u);
  EXPECT_EQ(CountDistinct(nullptr, 0, 0, 0), 0u);
}

// --- Per-column chunk encodings ---------------------------------------------

constexpr size_t kTableRows = 8192;
constexpr size_t kTableCols = 4;

// Payload columns shaped for each codec: 0 narrow dense (FoR), 1 few spread
// values (dictionary), 2 wide random (kept raw), 3 small range (FoR).
std::vector<std::vector<Payload>> MakeEncodingColumns() {
  Rng rng(2024);
  std::vector<std::vector<Payload>> cols(kTableCols,
                                         std::vector<Payload>(kTableRows));
  for (size_t i = 0; i < kTableRows; ++i) {
    cols[0][i] = 900000u + static_cast<Payload>(rng.Below(250));
    cols[1][i] = static_cast<Payload>(rng.Below(7)) * 100000019u;
    cols[2][i] = static_cast<Payload>(rng.Below(uint64_t{1} << 32));
    cols[3][i] = static_cast<Payload>(rng.Below(1000));
  }
  return cols;
}

// One 8192-row chunk (keys 0..8191) in 8 partitions.
PartitionedTable MakeEncodingTable() {
  std::vector<Value> keys(kTableRows);
  for (size_t i = 0; i < kTableRows; ++i) keys[i] = static_cast<Value>(i);
  PartitionedTable::ChunkLayoutSpec spec;
  spec.partition_sizes.assign(8, kTableRows / 8);
  PartitionedTable::Options opts;
  opts.chunk_values = kTableRows;
  return PartitionedTable::Build(std::move(keys), MakeEncodingColumns(), {spec},
                                 opts);
}

ScanSpec TestQ6() { return ScanSpec::Q6(100, 5000, 0u, 200000038u, 900125u); }

void ExpectSameColumn(const PackedPayloadColumn* a, const PackedPayloadColumn* b,
                      size_t col) {
  ASSERT_EQ(a == nullptr, b == nullptr) << "col " << col;
  if (a == nullptr) return;
  EXPECT_EQ(a->encoding(), b->encoding()) << "col " << col;
  EXPECT_EQ(a->base(), b->base()) << "col " << col;
  EXPECT_EQ(a->dictionary(), b->dictionary()) << "col " << col;
  const BitPackedArray& wa = a->packed_array();
  const BitPackedArray& wb = b->packed_array();
  ASSERT_EQ(wa.size(), wb.size()) << "col " << col;
  ASSERT_EQ(wa.bit_width(), wb.bit_width()) << "col " << col;
  EXPECT_TRUE(std::equal(wa.words(), wa.words() + wa.num_words(), wb.words()))
      << "col " << col;
}

// Counts alone build the key frame and no payload column; a Q6 then extends
// the snapshot copy-on-write with exactly its columns {0, 1, 2}, leaving the
// older snapshot untouched; memory counts built columns only; a write drops
// the whole snapshot.
TEST(PerColumnEncoding, CountBuildsKeysOnlyAndQ6ExtendsItsColumns) {
  PartitionedTable table = MakeEncodingTable();
  const PartitionedTable fresh = MakeEncodingTable();  // never builds
  const CompressedChunkCache& cache = table.compressed_cache();
  for (int i = 0; i < 8; ++i) ASSERT_EQ(table.CountRange(100, 5000), 4900u);
  const CompressedChunkCache::EncodingPtr keys_only = cache.Snapshot(0);
  ASSERT_NE(keys_only, nullptr);
  ASSERT_NE(keys_only->keys, nullptr);
  for (size_t c = 0; c < kTableCols; ++c) {
    EXPECT_FALSE(keys_only->Built(c)) << c;
    EXPECT_EQ(keys_only->packed(c), nullptr) << c;
  }
  EXPECT_TRUE(cache.Referenced().empty());
  EXPECT_EQ(cache.MemoryBytes(), keys_only->keys->CompressedBytes() +
                                     keys_only->live_prefix.size() * sizeof(size_t));

  const ScanSpec q6 = TestQ6();
  const ScanPartial want = fresh.ScanSpecAllChunks(q6);
  EXPECT_GT(want.sum, 0u);
  EXPECT_EQ(table.ScanSpecAllChunks(q6).sum, want.sum);
  const CompressedChunkCache::EncodingPtr extended = cache.Snapshot(0);
  ASSERT_NE(extended, keys_only);
  EXPECT_EQ(extended->keys, keys_only->keys);  // shared, not re-encoded
  EXPECT_EQ(cache.Referenced(), (std::vector<size_t>{0, 1, 2}));
  for (size_t c = 0; c < kTableCols; ++c) {
    EXPECT_EQ(extended->Built(c), c <= 2) << c;
  }
  EXPECT_EQ(extended->packed(2), nullptr);  // built, and kept raw
  EXPECT_NE(extended->packed(0), nullptr);
  EXPECT_NE(extended->packed(1), nullptr);
  // Repeat scans hit the extended snapshot as is.
  EXPECT_EQ(table.ScanSpecAllChunks(q6).sum, want.sum);
  EXPECT_EQ(cache.Snapshot(0), extended);

  // The older snapshot a reader may still hold is unchanged and answers.
  for (size_t c = 0; c < kTableCols; ++c) EXPECT_FALSE(keys_only->Built(c));
  EXPECT_EQ(keys_only->keys->CountRange(100, 5000), 4900u);

  // Only built columns (packed words + zone maps) add to the footprint.
  size_t added = 0;
  for (size_t c = 0; c <= 2; ++c) {
    if (extended->packed(c)) added += extended->packed(c)->CompressedBytes();
    added += extended->payload_zones[c].size() * sizeof(PayloadZone);
  }
  EXPECT_EQ(extended->payload_zones[3].size(), 0u);
  EXPECT_EQ(cache.MemoryBytes(), keys_only->CompressedBytes() + added);

  // A write invalidates the whole snapshot on the next scan.
  table.Insert(8000, std::vector<Payload>(kTableCols, 1));
  EXPECT_EQ(table.ScanSpecAllChunks(q6).sum, want.sum);
  EXPECT_FALSE(cache.HasEncoding(0));
}

// The referenced set drives a chunk's first build: a column some earlier
// scan asked for is encoded with the key frame, without a second build.
TEST(PerColumnEncoding, FirstBuildEncodesReferencedColumns) {
  PartitionedTable table = MakeEncodingTable();
  EXPECT_GT(table.SumPayloadRange(0, 4000, {3}), 0);
  for (int i = 0; i < 7; ++i) ASSERT_EQ(table.CountRange(100, 5000), 4900u);
  const auto enc = table.compressed_cache().Snapshot(0);
  ASSERT_NE(enc, nullptr);
  for (size_t c = 0; c < kTableCols; ++c) EXPECT_EQ(enc->Built(c), c == 3) << c;
  EXPECT_NE(enc->packed(3), nullptr);
}

// Per-column builds produce exactly what one build of every column does:
// same encoding kind, base, dictionary and packed words, column by column,
// and both equal the advisor's encoding of the column's live values.
TEST(PerColumnEncoding, ColumnsMatchAllColumnsBuild) {
  PartitionedTable per_column = MakeEncodingTable();
  for (int i = 0; i < 8; ++i) per_column.CountRange(100, 5000);
  per_column.ScanSpecAllChunks(TestQ6());
  per_column.SumPayloadRange(0, 4000, {3});

  PartitionedTable all_at_once = MakeEncodingTable();
  for (int i = 0; i < 8; ++i) all_at_once.SumPayloadRange(0, 4000, {0, 1, 2, 3});

  const auto a = per_column.compressed_cache().Snapshot(0);
  const auto b = all_at_once.compressed_cache().Snapshot(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Sorted keys fill each partition in order, so the live values of column
  // c in packed order are the generated column itself.
  const std::vector<std::vector<Payload>> cols = MakeEncodingColumns();
  for (size_t c = 0; c < kTableCols; ++c) {
    ASSERT_TRUE(a->Built(c) && b->Built(c)) << c;
    ExpectSameColumn(a->packed(c), b->packed(c), c);
    const auto eager = AdvisePayloadEncoding(cols[c], a->reads, a->writes);
    ExpectSameColumn(a->packed(c), eager.get(), c);
    EXPECT_EQ(a->payload_zones[c].size(), 8u);
    for (size_t t = 0; t < 8; ++t) {
      EXPECT_EQ(a->payload_zones[c][t].min, b->payload_zones[c][t].min);
      EXPECT_EQ(a->payload_zones[c][t].max, b->payload_zones[c][t].max);
    }
  }
  EXPECT_EQ(a->packed(0)->encoding(), PayloadEncoding::kFrameOfReference);
  EXPECT_EQ(a->packed(1)->encoding(), PayloadEncoding::kDictionary);
  EXPECT_EQ(a->packed(2), nullptr);
}

}  // namespace
}  // namespace casper
