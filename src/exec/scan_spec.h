#ifndef CASPER_EXEC_SCAN_SPEC_H_
#define CASPER_EXEC_SCAN_SPEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "storage/types.h"
#include "workload/ops.h"

namespace casper {

class PackedPayloadColumn;

/// The unified scan/aggregate query surface (paper §6.4's generic
/// storage-engine API, made composable): every read over a key range — full
/// column scans, COUNT/SUM range queries, the TPC-H Q6 shape, and the
/// min/max/avg aggregates — is one ScanSpec value evaluated through a single
/// pair of virtuals on LayoutEngine (ExecuteScan / ScanSpecShard). Adding a
/// query shape means building a spec, not touching ten files.
///
/// A spec is: an optional key-range predicate ([lo, hi) half-open, or the
/// full key domain), zero or more CLOSED payload-column predicates, and one
/// aggregate. Evaluation yields a ScanPartial — an associative, commutative
/// mergeable partial — so any sharding of the rows merges to a result
/// bit-identical to the serial scan (sums wrap in 64 bits; min/max/count
/// commute; avg divides once after the merge).

/// Aggregate classes.
enum class AggKind {
  kCount,       ///< COUNT(*) over qualifying rows
  kSum,         ///< SUM over each of agg.cols, added together (the Q3 shape)
  kSumProduct,  ///< SUM(cols[0] * cols[1]) — the Q6 price x discount shape
  kMin,         ///< MIN(cols[0])
  kMax,         ///< MAX(cols[0])
  kAvg,         ///< AVG(cols[0]), floor(sum / count); 0 over zero rows
};

/// One payload-column predicate: keep rows with lo <= col value <= hi
/// (closed, unsigned). lo > hi keeps nothing (the canonical empty
/// predicate). "quantity < q" is expressed as [0, q - 1] (Q6 builder).
struct PredicateSpec {
  size_t col = 0;
  Payload lo = 0;
  Payload hi = 0;
};

/// The aggregate of a spec. kCount ignores cols; kSum reads every entry;
/// kSumProduct reads cols[0] and cols[1]; kMin/kMax/kAvg read cols[0].
struct AggSpec {
  AggKind kind = AggKind::kCount;
  std::vector<size_t> cols;
};

/// Mergeable evaluation partial. Only the fields the aggregate needs are
/// populated; Merge is associative and commutative for all of them, which is
/// what makes sharded evaluation bit-identical to serial.
struct ScanPartial {
  uint64_t count = 0;  ///< qualifying rows (kCount, kMin, kMax, kAvg)
  uint64_t sum = 0;    ///< wrapping 64-bit accumulation (kSum/kSumProduct/kAvg)
  Payload min = std::numeric_limits<Payload>::max();
  Payload max = 0;

  void Merge(const ScanPartial& o) {
    count += o.count;
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }

  /// The signed aggregate value (kSum / kSumProduct) — the two's-complement
  /// reinterpretation the legacy SumPayloadRange / TpchQ6 surfaces return.
  int64_t SumResult() const { return static_cast<int64_t>(sum); }

  /// The result as the runners/checksum mix it: count for kCount, the sum
  /// bit pattern for kSum/kSumProduct, the min/max payload value (0 over
  /// zero rows), and floor(sum / count) for kAvg.
  uint64_t Result(const AggSpec& agg) const {
    switch (agg.kind) {
      case AggKind::kCount:
        return count;
      case AggKind::kSum:
      case AggKind::kSumProduct:
        return sum;
      case AggKind::kMin:
        return count > 0 ? min : 0;
      case AggKind::kMax:
        return count > 0 ? max : 0;
      case AggKind::kAvg:
        return count > 0 ? sum / count : 0;
    }
    return 0;
  }
};

struct ScanSpec {
  /// true: no key predicate — every live row qualifies, including rows keyed
  /// at kMinValue / kMaxValue that no half-open [lo, hi) can express.
  bool full_domain = false;
  Value lo = 0;  ///< key predicate [lo, hi) when !full_domain
  Value hi = 0;
  std::vector<PredicateSpec> predicates;
  AggSpec agg;

  /// An empty key range qualifies no rows (full-domain specs never do).
  bool EmptyKeyRange() const { return !full_domain && lo >= hi; }

  /// Calls fn(col) for every payload column the spec references, as a
  /// predicate or an aggregate column (repeats possible).
  template <typename Fn>
  void ForEachPayloadColumn(Fn&& fn) const {
    for (const PredicateSpec& p : predicates) fn(p.col);
    for (const size_t c : agg.cols) fn(c);
  }
  bool TouchesPayload() const { return !predicates.empty() || !agg.cols.empty(); }

  /// True when every referenced payload column exists in a table of `pcols`
  /// payload columns AND the aggregate carries the arity its kind reads
  /// (kSumProduct: 2 columns; kMin/kMax/kAvg: 1). Degenerate specs evaluate
  /// to the zero partial — which is how the legacy TpchQ6 "fewer than 3
  /// payload columns -> 0" contract falls out of the generic path, and what
  /// keeps hand-built specs (CasperEngine::ExecuteScan is public) from
  /// reaching out-of-bounds column access in the evaluator.
  bool RefsValid(size_t pcols) const {
    for (const PredicateSpec& p : predicates) {
      if (p.col >= pcols) return false;
    }
    for (const size_t c : agg.cols) {
      if (c >= pcols) return false;
    }
    switch (agg.kind) {
      case AggKind::kSumProduct:
        return agg.cols.size() >= 2;
      case AggKind::kMin:
      case AggKind::kMax:
      case AggKind::kAvg:
        return !agg.cols.empty();
      case AggKind::kCount:
      case AggKind::kSum:  // sums over zero columns are a valid (zero) spec
        return true;
    }
    return true;
  }

  // --- Builders (the legacy wrapper surface maps 1:1 onto these) ------------

  /// Full column scan: COUNT(*) over the whole key domain.
  static ScanSpec FullScan() {
    ScanSpec s;
    s.full_domain = true;
    return s;
  }

  /// Q2: COUNT(*) WHERE key in [lo, hi).
  static ScanSpec Count(Value lo, Value hi) {
    ScanSpec s;
    s.lo = lo;
    s.hi = hi;
    return s;
  }

  /// Q3: SUM over `cols` WHERE key in [lo, hi).
  static ScanSpec Sum(Value lo, Value hi, std::vector<size_t> cols) {
    ScanSpec s;
    s.lo = lo;
    s.hi = hi;
    s.agg.kind = AggKind::kSum;
    s.agg.cols = std::move(cols);
    return s;
  }

  /// TPC-H Q6: SUM(price * discount) WHERE key in [lo, hi) AND discount in
  /// [disc_lo, disc_hi] AND quantity < qty_max, with the workload's column
  /// convention {0: quantity, 1: discount, 2: price}.
  static ScanSpec Q6(Value lo, Value hi, Payload disc_lo, Payload disc_hi,
                     Payload qty_max) {
    ScanSpec s;
    s.lo = lo;
    s.hi = hi;
    s.predicates.push_back({1, disc_lo, disc_hi});
    // quantity < qty_max as a closed range; qty_max == 0 admits nothing
    // (guarding the unsigned qty_max - 1 wraparound).
    if (qty_max == 0) {
      s.predicates.push_back({0, 1, 0});
    } else {
      s.predicates.push_back({0, 0, qty_max - 1});
    }
    s.agg.kind = AggKind::kSumProduct;
    s.agg.cols = {2, 1};
    return s;
  }

  /// MIN / MAX / AVG of payload column `col` WHERE key in [lo, hi).
  static ScanSpec Min(Value lo, Value hi, size_t col) {
    return SingleColAgg(AggKind::kMin, lo, hi, col);
  }
  static ScanSpec Max(Value lo, Value hi, size_t col) {
    return SingleColAgg(AggKind::kMax, lo, hi, col);
  }
  static ScanSpec Avg(Value lo, Value hi, size_t col) {
    return SingleColAgg(AggKind::kAvg, lo, hi, col);
  }

 private:
  static ScanSpec SingleColAgg(AggKind kind, Value lo, Value hi, size_t col) {
    ScanSpec s;
    s.lo = lo;
    s.hi = hi;
    s.agg.kind = kind;
    s.agg.cols = {col};
    return s;
  }
};

/// The spec a read Operation evaluates to, with range sums over `sum_cols`
/// and min/max/avg over sum_cols.front() (no payload columns -> the spec
/// references an out-of-range column and evaluates to 0). Shared by the
/// serial harness, the batched path, and all three runners so every
/// execution mode computes the exact same value per op. `op.kind` must be a
/// range-read kind (point queries keep their own PointLookup path).
ScanSpec SpecForOperation(const Operation& op, const std::vector<size_t>& sum_cols);

/// True for the read-only kinds every runner admits (point + range reads).
bool IsReadOnlyKind(OpKind kind);

namespace exec {

/// One contiguous run of rows for generic spec evaluation. `keys[0]` is the
/// row at absolute slot `base`; payload columns (and the optional tombstone
/// bitmap) are FULL arrays indexed by absolute slot, matching the layouts'
/// storage. When `key_check` is false the caller has already resolved the
/// key predicate (sorted windows, zone-map-qualified partitions) and every
/// live row in the run qualifies.
struct SpecRows {
  const Value* keys = nullptr;
  size_t n = 0;
  uint32_t base = 0;
  const std::vector<std::vector<Payload>>* cols = nullptr;
  const uint8_t* tombstones = nullptr;  ///< nullable; 1 = deleted, by slot
  bool key_check = true;

  /// Optional packed payload encodings for the run (from the chunk's
  /// CompressedChunkCache snapshot): packed[c] is nullptr when column c
  /// stayed raw. The run's rows must be POSITIONALLY DENSE in packed space —
  /// slot `base + i` is packed row `packed_base + i` — which is what the
  /// layouts' live-at-partition-head invariant (and the delta store's
  /// slot-positional main encode) guarantees. Predicate-free sums scan
  /// packed words with no materialization; predicated scans filter/refine in
  /// the packed domain and aggregate from the raw arrays (late
  /// materialization), so results stay bit-identical either way.
  const std::vector<std::shared_ptr<const PackedPayloadColumn>>* packed =
      nullptr;
  size_t packed_base = 0;  ///< packed row position of slot `base`

  /// Optional predicate override (zone-map blind consume): when
  /// `preds_override` is true, evaluate `preds[0..npreds)` INSTEAD of
  /// spec.predicates — the caller proved the dropped predicates hold for
  /// every live row of this run (payload zone inside the predicate range).
  const PredicateSpec* preds = nullptr;
  size_t npreds = 0;
  bool preds_override = false;
};

/// Evaluates `spec` over the run: vectorized fast paths for the predicate-
/// free count/sum shapes, and block-wise late materialization for everything
/// else (FilterSlots on the key column, FilterPayloadInRange per payload
/// predicate, then the aggregate over the surviving slots — all in ascending
/// slot order, so sums reproduce the legacy loops bit for bit). The caller
/// is responsible for column-reference validation (ScanSpec::RefsValid) and
/// for holding whatever latch protects the arrays.
ScanPartial EvalSpecRows(const ScanSpec& spec, const SpecRows& rows);

}  // namespace exec
}  // namespace casper

#endif  // CASPER_EXEC_SCAN_SPEC_H_
