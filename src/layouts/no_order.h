#ifndef CASPER_LAYOUTS_NO_ORDER_H_
#define CASPER_LAYOUTS_NO_ORDER_H_

#include <utility>
#include <vector>

#include "layouts/layout_engine.h"
#include "storage/compressed_cache.h"

namespace casper {

/// Vanilla column-store: fixed-width arrays in insertion order, no write
/// optimizations (paper Fig. 1 "baseline", Table 1 row (a)/(a)/(a)).
/// Every read is a full scan; inserts append; deletes swap-remove; updates
/// are applied in place.
class NoOrderLayout final : public LayoutEngine {
 public:
  NoOrderLayout(std::vector<Value> keys, std::vector<std::vector<Payload>> payload);

  LayoutMode mode() const override { return LayoutMode::kNoOrder; }

  size_t PointLookup(Value key, std::vector<Payload>* payload) const override;
  void Insert(Value key, const std::vector<Payload>& payload) override;
  size_t Delete(Value key) override;
  bool UpdateKey(Value old_key, Value new_key) override;

  /// Unified scan surface: whole-column evaluation under one latch hold,
  /// with the compressed-column cache answering predicate-free counts.
  ScanPartial ExecuteScan(const ScanSpec& spec) const override;

  // Sharded read surface: fixed-width row morsels over the insertion-order
  // arrays (there is no key structure to shard by). NumShards latches shared
  // (row count moves under writers); a stale shard index read after a
  // concurrent shrink clamps to an empty morsel.
  static constexpr size_t kMorselRows = size_t{1} << 16;
  size_t NumShards() const override {
    SharedChunkGuard guard(engine_latch_);
    return keys_.empty() ? 1 : (keys_.size() + kMorselRows - 1) / kMorselRows;
  }
  ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const override;

  /// Batched point lookups: one pass over the column answers the whole run
  /// (hash-grouped keys), O(rows + n) instead of n full scans.
  void LookupBatch(const Value* keys, size_t n, uint64_t* out_counts,
                   ThreadPool* pool = nullptr) const override;
  using LayoutEngine::LookupBatch;

  /// Batched writes: insert runs bulk-append (one reserve, no per-op
  /// routing); point-query runs answer through LookupBatch; deletes
  /// swap-remove and are order-sensitive, so they barrier.
  BatchResult ApplyBatch(const Operation* ops, size_t n,
                         ThreadPool* pool = nullptr) override;
  using LayoutEngine::ApplyBatch;

  /// Payload-carrying ingest: one reserve + bulk append under the engine
  /// latch.
  void InsertRows(const Row* rows, size_t n, ThreadPool* pool = nullptr) override;
  using LayoutEngine::InsertRows;

  size_t num_rows() const override {
    SharedChunkGuard guard(engine_latch_);
    return keys_.size();
  }
  /// Raw key column (bench/test hook, like PartitionedTable::key_chunk):
  /// bypasses the latch — callers must be quiescent. The assert claims the
  /// capability to the analysis and fail-fasts if a writer is mid-flight.
  const std::vector<Value>& raw_keys() const {
    engine_latch_.AssertReaderHeld();
    return keys_;
  }
  size_t num_payload_columns() const override { return payload_cols_; }
  LayoutMemoryStats MemoryStats() const override;
  void ValidateInvariants() const override;

 private:
  /// Row window [begin, end) of a shard.
  std::pair<size_t, size_t> MorselBounds(size_t shard) const
      REQUIRES_SHARED(engine_latch_) {
    const size_t begin = shard * kMorselRows;
    const size_t end = begin + kMorselRows < keys_.size() ? begin + kMorselRows
                                                          : keys_.size();
    return {begin < keys_.size() ? begin : keys_.size(), end};
  }


  /// Spec evaluation over the row window [begin, end).
  /// `count_vote` controls the compressed cache's read-mostly voting
  /// (whole-column scans and shard 0 vote; the other morsels of a fanned
  /// query only consume hits).
  ScanPartial EvalRowsLocked(size_t begin, size_t end, const ScanSpec& spec,
                             bool count_vote) const
      REQUIRES_SHARED(engine_latch_);

  /// Payload column count: immutable after construction, so readable with no
  /// latch (columns are never added or dropped, only rows).
  size_t payload_cols_ = 0;
  std::vector<Value> keys_ GUARDED_BY(engine_latch_);
  std::vector<std::vector<Payload>> payload_
      GUARDED_BY(engine_latch_);  // [col][row]
  /// One-slot cache: the whole insertion-order column is the chunk here.
  /// Fixed 4096-value frames (zone maps only pay off on clustered data, and
  /// the payoff gate rejects incompressible key sets entirely).
  mutable CompressedChunkCache compressed_{1, payload_cols_};
};

}  // namespace casper

#endif  // CASPER_LAYOUTS_NO_ORDER_H_
