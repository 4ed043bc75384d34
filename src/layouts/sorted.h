#ifndef CASPER_LAYOUTS_SORTED_H_
#define CASPER_LAYOUTS_SORTED_H_

#include <vector>

#include "layouts/layout_engine.h"
#include "storage/compressed_cache.h"

namespace casper {

/// Fully sorted column-store (paper Table 1 row (b)): binary-search reads,
/// but every write shifts the tail of the column (and of every payload
/// column) to keep the sort order — the classic read-optimized extreme.
class SortedLayout final : public LayoutEngine {
 public:
  /// `keys` must be sorted; payload columns aligned with it.
  SortedLayout(std::vector<Value> keys, std::vector<std::vector<Payload>> payload);

  LayoutMode mode() const override { return LayoutMode::kSorted; }

  size_t PointLookup(Value key, std::vector<Payload>* payload) const override;
  void Insert(Value key, const std::vector<Payload>& payload) override;
  size_t Delete(Value key) override;
  bool UpdateKey(Value old_key, Value new_key) override;

  /// Batched writes: an insert run is stably sorted and merged in one
  /// O(n + k log k) pass instead of k O(n) tail shifts. Placement matches
  /// sequential Insert exactly (upper_bound: new rows land after existing
  /// equals, batch order preserved among themselves).
  BatchResult ApplyBatch(const Operation* ops, size_t n,
                         ThreadPool* pool = nullptr) override;
  using LayoutEngine::ApplyBatch;

  /// Payload-carrying ingest: one stable-sorted merge pass under the engine
  /// latch, placement identical to sequential Insert calls.
  void InsertRows(const Row* rows, size_t n, ThreadPool* pool = nullptr) override;
  using LayoutEngine::InsertRows;

  /// Unified scan surface: the key range resolves to one whole-column
  /// binary-searched window [first, last) — counts never touch data, sums
  /// run the unconditional vector kernels, and payload predicates filter
  /// within the pre-qualified window.
  ScanPartial ExecuteScan(const ScanSpec& spec) const override;

  // Sharded read surface: the sorted run is range-split into fixed-width row
  // windows; each shard binary-searches the query bounds *within its own
  // window*, so the per-shard work is O(log w + qualifying rows) and the
  // positional windows merge exactly to the serial answer — duplicate runs
  // straddling a split point are counted once per side, never twice.
  static constexpr size_t kShardRows = size_t{1} << 14;
  size_t NumShards() const override {
    SharedChunkGuard guard(engine_latch_);
    return keys_.empty() ? 1 : (keys_.size() + kShardRows - 1) / kShardRows;
  }
  ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const override;

  size_t num_rows() const override {
    SharedChunkGuard guard(engine_latch_);
    return keys_.size();
  }
  size_t num_payload_columns() const override { return payload_cols_; }
  LayoutMemoryStats MemoryStats() const override;
  void ValidateInvariants() const override;

 private:
  /// Insert without taking the engine latch (callers hold it exclusively).
  void InsertLocked(Value key, const std::vector<Payload>& payload)
      REQUIRES(engine_latch_);
  /// One-pass merge of caller rows into the sorted column.
  void MergeRowsLocked(std::vector<Row> rows) REQUIRES(engine_latch_);
  void MergeInsertRun(const std::vector<Value>& batch_keys)
      REQUIRES(engine_latch_);

  /// Qualifying row positions [first, last) of [lo, hi) inside this shard's
  /// window, found by binary search bounded to the window.
  std::pair<size_t, size_t> ShardWindow(size_t shard, Value lo, Value hi) const
      REQUIRES_SHARED(engine_latch_);

  /// Spec evaluation over the pre-qualified sorted window [first, last)
  /// (every row in it satisfies the key predicate).
  /// `count_vote` controls the compressed cache's read-mostly voting
  /// (whole-column scans and shard 0 vote; other morsels only consume hits).
  ScanPartial EvalWindowLocked(size_t first, size_t last, const ScanSpec& spec,
                               bool count_vote = true) const
      REQUIRES_SHARED(engine_latch_);

  /// Payload column count: immutable after construction, so readable with no
  /// latch (columns are never added or dropped, only rows).
  size_t payload_cols_ = 0;
  std::vector<Value> keys_ GUARDED_BY(engine_latch_);
  std::vector<std::vector<Payload>> payload_ GUARDED_BY(engine_latch_);
  /// One-slot cache over the whole sorted run; epoch-invalidated by the
  /// engine latch like every other layout's encodings.
  mutable CompressedChunkCache compressed_{1, payload_cols_};
};

}  // namespace casper

#endif  // CASPER_LAYOUTS_SORTED_H_
