#ifndef CASPER_LAYOUTS_DELTA_STORE_H_
#define CASPER_LAYOUTS_DELTA_STORE_H_

#include <cstdint>
#include <vector>

#include "layouts/layout_engine.h"
#include "storage/compressed_cache.h"

namespace casper {

/// State-of-the-art update-aware columnar layout (paper's "State-of-art"
/// mode): a sorted read-optimized main store plus an unsorted delta buffer
/// for incoming writes, periodically merged back (the C-Store / Vertica
/// write-store design [78, 48]). Deletes on the main store are positional
/// tombstones (a delete bitmap, cf. positional update handling [38]); the
/// merge compacts them away.
class DeltaStoreLayout final : public LayoutEngine {
 public:
  struct Options {
    /// Merge when delta size exceeds this fraction of the main store.
    double merge_fraction = 0.002;
    /// Lower bound on the merge trigger (avoids merge storms on tiny data).
    size_t min_merge_rows = 4096;
  };

  /// `keys` must be sorted; payload columns aligned.
  DeltaStoreLayout(std::vector<Value> keys, std::vector<std::vector<Payload>> payload,
                   Options options);
  DeltaStoreLayout(std::vector<Value> keys, std::vector<std::vector<Payload>> payload);

  LayoutMode mode() const override { return LayoutMode::kDeltaStore; }

  size_t PointLookup(Value key, std::vector<Payload>* payload) const override;
  void Insert(Value key, const std::vector<Payload>& payload) override;
  size_t Delete(Value key) override;
  bool UpdateKey(Value old_key, Value new_key) override;

  /// Batched writes: insert runs append to the delta in bulk with a single
  /// merge check at the end of the run (vs one per insert), so a large batch
  /// triggers at most one merge. Logical content matches one-by-one
  /// application exactly; only merge *timing* (merge_count) may differ.
  /// Deletes prefer the delta via swap-remove — order-sensitive — so they
  /// barrier, as do queries and updates.
  BatchResult ApplyBatch(const Operation* ops, size_t n,
                         ThreadPool* pool = nullptr) override;
  using LayoutEngine::ApplyBatch;

  /// Batched point lookups: per-key binary searches on the sorted main store
  /// plus ONE pass over the unsorted delta for the whole run (hash-grouped),
  /// instead of one delta scan per key.
  void LookupBatch(const Value* keys, size_t n, uint64_t* out_counts,
                   ThreadPool* pool = nullptr) const override;
  using LayoutEngine::LookupBatch;

  /// Payload-carrying ingest: bulk delta append with one merge check for the
  /// run, under the engine latch.
  void InsertRows(const Row* rows, size_t n, ThreadPool* pool = nullptr) override;
  using LayoutEngine::InsertRows;

  /// Unified scan surface: one main-store pass (binary-searched window with
  /// the delete bitmap applied) plus one delta pass, merged main-first like
  /// every legacy read did.
  ScanPartial ExecuteScan(const ScanSpec& spec) const override;

  // Sharded read surface: the main/delta pair is naturally parallel — the
  // sorted main store splits into fixed-width row windows (binary-searched
  // per shard like SortedLayout, with the delete bitmap applied), and the
  // unsorted delta buffer is one extra sub-shard scanned in full. Shards
  // [0, M) are main windows, shard M is the delta.
  static constexpr size_t kMainShardRows = size_t{1} << 14;
  size_t NumShards() const override {
    SharedChunkGuard guard(engine_latch_);
    return NumMainShards() + 1;  // + the delta sub-shard (may be empty)
  }
  ScanPartial ScanSpecShard(size_t shard, const ScanSpec& spec) const override;

  size_t num_rows() const override;
  size_t num_payload_columns() const override { return payload_cols_; }
  LayoutMemoryStats MemoryStats() const override;
  void ValidateInvariants() const override;

  /// Merges performed so far (delta integrations back into the main store).
  uint64_t merge_count() const {
    SharedChunkGuard guard(engine_latch_);
    return merges_;
  }
  size_t delta_size() const {
    SharedChunkGuard guard(engine_latch_);
    return delta_keys_.size();
  }

  /// Force a merge now (also used internally when the delta fills up).
  void Merge();

 private:
  // Latch-free internals; public wrappers hold the engine latch (UpdateKey
  // composes lookup + delete + insert under one exclusive hold).
  size_t PointLookupLocked(Value key, std::vector<Payload>* payload) const
      REQUIRES_SHARED(engine_latch_);
  void InsertLocked(Value key, const std::vector<Payload>& payload)
      REQUIRES(engine_latch_);
  size_t DeleteLocked(Value key) REQUIRES(engine_latch_);
  void MergeLocked() REQUIRES(engine_latch_);
  void MaybeMerge() REQUIRES(engine_latch_);

  /// Spec evaluation over the pre-qualified main window [first, last) —
  /// rows already satisfy the key predicate; the delete bitmap is applied
  /// inside. `count_vote` controls the compressed cache's read-mostly
  /// voting (whole-store scans and main shard 0 vote).
  ScanPartial EvalMainWindowLocked(size_t first, size_t last,
                                   const ScanSpec& spec,
                                   bool count_vote = true) const
      REQUIRES_SHARED(engine_latch_);

  /// Spec evaluation over the unsorted delta buffer.
  ScanPartial EvalDeltaLocked(const ScanSpec& spec) const
      REQUIRES_SHARED(engine_latch_);

  size_t NumMainShards() const REQUIRES_SHARED(engine_latch_) {
    return main_keys_.empty()
               ? 0
               : (main_keys_.size() + kMainShardRows - 1) / kMainShardRows;
  }
  /// Qualifying main-store positions [first, last) of [lo, hi) inside main
  /// shard `shard`'s row window (delete bitmap not yet applied).
  std::pair<size_t, size_t> MainShardWindow(size_t shard, Value lo, Value hi) const
      REQUIRES_SHARED(engine_latch_);

  Options opts_;
  /// Payload column count: immutable after construction, so readable with no
  /// latch (columns are never added or dropped, only rows).
  size_t payload_cols_ = 0;
  // Main store: sorted, with a positional delete bitmap.
  std::vector<Value> main_keys_ GUARDED_BY(engine_latch_);
  std::vector<std::vector<Payload>> main_payload_ GUARDED_BY(engine_latch_);
  std::vector<uint8_t> deleted_ GUARDED_BY(engine_latch_);
  size_t main_live_ GUARDED_BY(engine_latch_) = 0;
  // Delta store: unsorted appends.
  std::vector<Value> delta_keys_ GUARDED_BY(engine_latch_);
  std::vector<std::vector<Payload>> delta_payload_ GUARDED_BY(engine_latch_);
  uint64_t merges_ GUARDED_BY(engine_latch_) = 0;
  /// One-slot cache over the main store (the delta buffer always stays raw:
  /// it exists to absorb writes); any write, even a delta append, advances
  /// the engine epoch and invalidates it.
  mutable CompressedChunkCache compressed_{1, payload_cols_};
};

}  // namespace casper

#endif  // CASPER_LAYOUTS_DELTA_STORE_H_
