#ifndef CASPER_STORAGE_TABLE_H_
#define CASPER_STORAGE_TABLE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include <string>

#include "exec/scan_spec.h"
#include "persist/evicted_chunk.h"
#include "storage/chunk_latch.h"
#include "storage/column_chunk.h"
#include "storage/compressed_cache.h"
#include "storage/types.h"
#include "util/status.h"

namespace casper {

class ThreadPool;

namespace persist {
struct PersistedChunk;
}  // namespace persist

/// A column-group table in the HAP schema: one key column a0 (the sort /
/// partition attribute) plus `p` fixed-width payload columns a1..ap.
/// The key column is a sequence of range-partitioned chunks (1M values each
/// by default, paper §7 "Column Chunks"); payload columns are flat arrays
/// aligned slot-for-slot with each chunk, kept in sync by replaying the
/// chunk's MoveLog. The Frequency Model and layout decisions are oblivious
/// to payload width (paper §4.2, "Columns and Column-Groups").
class PartitionedTable {
 public:
  struct Options {
    size_t chunk_values = size_t{1} << 20;
    PartitionedColumnChunk::Options chunk;
  };

  /// Physical layout for one chunk: partition sizes in values (must sum to
  /// the chunk's row count) and per-partition ghost-slot counts.
  struct ChunkLayoutSpec {
    std::vector<size_t> partition_sizes;
    std::vector<size_t> ghosts;
  };

  /// Bulk-loads rows already sorted by key. `payload_cols[c][r]` is column
  /// c+1 of row r. `specs[i]` describes chunk i; chunks are formed by
  /// splitting the sorted input into runs of at most options.chunk_values.
  static PartitionedTable Build(std::vector<Value> sorted_keys,
                                std::vector<std::vector<Payload>> payload_cols,
                                std::vector<ChunkLayoutSpec> specs,
                                Options options);
  static PartitionedTable Build(std::vector<Value> sorted_keys,
                                std::vector<std::vector<Payload>> payload_cols,
                                std::vector<ChunkLayoutSpec> specs);

  /// Number of chunks a sorted input of `rows` rows will be split into.
  static size_t NumChunksFor(size_t rows, const Options& options) {
    return (rows + options.chunk_values - 1) / options.chunk_values;
  }

  /// Row counts per chunk for a sorted input of `rows` rows.
  static std::vector<size_t> ChunkRowCounts(size_t rows, const Options& options);

  // --- Queries ---------------------------------------------------------------

  /// Q1: point query. Returns match count; fills `payload_out` (resized to
  /// the payload column count) with the first match's payload if any.
  size_t PointLookup(Value key, std::vector<Payload>* payload_out = nullptr) const;

  /// Q2: COUNT(*) over key range [lo, hi).
  uint64_t CountRange(Value lo, Value hi) const;

  /// Q3: SUM over selected payload columns of rows with key in [lo, hi).
  int64_t SumPayloadRange(Value lo, Value hi, const std::vector<size_t>& cols) const;

  /// Sum of keys in [lo, hi) (single-column aggregate).
  int64_t SumKeysRange(Value lo, Value hi) const;

  // --- Per-chunk read surface (morsel-driven execution) ----------------------
  // Each method is the chunk-c slice of the corresponding whole-table query:
  // summing over all chunks (in any order) reproduces the serial answer. A
  // chunk outside the key range contributes 0 after an O(1) bounds check.
  // Every per-chunk read holds that chunk's latch shared and every write
  // holds it exclusive (see chunk_latch.h), so reads may overlap ingest and
  // chunk-disjoint write runs commit in parallel; the per-chunk access
  // counters are relaxed atomics on top of that.

  /// COUNT(*) WHERE key in [lo, hi), restricted to chunk c. Once chunk c has
  /// proven read-mostly (several scans at one write epoch), the count is
  /// answered from a lazily built frame-of-reference encoding
  /// (CompressedChunkCache) — scan-on-compressed via the packed kernels —
  /// and any write to the chunk invalidates the encoding through its epoch.
  uint64_t CountRangeInChunk(size_t c, Value lo, Value hi) const;

  /// Full scan of chunk c: live rows, no range predicate — covers the whole
  /// key domain including both edges (the ScanAll read path).
  uint64_t ScanChunk(size_t c) const;

  /// SUM over `cols` WHERE key in [lo, hi), restricted to chunk c.
  int64_t SumPayloadRangeInChunk(size_t c, Value lo, Value hi,
                                 const std::vector<size_t>& cols) const;

  /// The chunk-c slice of an arbitrary ScanSpec (exec/scan_spec.h) — the
  /// generic per-chunk read behind LayoutEngine::ScanSpecShard (this is how
  /// the Q6 shape and every other predicate/aggregate composition read the
  /// table now). The predicate-free count shape keeps its dedicated path
  /// above (compressed-cache answers, stats accounting); everything else
  /// runs partition-by-partition with the same zone-map skip/blind-consume
  /// logic, evaluating predicates and aggregates through the kernel layer.
  ScanPartial ScanSpecInChunk(size_t c, const ScanSpec& spec) const;

  /// Whole-table ScanSpec evaluation with the serial chunk walk's early
  /// break (stop at the first chunk entirely above the range) — the
  /// whole-engine read path of PartitionedLayout::ExecuteScan, and what the
  /// whole-table CountRange / SumPayloadRange facades above reduce to.
  ScanPartial ScanSpecAllChunks(const ScanSpec& spec) const;

  /// Batched point lookups (read-side mirror of ApplyWriteRun): routes the
  /// run once, groups keys by destination chunk, and probes chunk-by-chunk —
  /// out_counts[i] == PointLookup(keys[i]) for every i. With a pool, chunk
  /// groups are probed concurrently (disjoint chunks, disjoint out slots).
  void LookupBatch(const Value* keys, size_t n, uint64_t* out_counts,
                   ThreadPool* pool = nullptr) const;

  /// O(1) key-range overlap test against the chunk routing bounds.
  bool ChunkOverlapsRange(size_t c, Value lo, Value hi) const {
    const bool is_last = (c + 1 == chunks_.size());
    if (!is_last && chunk_uppers_[c] < lo) return false;      // entirely below
    if (c > 0 && chunk_uppers_[c - 1] >= hi - 1) return false;  // entirely above
    return true;
  }

  /// Visits every qualifying row: fn(chunk_index, slot, key).
  template <typename Fn>
  void ForEachRowInRange(Value lo, Value hi, Fn&& fn) const;

  /// Payload accessor for rows surfaced by ForEachRowInRange. Unlatched:
  /// only valid while the surfacing callback (which holds the chunk latch)
  /// is on the stack, or while the table is otherwise write-quiescent — the
  /// assert claims that contract to the analysis and epoch-checks it.
  Payload payload(size_t chunk, size_t col, uint32_t slot) const {
    const TableChunk& ch = *chunks_[chunk];
    ch.latch.AssertReaderHeld();
    return ch.payload[col][slot];
  }

  // --- Writes ----------------------------------------------------------------

  /// Q4: insert a row. `payload` must have one entry per payload column.
  void Insert(Value key, const std::vector<Payload>& payload);

  /// Q5: delete one row with the given key. Returns rows deleted (0 or 1).
  size_t Delete(Value key);

  /// Q6: move one row from old_key to new_key (primary-key correction).
  bool UpdateKey(Value old_key, Value new_key);

  /// One row of a batched write run.
  struct BatchWrite {
    Value key = 0;
    bool is_insert = false;  ///< false = delete-one
    std::vector<Payload> payload;  ///< inserts only; one entry per column
  };

  /// Applies a run of inserts/deletes with results identical to applying
  /// them in order one-by-one. The run is routed once (one binary search per
  /// op, stable within each chunk) and then applied chunk-by-chunk — legal
  /// because inserts/deletes on different chunks touch disjoint state and
  /// same-key ops always share a chunk, keeping their relative order. With a
  /// pool, chunk groups run concurrently (morsel over the touched chunks).
  /// Each chunk group commits under that chunk's exclusive latch, so two
  /// ApplyWriteRun calls with chunk-disjoint runs may execute from different
  /// threads at the same time (multi-writer ingest); overlapping runs
  /// serialize per chunk without deadlock (one latch held at a time).
  /// Returns the number of rows actually deleted.
  size_t ApplyWriteRun(const std::vector<BatchWrite>& run,
                       ThreadPool* pool = nullptr);

  /// Payload-carrying batch ingest: inserts `n` caller-supplied rows through
  /// the same route-once, chunk-grouped, latch-protected path as
  /// ApplyWriteRun. Each row's payload must have one entry per payload
  /// column. This is the production write surface; the Operation-stream path
  /// derives payloads from keys instead.
  void BatchWriteRows(const Row* rows, size_t n, ThreadPool* pool = nullptr);
  void BatchWriteRows(const std::vector<Row>& rows, ThreadPool* pool = nullptr) {
    BatchWriteRows(rows.data(), rows.size(), pool);
  }

  // --- Concurrency control ---------------------------------------------------

  /// Chunk index `key` routes to (immutable routing bounds, so this is safe
  /// to call concurrently with any reads or writes).
  size_t ChunkFor(Value key) const { return RouteChunk(key); }

  /// The epoch/latch protecting chunk c. All table read/write paths route
  /// through these internally; external callers only need them for epoch
  /// sniffing (ChunkLatch::WriteActive) or snapshot validation.
  const ChunkLatch& chunk_latch(size_t c) const { return chunks_[c]->latch; }
  ChunkLatch& chunk_latch(size_t c) { return chunks_[c]->latch; }

  /// Chunk-c ChunkStats copy that is coherent with respect to writers: the
  /// seqlock loop retries until no exclusive writer interleaved the reads.
  /// This is the documented NO_THREAD_SAFETY_ANALYSIS escape: a seqlock read
  /// touches latch-guarded state WITHOUT the latch by design — coherence
  /// comes from epoch validation (retry if a writer interleaved), not mutual
  /// exclusion, and the payload it copies is all relaxed atomics. See README
  /// "Static analysis".
  ChunkStatsSnapshot CoherentStatsSnapshot(size_t c) const
      NO_THREAD_SAFETY_ANALYSIS {
    const TableChunk& ch = *chunks_[c];
    for (;;) {
      const uint64_t e = ch.latch.ReadBegin();
      ChunkStatsSnapshot s = ch.keys.StatsSnapshot();
      if (ch.latch.ReadValidate(e)) return s;
      CpuRelax();  // writer interleaved the copy; pause before retrying
    }
  }

  /// Unified stats read surface: one CoherentStatsSnapshot per chunk (the
  /// LayoutEngine::StatsSnapshots surface for partitioned layouts).
  StatsSnapshotRegistry StatsSnapshots() const {
    StatsSnapshotRegistry reg;
    reg.per_chunk.reserve(chunks_.size());
    for (size_t c = 0; c < chunks_.size(); ++c) {
      reg.per_chunk.push_back(CoherentStatsSnapshot(c));
    }
    return reg;
  }

  // --- Online re-layout (maintenance surface) --------------------------------

  /// Live keys of chunk c in sorted order, read under the chunk's shared
  /// latch — the maintenance service's data snapshot for re-solving the
  /// chunk's layout. Partitions cover disjoint ascending key ranges, so
  /// sorting each partition's live run yields the chunk's global order.
  void SnapshotChunkSortedKeys(size_t c, std::vector<Value>* out) const;

  /// Live partition sizes of chunk c under its shared latch (the advisor's
  /// view of the current geometry, for costing the layout as it stands).
  void SnapshotChunkPartitionSizes(size_t c, std::vector<size_t>* out) const;

  /// Rebuilds chunk c's physical layout to `spec` in place, under the
  /// chunk's exclusive latch, while queries keep flowing on every other
  /// chunk. Live rows are extracted in key order (payload carried along),
  /// the requested partition cuts are clamped to the row count found at
  /// latch time (writes may land between the advisor's snapshot and the
  /// exclusive hold), and the chunk's access counters survive the swap. The
  /// guard's epoch bump invalidates this chunk's compressed encodings
  /// exactly as a write does. Chunk routing bounds are untouched — a chunk's
  /// key range is a build-time constant; only its internal partitioning
  /// changes. Returns false (no-op) for an empty chunk or an empty spec.
  bool RepartitionChunk(size_t c, const ChunkLayoutSpec& spec);

  /// FNV-1a hash over every chunk's partition geometry (region offsets,
  /// capacities, routing uppers), read under shared latches. Stable across
  /// reads; changes when a re-partition alters the physical layout — the
  /// "disabled maintenance never mutates layout" test hook.
  uint64_t LayoutFingerprint() const;

  // --- Tiered storage (persist/) ---------------------------------------------
  // A chunk is either resident (keys + payload in memory) or evicted (its
  // data lives in a .cspr tier file; only an EvictedChunkState summary stays
  // resident). Reads on evicted chunks answer from the file through the cold
  // scan paths (persist/cold_scan.h) with zone-map pushdown — no
  // materialization; any write to an evicted chunk promotes it first, under
  // the same exclusive latch the write already holds.

  /// Demotes chunk c to `path` (one durable .cspr file) and releases its
  /// in-memory storage, under the chunk's exclusive latch. Returns false
  /// (no-op) if the chunk is already evicted, empty, or the write fails.
  bool EvictChunk(size_t c, const std::string& path);

  /// Promotes chunk c back to residency (no-op if already resident).
  /// Geometry is rebuilt through the deterministic Build path from the tier
  /// file; the stale tier file is removed.
  bool PromoteChunk(size_t c);

  /// Whether chunk c currently holds its data in memory.
  bool ChunkResident(size_t c) const;

  /// Resident bytes of chunk c's key + payload storage (0 when evicted).
  size_t ChunkMemoryBytes(size_t c) const;

  /// Bytes chunk c would occupy resident: its current footprint, or (when
  /// evicted) the estimate from the stored capacity envelope — the tier
  /// manager's admission check for promotions under a byte budget.
  size_t ChunkFootprintIfResident(size_t c) const;

  /// Snapshot of chunk c for the chunk-file writer, under the chunk's shared
  /// latch: per-partition geometry plus live keys and payload rows in
  /// partition order (exactly the ChunkWriter::Encode input contract).
  void SnapshotChunkForPersist(
      size_t c, std::vector<persist::ChunkPartitionMeta>* parts,
      std::vector<Value>* live_keys,
      std::vector<std::vector<Payload>>* live_payload) const;

  // --- Introspection -----------------------------------------------------------

  size_t num_rows() const { return static_cast<size_t>(rows_.load()); }
  size_t num_chunks() const { return chunks_.size(); }
  size_t num_payload_columns() const { return payload_cols_; }
  /// Raw chunk access for tests/capture; bypasses the latch — callers must
  /// hold it (or be single-threaded) when the table is shared. The asserts
  /// grant the capability to the static analysis and fail fast if a latched
  /// writer is demonstrably mid-flight.
  const PartitionedColumnChunk& key_chunk(size_t i) const {
    const TableChunk& ch = *chunks_[i];
    ch.latch.AssertReaderHeld();
    return ch.keys;
  }
  PartitionedColumnChunk& mutable_key_chunk(size_t i) {
    TableChunk& ch = *chunks_[i];
    ch.latch.AssertQuiescent();
    return ch.keys;
  }

  /// Per-chunk compressed-encoding cache (test / reporting hook).
  const CompressedChunkCache& compressed_cache() const { return compressed_; }

  /// Bytes held by key + payload storage (memory-amplification reporting).
  size_t MemoryBytes() const;

  void ValidateInvariants() const;

 private:
  /// One chunk plus the latch that protects it. The latch lives INSIDE the
  /// chunk (rather than in a parallel latch array) so the thread-safety
  /// analysis can bind data to its protector: a local `TableChunk& ch` names
  /// both `ch.latch` and `ch.keys`, making `GUARDED_BY(latch)` checkable at
  /// every use site — latch-array indexing (`latches_[c]`) is opaque to the
  /// analysis. ChunkLatch is non-movable, so chunks are held by unique_ptr.
  struct TableChunk {
    TableChunk(PartitionedColumnChunk k, std::vector<std::vector<Payload>> p)
        : keys(std::move(k)), payload(std::move(p)) {}
    mutable ChunkLatch latch;
    PartitionedColumnChunk keys GUARDED_BY(latch);
    std::vector<std::vector<Payload>> payload GUARDED_BY(latch);  // [col][slot]
    /// Set while the chunk's data lives in a tier file (keys/payload storage
    /// released); null when resident. Reads branch on it under the shared
    /// latch; eviction/promotion flip it under the exclusive latch.
    std::unique_ptr<persist::EvictedChunkState> evicted GUARDED_BY(latch);
  };

  PartitionedTable() = default;

  size_t RouteChunk(Value key) const;
  void RepartitionChunkLocked(TableChunk& chunk, const ChunkLayoutSpec& spec)
      REQUIRES(chunk.latch);
  void ApplyMoveLog(TableChunk& chunk, const MoveLog& log,
                    const std::vector<Payload>* new_payload,
                    std::vector<Payload>* stash) REQUIRES(chunk.latch);

  /// Cross-chunk key move: delete `old_key` from src, reinsert as `new_key`
  /// in dst carrying the payload. Both latches held by the caller (acquired
  /// in ascending chunk index, see UpdateKey).
  bool MoveRowAcrossChunks(TableChunk& src, TableChunk& dst, Value old_key,
                           Value new_key) REQUIRES(src.latch, dst.latch);

  /// Reads + parses an evicted chunk's tier file, accounting the disk read
  /// on the chunk's counters. The file must parse: a corrupt tier file under
  /// a running engine is unrecoverable here (recovery-time corruption is
  /// handled by wiping the tier and rebuilding from base + journal).
  persist::PersistedChunk LoadEvicted(const TableChunk& ch) const
      REQUIRES_SHARED(ch.latch);

  /// Brings an evicted chunk back to residency in place (no-op when already
  /// resident): decode the tier file, rebuild through Build (stats carried
  /// over like a re-partition), remove the now-stale tier file.
  void EnsureResidentLocked(TableChunk& ch) REQUIRES(ch.latch);

  /// The locked core of SnapshotChunkForPersist (shared by EvictChunk, whose
  /// exclusive hold satisfies the shared requirement).
  void SnapshotForPersistLocked(
      const TableChunk& ch, std::vector<persist::ChunkPartitionMeta>* parts,
      std::vector<Value>* live_keys,
      std::vector<std::vector<Payload>>* live_payload) const
      REQUIRES_SHARED(ch.latch);

  /// Payload arrays mirroring a freshly Built chunk's slot layout (values
  /// packed at each partition head, free slots zero-filled) from rows given
  /// in the chunk's sorted-live order — shared by re-partition and promotion.
  std::vector<std::vector<Payload>> PlacePayloadRows(
      const PartitionedColumnChunk& chunk,
      const std::vector<std::vector<Payload>>& rows_by_col) const;

  /// Re-seeds a rebuilt chunk's counters from a pre-swap snapshot (the stats
  /// survive re-partition, eviction and promotion alike).
  static void RestoreChunkStats(ChunkStats& stats,
                                const ChunkStatsSnapshot& carry);

  /// Chunk-c encoding snapshot (key frame + advisor-chosen packed payload
  /// columns + payload zone maps) if cached and valid at the chunk's current
  /// epoch, extended with any payload column `spec` references that it
  /// lacks; counts the scan (and maybe builds) otherwise. `ch` is chunk c;
  /// the caller holds its latch shared.
  CompressedChunkCache::EncodingPtr CompressedFor(size_t c, const TableChunk& ch,
                                                  const ScanSpec& spec) const
      REQUIRES_SHARED(ch.latch);

  Options opts_;
  size_t payload_cols_ = 0;
  /// Whole-table row count: relaxed atomic because chunk-disjoint write runs
  /// commit from multiple threads at once (each under its own chunk latch).
  RelaxedCounter rows_;
  /// Chunk set and routing bounds are sized once at Build and never change;
  /// only the data inside each TableChunk (guarded by its latch) mutates.
  std::vector<std::unique_ptr<TableChunk>> chunks_;
  std::vector<Value> chunk_uppers_;
  /// Lazy per-chunk FoR encodings for read-mostly chunks; epoch-invalidated
  /// by the chunk latches (see CompressedChunkCache).
  mutable CompressedChunkCache compressed_;
};

template <typename Fn>
void PartitionedTable::ForEachRowInRange(Value lo, Value hi, Fn&& fn) const {
  if (lo >= hi) return;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    // Chunk c holds keys in (uppers[c-1], uppers[c]]; the last chunk also
    // absorbs everything above its build-time upper.
    const bool is_last = (c + 1 == chunks_.size());
    if (!is_last && chunk_uppers_[c] < lo) continue;     // entirely below
    if (c > 0 && chunk_uppers_[c - 1] >= hi - 1) break;  // entirely above
    // The shared latch spans the callback too: fn may read payload slots.
    const TableChunk& ch = *chunks_[c];
    SharedChunkGuard guard(ch.latch);
    // Slot-surfacing iteration has no cold equivalent (an evicted chunk has
    // no slots); callers of this test/capture hook work on resident tables.
    CASPER_CHECK_MSG(ch.evicted == nullptr,
                     "ForEachRowInRange requires resident chunks");
    const auto& chunk = ch.keys;
    chunk.ForEachSlotInRange(
        lo, hi, [&](uint32_t slot) { fn(c, slot, chunk.raw_data()[slot]); });
  }
}

}  // namespace casper

#endif  // CASPER_STORAGE_TABLE_H_
