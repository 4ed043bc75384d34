#ifndef CASPER_STORAGE_COMPRESSED_CACHE_H_
#define CASPER_STORAGE_COMPRESSED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "compression/frame_of_reference.h"
#include "compression/packed_column.h"
#include "exec/scan_spec.h"
#include "storage/types.h"
#include "util/mutex.h"

namespace casper {

/// Per-partition min/max of one payload column — the payload-side zone map.
/// Computed for every built column (even ones the advisor keeps raw), so
/// predicated scans can skip or blind-consume whole partitions regardless
/// of the physical encoding.
struct PayloadZone {
  Payload min = 0;
  Payload max = 0;
};

/// One cache entry: everything the read paths can precompute for a chunk at
/// one write epoch. The key frame (FoR over live keys) and the packed-space
/// prefix of live rows per partition (to map chunk partitions into packed
/// row positions) are built with the snapshot; each payload column (its
/// packed encoding plus its per-partition zone map) only once some scan has
/// referenced it, so a key count never encodes payload.
struct ChunkEncoding {
  std::shared_ptr<const FrameOfReferenceColumn> keys;
  /// payload[c] is nullptr when the advisor kept column c raw or when c is
  /// not built yet (built[c] tells the two apart). Size = payload columns.
  std::vector<std::shared_ptr<const PackedPayloadColumn>> payload;
  std::vector<bool> built;
  /// live_prefix[t] = live rows in partitions [0, t): the packed-space row
  /// position where partition t's values start. Size = partitions + 1.
  std::vector<size_t> live_prefix;
  /// payload_zones[c][t] = min/max of column c within partition t (live rows
  /// only; meaningless when the partition is empty). Empty for a column not
  /// built yet, and for layouts without partitions.
  std::vector<std::vector<PayloadZone>> payload_zones;
  /// The chunk's scan/update counters when the snapshot was first built.
  /// Columns added later are advised from these same numbers, so a column's
  /// encoding does not depend on when a scan first referenced it.
  uint64_t reads = 0;
  uint64_t writes = 0;

  bool Built(size_t col) const { return col < built.size() && built[col]; }

  /// True when every payload column `spec` references is built.
  bool Covers(const ScanSpec& spec) const {
    bool all = true;
    spec.ForEachPayloadColumn([&](size_t c) { all = all && Built(c); });
    return all;
  }

  /// The packed column for `col`, or nullptr when it is raw or not built.
  const PackedPayloadColumn* packed(size_t col) const {
    return col < payload.size() ? payload[col].get() : nullptr;
  }

  /// The payoff-gate statistic: the cache keys the whole snapshot on the key
  /// column's compressibility (payload columns apply their own central gate
  /// inside the encoding advisor before they are ever attached).
  double MeanBitsPerValue() const {
    return keys ? keys->MeanBitsPerValue() : 64.0;
  }

  size_t CompressedBytes() const {
    size_t bytes = keys ? keys->CompressedBytes() : 0;
    for (const auto& col : payload) {
      if (col) bytes += col->CompressedBytes();
    }
    bytes += live_prefix.size() * sizeof(size_t);
    for (const auto& zones : payload_zones) {
      bytes += zones.size() * sizeof(PayloadZone);
    }
    return bytes;
  }
};

/// One run of live rows in a layout's raw payload arrays: slots
/// [begin, begin + size). Runs are concatenated in order into packed rows.
struct PayloadRun {
  size_t begin = 0;
  size_t size = 0;
};

/// Builds payload column c of `enc` from raw[c] for every c in `cols`, via
/// the encoding advisor (fed enc->reads / enc->writes). With `runs`, the
/// column's live rows are gathered run by run and a zone map is recorded per
/// run; without, raw[c] is encoded as is (dense, positional layouts) and no
/// zone map is kept. Marks each column built, raw or not.
void EncodePayloadColumns(const std::vector<std::vector<Payload>>& raw,
                          const std::vector<PayloadRun>* runs,
                          const std::vector<size_t>& cols, ChunkEncoding* enc);

/// Lazy per-chunk encodings for read-mostly chunks — the "compressed chunk
/// scan" side of the scan-kernel layer (paper §6.2: the partitioning /
/// compression synergy; ByteStore: base-layout kernel choice dominates
/// hybrid throughput). A cache entry is a ChunkEncoding snapshot: the FoR
/// key frame plus the payload columns scans have asked for, each packed the
/// way the encoding advisor chose, all invalidated together by the chunk's
/// epoch/latch.
///
/// Policy:
///  - An encoding is built only after a chunk has been range-scanned
///    `build_after_scans` times at one write epoch (a chunk that keeps
///    taking writes never pays the encode), and only if it actually
///    compresses (mean offset width <= `max_mean_bits`); otherwise the slot
///    remembers the rejection until the next write.
///  - Payload columns are encoded per column, driven by traffic: the cache
///    keeps one set of the payload columns any scan has referenced (shared
///    by all slots). A slot's first build encodes every column in that set;
///    a later scan that references a column the snapshot lacks extends it
///    copy-on-write. A table that is only counted never encodes payload.
///  - Validity is tied to the chunk's epoch/latch (chunk_latch.h): callers
///    pass the latch's current even epoch while holding it shared, so a
///    cached encoding can never be observed across a write — any write
///    advances the epoch by two and lazily invalidates the slot on its next
///    access. No extra synchronization with writers is needed.
///  - Returned encodings are shared_ptr snapshots: a scan keeps its columns
///    alive even if a later epoch rebuilds, or a peer extends, the slot.
///
/// Thread safety: any number of readers may call Get/GetOrBuild concurrently
/// (they hold the chunk latch shared). The hit path is lock-free — an atomic
/// epoch check plus an atomic shared_ptr load — because the shared latch
/// guarantees every concurrent caller passes the SAME epoch (a writer would
/// need the latch exclusive to change it), so cross-epoch races cannot
/// happen mid-query. The per-slot mutex serializes only epoch-rollover
/// resets, the encode and extensions: the winning reader builds while peers
/// wait, then everyone shares the same snapshot.
class CompressedChunkCache {
 public:
  struct Config {
    /// Range scans observed at one epoch before the encode is attempted.
    size_t build_after_scans = 8;
    /// Don't bother encoding chunks smaller than this.
    size_t min_rows = 4096;
    /// Reject encodings whose mean bits/value exceed this (< 2x compression
    /// vs the 64-bit raw column means the raw SIMD scan is the cheaper
    /// representation). Applied by GetOrBuild to whatever the encoder
    /// returns, so every caller shares one payoff gate.
    double max_mean_bits = 32.0;
    /// Churn backoff cap: every time a BUILT encoding is invalidated by a
    /// write, the scan threshold for the next build doubles (up to
    /// build_after_scans << max_churn_shift), so write-hot chunks stop
    /// paying O(chunk) encodes they never amortize. A genuinely read-mostly
    /// chunk reaches its (higher) threshold anyway; a hybrid chunk stops
    /// rebuilding after a couple of wasted encodes per workload lifetime.
    unsigned max_churn_shift = 6;
  };

  using EncodingPtr = std::shared_ptr<const ChunkEncoding>;

  CompressedChunkCache() = default;
  CompressedChunkCache(size_t slots, size_t payload_cols) {
    Reset(slots, payload_cols);
  }

  /// (Re)sizes the slot set and the referenced-column set; build-time only
  /// (not thread-safe).
  void Reset(size_t slots, size_t payload_cols) {
    entries_.clear();
    entries_.reserve(slots);
    for (size_t i = 0; i < slots; ++i) {
      entries_.push_back(std::make_unique<Entry>());
    }
    payload_cols_ = payload_cols;
    referenced_ = std::vector<std::atomic<uint64_t>>((payload_cols + 63) / 64);
  }

  /// Hit-only lookup: the cached encoding for `slot` if one is valid at
  /// `epoch`, nullptr otherwise — no scan accounting, no build, lock-free.
  /// For read paths that should consume an existing encoding without voting
  /// to create one (e.g. per-morsel shard scans, which would otherwise
  /// inflate the scan counter by the fan-out width every query). Columns
  /// the snapshot has not built read as raw (packed(c) == nullptr).
  EncodingPtr Get(size_t slot, uint64_t epoch) const {
    const Entry& e = *entries_[slot];
    if (e.epoch.load(std::memory_order_acquire) != epoch) return nullptr;
    return std::atomic_load_explicit(&e.column, std::memory_order_acquire);
  }

  /// Cached encoding for `slot` if one is valid at `epoch` and covers every
  /// payload column `spec` references; otherwise counts this scan and, once
  /// the slot is hot enough, builds it. A valid snapshot that lacks some of
  /// the spec's columns is extended instead (no vote needed: the chunk
  /// already proved read-mostly at this epoch).
  ///
  /// `fill(ChunkEncoding* enc, const std::vector<size_t>& cols)` does the
  /// encoding: on a fresh `enc` (keys == nullptr) it builds the key side
  /// first and may return false to veto; then it encodes payload columns
  /// `cols` (EncodePayloadColumns). Snapshots whose keys fail the
  /// compression-payoff gate (Config::max_mean_bits) are rejected here,
  /// once, for every caller. Callers must hold the slot's chunk latch shared and pass that
  /// latch's current (necessarily even) epoch. The hit path takes no lock.
  template <typename FillFn>
  EncodingPtr GetOrBuild(size_t slot, uint64_t epoch, size_t rows,
                         const ScanSpec& spec, FillFn&& fill) {
    if (rows < config_.min_rows) return nullptr;
    Reference(spec);
    Entry& e = *entries_[slot];
    if (e.epoch.load(std::memory_order_acquire) != epoch) {
      // A write advanced the chunk epoch since this slot last recorded one:
      // drop the stale state. Peers hold the chunk latch shared too, so they
      // carry the same `epoch`; the mutex only orders the reset among them.
      MutexLock lock(e.mu);
      if (e.epoch.load(std::memory_order_relaxed) != epoch) {
        // An encode we paid for and never got to keep: back off (double the
        // threshold) so chunks that keep taking writes stop rebuilding.
        if (std::atomic_load_explicit(&e.column, std::memory_order_relaxed) !=
                nullptr &&
            e.churn.load(std::memory_order_relaxed) < config_.max_churn_shift) {
          e.churn.fetch_add(1, std::memory_order_relaxed);
        }
        std::atomic_store_explicit(&e.column, EncodingPtr(),
                                   std::memory_order_release);
        e.rejected.store(false, std::memory_order_relaxed);
        e.scans.store(0, std::memory_order_relaxed);
        e.epoch.store(epoch, std::memory_order_release);  // publish last
      }
    }
    if (EncodingPtr col =
            std::atomic_load_explicit(&e.column, std::memory_order_acquire)) {
      if (col->Covers(spec)) return col;  // lock-free hit
      MutexLock lock(e.mu);
      return ExtendLocked(e, epoch, spec, fill);
    }
    if (e.rejected.load(std::memory_order_relaxed)) return nullptr;
    const size_t threshold = config_.build_after_scans
                             << e.churn.load(std::memory_order_relaxed);
    if (e.scans.fetch_add(1, std::memory_order_relaxed) + 1 < threshold) {
      return nullptr;
    }
    MutexLock lock(e.mu);
    if (std::atomic_load_explicit(&e.column, std::memory_order_acquire)) {
      return ExtendLocked(e, epoch, spec, fill);  // a peer built it meanwhile
    }
    if (e.rejected.load(std::memory_order_relaxed)) return nullptr;
    // Key side first: keys that miss the payoff gate reject the snapshot
    // before any payload column is encoded.
    auto built = std::make_shared<ChunkEncoding>();
    if (!fill(built.get(), std::vector<size_t>()) ||
        built->MeanBitsPerValue() > config_.max_mean_bits ||
        !fill(built.get(), Referenced())) {
      // Vetoed, or doesn't compress: the raw SIMD scan stays cheaper.
      e.rejected.store(true, std::memory_order_relaxed);
      return nullptr;
    }
    return PublishLocked(e, epoch, std::move(built));
  }

  /// Drops one slot's cached encoding and state (tiered storage: an evicted
  /// chunk stops consulting the cache entirely, so without this its last
  /// encoding would hold memory until the slot is next touched — the
  /// opposite of what eviction is for).
  void Invalidate(size_t slot) {
    Entry& e = *entries_[slot];
    MutexLock lock(e.mu);
    std::atomic_store_explicit(&e.column, EncodingPtr(),
                               std::memory_order_release);
    e.scans.store(0, std::memory_order_relaxed);
    e.rejected.store(false, std::memory_order_relaxed);
    e.epoch.store(kNoEpoch, std::memory_order_release);
  }

  /// Bytes held by live encodings (memory-amplification reporting).
  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& e : entries_) {
      if (const EncodingPtr col = std::atomic_load_explicit(
              &e->column, std::memory_order_acquire)) {
        bytes += col->CompressedBytes();
      }
    }
    return bytes;
  }

  /// True when `slot` currently holds a live encoding (test hook).
  bool HasEncoding(size_t slot) const { return Snapshot(slot) != nullptr; }

  /// The snapshot `slot` currently holds, whatever its epoch (test hook).
  EncodingPtr Snapshot(size_t slot) const {
    return std::atomic_load_explicit(&entries_[slot]->column,
                                     std::memory_order_acquire);
  }

  /// The payload columns any scan has referenced so far, ascending.
  std::vector<size_t> Referenced() const {
    std::vector<size_t> cols;
    for (size_t c = 0; c < payload_cols_; ++c) {
      if ((referenced_[c / 64].load(std::memory_order_relaxed) >> (c % 64)) &
          1) {
        cols.push_back(c);
      }
    }
    return cols;
  }

 private:
  static constexpr uint64_t kNoEpoch = ~uint64_t{0};

  struct Entry {
    std::atomic<uint64_t> epoch{kNoEpoch};
    std::atomic<uint32_t> scans{0};
    /// Builds lost to writes; left-shifts the scan threshold (backoff).
    std::atomic<unsigned> churn{0};
    std::atomic<bool> rejected{false};
    /// Build/extend/reset serialization only; hits bypass it. No field is
    /// GUARDED_BY(mu): every one is an atomic that the hit path reads
    /// lock-free BY DESIGN — validity comes from the epoch protocol (callers
    /// hold the chunk latch shared, so all concurrent callers carry the same
    /// epoch), not from mutual exclusion. The capability wrapper still lets
    /// the analysis check the build/reset sections for double-lock and
    /// leaked holds. `column` is accessed through the std::atomic_load/store
    /// shared_ptr free functions.
    mutable Mutex mu;
    EncodingPtr column;
  };

  /// ORs the spec's payload columns into the referenced set (lock-free; a
  /// column already in the set costs one relaxed load).
  void Reference(const ScanSpec& spec) {
    spec.ForEachPayloadColumn([&](size_t c) {
      if (c >= payload_cols_) return;
      std::atomic<uint64_t>& word = referenced_[c / 64];
      const uint64_t bit = uint64_t{1} << (c % 64);
      if ((word.load(std::memory_order_relaxed) & bit) == 0) {
        word.fetch_or(bit, std::memory_order_relaxed);
      }
    });
  }

  /// Copy-on-write extension of the slot's snapshot with every referenced
  /// column it lacks; readers holding the old snapshot keep using it. Runs
  /// under e.mu, so it serializes with builds, resets and other extensions.
  template <typename FillFn>
  EncodingPtr ExtendLocked(Entry& e, uint64_t epoch, const ScanSpec& spec,
                           FillFn&& fill) {
    EncodingPtr cur =
        std::atomic_load_explicit(&e.column, std::memory_order_acquire);
    if (cur == nullptr || cur->Covers(spec)) return cur;  // a peer extended
    std::vector<size_t> missing;
    for (const size_t c : Referenced()) {
      if (!cur->Built(c)) missing.push_back(c);
    }
    auto next = std::make_shared<ChunkEncoding>(*cur);
    if (!fill(next.get(), missing)) return cur;
    return PublishLocked(e, epoch, std::move(next));
  }

  /// The encode ran outside the chunk latch's exclusive side only because
  /// callers hold it shared — but callers that release and re-acquire the
  /// latch around GetOrBuild (or encoders that read unlatched state) could
  /// race a write. Re-check the slot's epoch before publishing: if a write
  /// advanced it mid-encode, the snapshot may be torn, so neither publish
  /// nor serve it.
  EncodingPtr PublishLocked(Entry& e, uint64_t epoch,
                            std::shared_ptr<ChunkEncoding> enc) {
    if (e.epoch.load(std::memory_order_acquire) != epoch) return nullptr;
    EncodingPtr published = std::move(enc);
    std::atomic_store_explicit(&e.column, published,
                               std::memory_order_release);
    return published;
  }

  Config config_;
  // unique_ptr keeps the owning table movable (Entry holds a mutex).
  std::vector<std::unique_ptr<Entry>> entries_;
  size_t payload_cols_ = 0;
  /// Bit c set = some scan has referenced payload column c (never cleared:
  /// the set records which columns the workload reads, across epochs).
  std::vector<std::atomic<uint64_t>> referenced_;
};

/// Slot-0 snapshot of a dense single-slot layout (Sorted, NoOrder, the
/// DeltaStore main run): rows are positional, so packed row == row position
/// (DeltaStore's tombstoned rows included: the evaluator filters them before
/// it reads a packed value). Keys go into fixed 4096-value FoR frames, which
/// carry the payoff gate and the memory accounting; payload columns are
/// advised as read-only, since these layouts keep no per-chunk counters and
/// the cache's own vote already gated the build. `vote == false` is the
/// hit-only path for per-morsel shard scans: a 16-way fan-out must not cast
/// 16 read-mostly votes for one query. Callers hold the layout latch shared
/// and pass its epoch.
CompressedChunkCache::EncodingPtr DenseEncoding(
    CompressedChunkCache& cache, uint64_t epoch, const std::vector<Value>& keys,
    const std::vector<std::vector<Payload>>& payload, const ScanSpec& spec,
    bool vote);

}  // namespace casper

#endif  // CASPER_STORAGE_COMPRESSED_CACHE_H_
