#include "layouts/delta_store.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "exec/scan_kernels.h"
#include "util/status.h"

namespace casper {

DeltaStoreLayout::DeltaStoreLayout(std::vector<Value> keys,
                                   std::vector<std::vector<Payload>> payload,
                                   Options options)
    : opts_(options),
      payload_cols_(payload.size()),
      main_keys_(std::move(keys)),
      main_payload_(std::move(payload)),
      deleted_(main_keys_.size(), 0),
      main_live_(main_keys_.size()),
      delta_payload_(main_payload_.size()) {
  CASPER_CHECK(std::is_sorted(main_keys_.begin(), main_keys_.end()));
  for (const auto& col : main_payload_) CASPER_CHECK(col.size() == main_keys_.size());
}

DeltaStoreLayout::DeltaStoreLayout(std::vector<Value> keys,
                                   std::vector<std::vector<Payload>> payload)
    : DeltaStoreLayout(std::move(keys), std::move(payload), Options()) {}

size_t DeltaStoreLayout::PointLookup(Value key, std::vector<Payload>* payload) const {
  SharedChunkGuard guard(engine_latch_);
  return PointLookupLocked(key, payload);
}

size_t DeltaStoreLayout::PointLookupLocked(Value key,
                                           std::vector<Payload>* payload) const {
  size_t count = 0;
  size_t first_main = main_keys_.size();
  const auto [lo, hi] = std::equal_range(main_keys_.begin(), main_keys_.end(), key);
  for (auto it = lo; it != hi; ++it) {
    const size_t i = static_cast<size_t>(it - main_keys_.begin());
    if (!deleted_[i]) {
      if (count == 0) first_main = i;
      ++count;
    }
  }
  size_t first_delta = delta_keys_.size();
  const uint64_t delta_matches =
      kernels::CountEqual(delta_keys_.data(), delta_keys_.size(), key);
  count += delta_matches;
  // Find-first only when the caller wants a payload row back: count-only
  // lookups already have their answer from the vector count.
  if (payload != nullptr && delta_matches > 0) {
    first_delta =
        kernels::FindFirstEqual(delta_keys_.data(), delta_keys_.size(), key);
  }
  if (payload != nullptr) {
    payload->clear();
    if (first_main < main_keys_.size()) {
      for (const auto& col : main_payload_) payload->push_back(col[first_main]);
    } else if (first_delta < delta_keys_.size()) {
      for (const auto& col : delta_payload_) payload->push_back(col[first_delta]);
    }
  }
  return count;
}

ScanPartial DeltaStoreLayout::EvalMainWindowLocked(size_t first, size_t last,
                                                   const ScanSpec& spec,
                                                   bool count_vote) const {
  ScanPartial out;
  if (first >= last) return out;
  // Window rows already satisfy the key predicate; the tombstone bitmap
  // drops deleted rows. Predicate-free counts reduce to window width minus
  // the bitmap byte sum and predicate-free sums over a tombstone-free
  // window to the unconditional vector sum — both are EvalSpecRows' own
  // fast paths, so there is exactly one copy of that invariant.
  exec::SpecRows rows;
  rows.keys = main_keys_.data() + first;
  rows.n = last - first;
  rows.base = static_cast<uint32_t>(first);
  rows.cols = &main_payload_;
  // O(1) short-circuit for the common case (deletes are rare and merges
  // compact them away): a store with no tombstones at all skips the
  // per-window bitmap byte scans entirely.
  rows.tombstones = main_live_ == main_keys_.size() ? nullptr : deleted_.data();
  rows.key_check = false;
  // Packed payload columns serve the main window directly (packed row ==
  // main-store position); keep the snapshot alive across the evaluation.
  CompressedChunkCache::EncodingPtr enc;
  if (spec.TouchesPayload()) {
    enc = DenseEncoding(compressed_, engine_latch_.Epoch(), main_keys_,
                        main_payload_, spec, count_vote);
    if (enc != nullptr) {
      rows.packed = &enc->payload;
      rows.packed_base = first;
    }
  }
  return exec::EvalSpecRows(spec, rows);
}

ScanPartial DeltaStoreLayout::EvalDeltaLocked(const ScanSpec& spec) const {
  exec::SpecRows rows;
  rows.keys = delta_keys_.data();
  rows.n = delta_keys_.size();
  rows.base = 0;
  rows.cols = &delta_payload_;
  return exec::EvalSpecRows(spec, rows);
}

ScanPartial DeltaStoreLayout::ExecuteScan(const ScanSpec& spec) const {
  SharedChunkGuard guard(engine_latch_);
  ScanPartial out;
  if (!spec.RefsValid(main_payload_.size()) || spec.EmptyKeyRange()) return out;
  if (spec.full_domain) {
    out = EvalMainWindowLocked(0, main_keys_.size(), spec);
  } else {
    const size_t first = static_cast<size_t>(
        std::lower_bound(main_keys_.begin(), main_keys_.end(), spec.lo) -
        main_keys_.begin());
    const size_t last = static_cast<size_t>(
        std::lower_bound(main_keys_.begin() + static_cast<ptrdiff_t>(first),
                         main_keys_.end(), spec.hi) -
        main_keys_.begin());
    out = EvalMainWindowLocked(first, last, spec);
  }
  out.Merge(EvalDeltaLocked(spec));
  return out;
}

std::pair<size_t, size_t> DeltaStoreLayout::MainShardWindow(size_t shard, Value lo,
                                                            Value hi) const {
  return SortedShardWindow(main_keys_, kMainShardRows, shard, lo, hi);
}

ScanPartial DeltaStoreLayout::ScanSpecShard(size_t shard,
                                            const ScanSpec& spec) const {
  SharedChunkGuard guard(engine_latch_);
  if (!spec.RefsValid(main_payload_.size())) return ScanPartial{};
  if (shard < NumMainShards()) {
    if (spec.full_domain) {
      // Full-domain window: no range predicate, so rows at both key-domain
      // edges are covered; the tombstone bitmap is applied inside.
      const size_t begin = shard * kMainShardRows;
      if (begin >= main_keys_.size()) return ScanPartial{};
      return EvalMainWindowLocked(
          begin, std::min(main_keys_.size(), begin + kMainShardRows), spec,
          /*count_vote=*/shard == 0);
    }
    const auto [first, last] = MainShardWindow(shard, spec.lo, spec.hi);
    return EvalMainWindowLocked(first, last, spec, /*count_vote=*/shard == 0);
  }
  return EvalDeltaLocked(spec);
}

void DeltaStoreLayout::Insert(Value key, const std::vector<Payload>& payload) {
  ExclusiveChunkGuard guard(engine_latch_);
  InsertLocked(key, payload);
}

void DeltaStoreLayout::InsertLocked(Value key, const std::vector<Payload>& payload) {
  CASPER_CHECK(payload.size() == main_payload_.size());
  delta_keys_.push_back(key);
  for (size_t c = 0; c < payload.size(); ++c) delta_payload_[c].push_back(payload[c]);
  MaybeMerge();
}

void DeltaStoreLayout::InsertRows(const Row* rows, size_t n, ThreadPool* /*pool*/) {
  ExclusiveChunkGuard guard(engine_latch_);
  delta_keys_.reserve(delta_keys_.size() + n);
  for (size_t i = 0; i < n; ++i) {
    CASPER_CHECK(rows[i].payload.size() == main_payload_.size());
    delta_keys_.push_back(rows[i].key);
    for (size_t c = 0; c < main_payload_.size(); ++c) {
      delta_payload_[c].push_back(rows[i].payload[c]);
    }
  }
  // One merge check for the whole run, like the batched Operation path.
  MaybeMerge();
}

size_t DeltaStoreLayout::Delete(Value key) {
  ExclusiveChunkGuard guard(engine_latch_);
  return DeleteLocked(key);
}

size_t DeltaStoreLayout::DeleteLocked(Value key) {
  // Prefer the delta (cheap swap-remove), then tombstone the main store.
  const size_t i =
      kernels::FindFirstEqual(delta_keys_.data(), delta_keys_.size(), key);
  if (i < delta_keys_.size()) {
    delta_keys_[i] = delta_keys_.back();
    delta_keys_.pop_back();
    for (auto& col : delta_payload_) {
      col[i] = col.back();
      col.pop_back();
    }
    return 1;
  }
  const auto [lo, hi] = std::equal_range(main_keys_.begin(), main_keys_.end(), key);
  for (auto it = lo; it != hi; ++it) {
    const size_t i = static_cast<size_t>(it - main_keys_.begin());
    if (!deleted_[i]) {
      deleted_[i] = 1;
      --main_live_;
      return 1;
    }
  }
  return 0;
}

bool DeltaStoreLayout::UpdateKey(Value old_key, Value new_key) {
  // Classic delta-store update: delete + re-insert (paper §3 "Updates"),
  // atomic under one exclusive hold of the engine latch.
  ExclusiveChunkGuard guard(engine_latch_);
  std::vector<Payload> row;
  if (PointLookupLocked(old_key, &row) == 0) return false;
  DeleteLocked(old_key);
  InsertLocked(new_key, row);
  return true;
}

void DeltaStoreLayout::LookupBatch(const Value* keys, size_t n,
                                   uint64_t* out_counts,
                                   ThreadPool* /*pool*/) const {
  if (n == 0) return;
  SharedChunkGuard guard(engine_latch_);
  // One delta pass for the whole run; the sorted main store stays per-key
  // binary searches (already cheap).
  std::unordered_map<Value, uint64_t> delta_counts;
  delta_counts.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) delta_counts.emplace(keys[i], 0);
  for (const Value k : delta_keys_) {
    const auto it = delta_counts.find(k);
    if (it != delta_counts.end()) ++it->second;
  }
  for (size_t i = 0; i < n; ++i) {
    const auto [lo, hi] =
        std::equal_range(main_keys_.begin(), main_keys_.end(), keys[i]);
    uint64_t count = 0;
    for (auto it = lo; it != hi; ++it) {
      count += !deleted_[static_cast<size_t>(it - main_keys_.begin())];
    }
    out_counts[i] = count + delta_counts.find(keys[i])->second;
  }
}

BatchResult DeltaStoreLayout::ApplyBatch(const Operation* ops, size_t n,
                                         ThreadPool* pool) {
  std::vector<Payload> row;
  return ApplyBatchInsertRuns(
      *this, ops, n,
      [&](const std::vector<Value>& run) {
        ExclusiveChunkGuard guard(engine_latch_);
        delta_keys_.reserve(delta_keys_.size() + run.size());
        for (const Value key : run) {
          delta_keys_.push_back(key);
          KeyDerivedPayload(key, main_payload_.size(), &row);
          for (size_t c = 0; c < main_payload_.size(); ++c) {
            delta_payload_[c].push_back(row[c]);
          }
        }
        MaybeMerge();
      },
      pool);
}

size_t DeltaStoreLayout::num_rows() const {
  SharedChunkGuard guard(engine_latch_);
  return main_live_ + delta_keys_.size();
}

void DeltaStoreLayout::MaybeMerge() {
  const size_t threshold =
      std::max(opts_.min_merge_rows,
               static_cast<size_t>(opts_.merge_fraction *
                                   static_cast<double>(main_keys_.size())));
  if (delta_keys_.size() >= threshold) MergeLocked();
}

void DeltaStoreLayout::Merge() {
  ExclusiveChunkGuard guard(engine_latch_);
  MergeLocked();
}

void DeltaStoreLayout::MergeLocked() {
  // Sort the delta (with payload permutation), then merge with the live part
  // of the main store.
  std::vector<size_t> order(delta_keys_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return delta_keys_[a] < delta_keys_[b]; });

  std::vector<Value> merged_keys;
  merged_keys.reserve(main_live_ + delta_keys_.size());
  std::vector<std::vector<Payload>> merged_payload(main_payload_.size());
  for (auto& col : merged_payload) col.reserve(main_live_ + delta_keys_.size());

  size_t mi = 0;
  size_t di = 0;
  while (mi < main_keys_.size() || di < order.size()) {
    while (mi < main_keys_.size() && deleted_[mi]) ++mi;
    const bool take_main =
        mi < main_keys_.size() &&
        (di >= order.size() || main_keys_[mi] <= delta_keys_[order[di]]);
    if (take_main) {
      merged_keys.push_back(main_keys_[mi]);
      for (size_t c = 0; c < main_payload_.size(); ++c) {
        merged_payload[c].push_back(main_payload_[c][mi]);
      }
      ++mi;
    } else if (di < order.size()) {
      const size_t row = order[di];
      merged_keys.push_back(delta_keys_[row]);
      for (size_t c = 0; c < main_payload_.size(); ++c) {
        merged_payload[c].push_back(delta_payload_[c][row]);
      }
      ++di;
    } else {
      break;
    }
  }

  main_keys_ = std::move(merged_keys);
  main_payload_ = std::move(merged_payload);
  deleted_.assign(main_keys_.size(), 0);
  main_live_ = main_keys_.size();
  delta_keys_.clear();
  for (auto& col : delta_payload_) col.clear();
  ++merges_;
}

LayoutMemoryStats DeltaStoreLayout::MemoryStats() const {
  SharedChunkGuard guard(engine_latch_);
  LayoutMemoryStats s;
  const size_t row_bytes = sizeof(Value) + main_payload_.size() * sizeof(Payload);
  // Direct fields, not num_rows(): this method already holds the latch.
  s.data_bytes = (main_live_ + delta_keys_.size()) * row_bytes;
  s.total_bytes = (main_keys_.size() + delta_keys_.size()) * row_bytes +
                  deleted_.size() * sizeof(uint8_t) + compressed_.MemoryBytes();
  return s;
}

void DeltaStoreLayout::ValidateInvariants() const {
  SharedChunkGuard guard(engine_latch_);
  CASPER_CHECK(std::is_sorted(main_keys_.begin(), main_keys_.end()));
  CASPER_CHECK(deleted_.size() == main_keys_.size());
  size_t live = 0;
  for (const uint8_t d : deleted_) live += (d == 0);
  CASPER_CHECK(live == main_live_);
  for (const auto& col : main_payload_) CASPER_CHECK(col.size() == main_keys_.size());
  for (const auto& col : delta_payload_) CASPER_CHECK(col.size() == delta_keys_.size());
}

}  // namespace casper
