#include "layouts/sorted.h"

#include <algorithm>

#include "exec/scan_kernels.h"
#include "util/status.h"

namespace casper {

SortedLayout::SortedLayout(std::vector<Value> keys,
                           std::vector<std::vector<Payload>> payload)
    : payload_cols_(payload.size()),
      keys_(std::move(keys)),
      payload_(std::move(payload)) {
  CASPER_CHECK(std::is_sorted(keys_.begin(), keys_.end()));
  for (const auto& col : payload_) CASPER_CHECK(col.size() == keys_.size());
}

size_t SortedLayout::PointLookup(Value key, std::vector<Payload>* payload) const {
  SharedChunkGuard guard(engine_latch_);
  const auto [first, last] = std::equal_range(keys_.begin(), keys_.end(), key);
  const size_t count = static_cast<size_t>(last - first);
  if (payload != nullptr) {
    payload->clear();
    if (count > 0) {
      const size_t i = static_cast<size_t>(first - keys_.begin());
      for (const auto& col : payload_) payload->push_back(col[i]);
    }
  }
  return count;
}

std::pair<size_t, size_t> SortedLayout::ShardWindow(size_t shard, Value lo,
                                                    Value hi) const {
  return SortedShardWindow(keys_, kShardRows, shard, lo, hi);
}

ScanPartial SortedLayout::EvalWindowLocked(size_t first, size_t last,
                                           const ScanSpec& spec,
                                           bool count_vote) const {
  ScanPartial out;
  if (!spec.RefsValid(payload_.size())) return out;
  if (first >= last) return out;
  // Binary search already isolated the qualifying rows, so evaluation runs
  // with the key predicate resolved: counts are the window width, sums are
  // unconditional vector sums, predicates filter within the window.
  exec::SpecRows rows;
  rows.keys = keys_.data() + first;
  rows.n = last - first;
  rows.base = static_cast<uint32_t>(first);
  rows.cols = &payload_;
  rows.key_check = false;
  // Sorted rows are dense: packed row == row position, so any cached packed
  // payload column serves this window directly. Keep the snapshot alive
  // across the evaluation (rows.packed points into it).
  CompressedChunkCache::EncodingPtr enc;
  if (spec.TouchesPayload()) {
    enc = DenseEncoding(compressed_, engine_latch_.Epoch(), keys_, payload_,
                        spec, count_vote);
    if (enc != nullptr) {
      rows.packed = &enc->payload;
      rows.packed_base = first;
    }
  }
  return exec::EvalSpecRows(spec, rows);
}

ScanPartial SortedLayout::ExecuteScan(const ScanSpec& spec) const {
  SharedChunkGuard guard(engine_latch_);
  if (spec.full_domain) return EvalWindowLocked(0, keys_.size(), spec);
  if (spec.EmptyKeyRange()) return ScanPartial{};
  const size_t first =
      static_cast<size_t>(std::lower_bound(keys_.begin(), keys_.end(), spec.lo) -
                          keys_.begin());
  const size_t last = static_cast<size_t>(
      std::lower_bound(keys_.begin() + static_cast<ptrdiff_t>(first), keys_.end(),
                       spec.hi) -
      keys_.begin());
  return EvalWindowLocked(first, last, spec);
}

ScanPartial SortedLayout::ScanSpecShard(size_t shard, const ScanSpec& spec) const {
  SharedChunkGuard guard(engine_latch_);
  if (spec.full_domain) {
    // Sorted rows are all live; the full-domain window is the whole shard
    // (unlike a [kMinValue + 1, kMaxValue) range, this includes both domain
    // edges).
    const size_t begin = shard * kShardRows;
    if (begin >= keys_.size()) return ScanPartial{};
    return EvalWindowLocked(begin, std::min(keys_.size(), begin + kShardRows),
                            spec, /*count_vote=*/shard == 0);
  }
  const auto [first, last] = ShardWindow(shard, spec.lo, spec.hi);
  return EvalWindowLocked(first, last, spec, /*count_vote=*/shard == 0);
}

void SortedLayout::Insert(Value key, const std::vector<Payload>& payload) {
  ExclusiveChunkGuard guard(engine_latch_);
  InsertLocked(key, payload);
}

void SortedLayout::InsertLocked(Value key, const std::vector<Payload>& payload) {
  CASPER_CHECK(payload.size() == payload_.size());
  const size_t pos = static_cast<size_t>(
      std::upper_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  keys_.insert(keys_.begin() + static_cast<ptrdiff_t>(pos), key);
  for (size_t c = 0; c < payload_.size(); ++c) {
    payload_[c].insert(payload_[c].begin() + static_cast<ptrdiff_t>(pos), payload[c]);
  }
}

size_t SortedLayout::Delete(Value key) {
  ExclusiveChunkGuard guard(engine_latch_);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return 0;
  const size_t pos = static_cast<size_t>(it - keys_.begin());
  keys_.erase(it);
  for (auto& col : payload_) col.erase(col.begin() + static_cast<ptrdiff_t>(pos));
  return 1;
}

bool SortedLayout::UpdateKey(Value old_key, Value new_key) {
  ExclusiveChunkGuard guard(engine_latch_);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), old_key);
  if (it == keys_.end() || *it != old_key) return false;
  const size_t pos = static_cast<size_t>(it - keys_.begin());
  std::vector<Payload> row(payload_.size());
  for (size_t c = 0; c < payload_.size(); ++c) row[c] = payload_[c][pos];
  keys_.erase(it);
  for (auto& col : payload_) col.erase(col.begin() + static_cast<ptrdiff_t>(pos));
  InsertLocked(new_key, row);
  return true;
}

void SortedLayout::MergeRowsLocked(std::vector<Row> rows) {
  // Stable sort keeps batch order among equal keys, and the <= tie-break
  // toward the existing run reproduces upper_bound placement — the merged
  // column is exactly what sequential Insert calls would have produced.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.key < b.key; });

  const size_t total = keys_.size() + rows.size();
  std::vector<Value> merged_keys;
  merged_keys.reserve(total);
  std::vector<std::vector<Payload>> merged_payload(payload_.size());
  for (auto& col : merged_payload) col.reserve(total);

  size_t mi = 0;
  size_t bi = 0;
  while (mi < keys_.size() || bi < rows.size()) {
    const bool take_main =
        mi < keys_.size() && (bi >= rows.size() || keys_[mi] <= rows[bi].key);
    if (take_main) {
      merged_keys.push_back(keys_[mi]);
      for (size_t c = 0; c < payload_.size(); ++c) {
        merged_payload[c].push_back(payload_[c][mi]);
      }
      ++mi;
    } else {
      merged_keys.push_back(rows[bi].key);
      for (size_t c = 0; c < payload_.size(); ++c) {
        merged_payload[c].push_back(rows[bi].payload[c]);
      }
      ++bi;
    }
  }
  keys_ = std::move(merged_keys);
  payload_ = std::move(merged_payload);
}

void SortedLayout::MergeInsertRun(const std::vector<Value>& batch_keys) {
  std::vector<Row> rows(batch_keys.size());
  for (size_t i = 0; i < batch_keys.size(); ++i) {
    rows[i].key = batch_keys[i];
    KeyDerivedPayload(batch_keys[i], payload_.size(), &rows[i].payload);
  }
  MergeRowsLocked(std::move(rows));
}

void SortedLayout::InsertRows(const Row* rows, size_t n, ThreadPool* /*pool*/) {
  std::vector<Row> run(rows, rows + n);
  // payload_cols_ (not payload_.size()): the check runs before the latch is
  // taken, so it may only read immutable state.
  for (const Row& r : run) CASPER_CHECK(r.payload.size() == payload_cols_);
  ExclusiveChunkGuard guard(engine_latch_);
  MergeRowsLocked(std::move(run));
}

BatchResult SortedLayout::ApplyBatch(const Operation* ops, size_t n,
                                     ThreadPool* pool) {
  return ApplyBatchInsertRuns(
      *this, ops, n,
      [&](const std::vector<Value>& run) {
        ExclusiveChunkGuard guard(engine_latch_);
        MergeInsertRun(run);
      },
      pool);
}

LayoutMemoryStats SortedLayout::MemoryStats() const {
  SharedChunkGuard guard(engine_latch_);
  LayoutMemoryStats s;
  s.data_bytes = keys_.size() * sizeof(Value) +
                 payload_.size() * keys_.size() * sizeof(Payload);
  // A live compressed encoding is real resident memory, same as the
  // partitioned table's accounting.
  s.total_bytes = s.data_bytes + compressed_.MemoryBytes();
  return s;
}

void SortedLayout::ValidateInvariants() const {
  SharedChunkGuard guard(engine_latch_);
  CASPER_CHECK(std::is_sorted(keys_.begin(), keys_.end()));
  for (const auto& col : payload_) CASPER_CHECK(col.size() == keys_.size());
}

}  // namespace casper
