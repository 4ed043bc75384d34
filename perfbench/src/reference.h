#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "workload.h"

namespace perfbench {

/// The correctness oracle: a deliberately plain model of the logical table
/// that shares no code with the engine. Rows live in key-range buckets as
/// (key, payload columns 0..2) tuples — the only columns any request reads.
/// A range answer scans the edge buckets row by row and takes whole inner
/// buckets from a per-bucket aggregate that any write to the bucket drops.
class ReferenceModel {
 public:
  ReferenceModel(Value domain_hi, const std::vector<Value>& keys,
                 const std::vector<std::vector<Payload>>& payload)
      : buckets_(static_cast<size_t>(domain_hi / kBucketKeys) + 1) {
    for (size_t i = 0; i < keys.size(); ++i) {
      Add({keys[i], payload[0][i], payload[1][i], payload[2][i]});
    }
  }

  /// The engine's answer to `op`, as the benchmark records it: match count
  /// for points, ScanPartial::Result for ranges (the Q6 sum's bit pattern),
  /// rows deleted for deletes, 1/0 for updates, 0 for inserts.
  uint64_t Apply(const Op& op) {
    switch (op.kind) {
      case Kind::kPoint: {
        uint64_t n = 0;
        for (const Row& r : BucketOf(op.a).rows) n += r.key == op.a;
        return n;
      }
      case Kind::kInsert: {
        // KeyDerivedPayload: column c holds (|key| * (c + 1)) % 10000.
        const uint64_t k = static_cast<uint64_t>(op.a < 0 ? -op.a : op.a);
        Add({op.a, static_cast<Payload>(k % 10000),
             static_cast<Payload>((k * 2) % 10000),
             static_cast<Payload>((k * 3) % 10000)});
        return 0;
      }
      case Kind::kDelete: {
        Row r;
        return Take(op.a, &r) ? 1 : 0;
      }
      case Kind::kUpdate: {
        Row r;
        if (!Take(op.a, &r)) return 0;
        r.key = op.b;
        Add(r);
        return 1;
      }
      default:
        return Range(op);
    }
  }

 private:
  static constexpr Value kBucketKeys = 2048;

  struct Row {
    Value key = 0;
    Payload p0 = 0, p1 = 0, p2 = 0;
  };

  /// Every aggregate the range kinds need, over one set of rows.
  struct Agg {
    uint64_t count = 0;
    uint64_t sum01 = 0;  ///< wrapping sum of columns 0 and 1
    uint64_t sum0 = 0;
    uint64_t q6 = 0;     ///< wrapping sum of p2 * p1 under the Q6 predicate
    Payload min0 = std::numeric_limits<Payload>::max();
    Payload max0 = 0;

    void Add(const Row& r) {
      ++count;
      sum01 += uint64_t{r.p0} + r.p1;
      sum0 += r.p0;
      if (r.p1 >= kQ6DiscLo && r.p1 <= kQ6DiscHi && r.p0 < kQ6QtyMax) {
        q6 += static_cast<uint64_t>(static_cast<int64_t>(r.p2) *
                                    static_cast<int64_t>(r.p1));
      }
      min0 = std::min(min0, r.p0);
      max0 = std::max(max0, r.p0);
    }
    void Merge(const Agg& o) {
      count += o.count;
      sum01 += o.sum01;
      sum0 += o.sum0;
      q6 += o.q6;
      min0 = std::min(min0, o.min0);
      max0 = std::max(max0, o.max0);
    }
  };

  struct Bucket {
    std::vector<Row> rows;
    Agg agg;
    bool agg_valid = false;
  };

  Bucket& BucketOf(Value key) { return buckets_[static_cast<size_t>(key / kBucketKeys)]; }

  void Add(const Row& r) {
    Bucket& b = BucketOf(r.key);
    b.rows.push_back(r);
    b.agg_valid = false;
  }

  /// Removes one row keyed `key` (any one: the key residues make rows that
  /// share a deletable key identical).
  bool Take(Value key, Row* out) {
    Bucket& b = BucketOf(key);
    for (size_t i = 0; i < b.rows.size(); ++i) {
      if (b.rows[i].key == key) {
        *out = b.rows[i];
        b.rows[i] = b.rows.back();
        b.rows.pop_back();
        b.agg_valid = false;
        return true;
      }
    }
    return false;
  }

  uint64_t Range(const Op& op) {
    Agg a;
    const size_t first = static_cast<size_t>(op.a / kBucketKeys);
    const size_t last = static_cast<size_t>((op.b - 1) / kBucketKeys);
    for (size_t i = first; i <= last; ++i) {
      Bucket& b = buckets_[i];
      const Value lo = static_cast<Value>(i) * kBucketKeys;
      if (lo >= op.a && lo + kBucketKeys <= op.b) {
        if (!b.agg_valid) {
          b.agg = Agg{};
          for (const Row& r : b.rows) b.agg.Add(r);
          b.agg_valid = true;
        }
        a.Merge(b.agg);
      } else {
        for (const Row& r : b.rows) {
          if (r.key >= op.a && r.key < op.b) a.Add(r);
        }
      }
    }
    switch (op.kind) {
      case Kind::kCount:
        return a.count;
      case Kind::kSum:
        return a.sum01;
      case Kind::kQ6:
        return a.q6;
      case Kind::kMin:
        return a.count > 0 ? a.min0 : 0;
      case Kind::kMax:
        return a.count > 0 ? a.max0 : 0;
      case Kind::kAvg:
        return a.count > 0 ? a.sum0 / a.count : 0;
      default:
        return 0;
    }
  }

  std::vector<Bucket> buckets_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
