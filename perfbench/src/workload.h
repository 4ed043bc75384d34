#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/casper_engine.h"
#include "storage/types.h"
#include "workload/ops.h"

namespace perfbench {

using casper::Payload;
using casper::Value;

/// The client's request kinds. Q6 is a predicated sum that the engine's
/// Operation enum has no kind for, so the benchmark keeps its own.
enum class Kind : uint8_t {
  kPoint,
  kCount,
  kSum,
  kQ6,
  kMin,
  kMax,
  kAvg,
  kInsert,
  kDelete,
  kUpdate,
};

/// Latency classes a request is reported under.
enum class OpClass : uint8_t { kPoint, kRange, kWrite };

inline OpClass ClassOf(Kind k) {
  if (k == Kind::kPoint) return OpClass::kPoint;
  if (k >= Kind::kInsert) return OpClass::kWrite;
  return OpClass::kRange;
}

struct Op {
  Kind kind = Kind::kPoint;
  Value a = 0;  ///< key, range start, or update source
  Value b = 0;  ///< range end (exclusive) or update destination
};

/// Fixed Q6 predicate: discount in [kQ6DiscLo, kQ6DiscHi], quantity below
/// kQ6QtyMax (payload columns 1 and 0; the product reads column 2).
constexpr Payload kQ6DiscLo = 500;
constexpr Payload kQ6DiscHi = 4000;
constexpr Payload kQ6QtyMax = 5000;

/// Range sums read payload columns {0, 1} (the engine's DefaultSumColumns);
/// min/max/avg read column 0. The mixed runner derives the same specs.
casper::ScanSpec SpecFor(const Op& op);
casper::Operation ToOperation(const Op& op);

/// A hot band of the unit key domain: with probability `prob` a draw falls
/// uniformly in [start, start + width), otherwise uniformly in [0, 1).
struct Band {
  double start = 0.0;
  double width = 1.0;
  double prob = 0.0;
};

/// Request mix of one traffic phase (fractions sum to 1).
struct Mix {
  double point = 0, count = 0, sum = 0, q6 = 0, min = 0, max = 0, avg = 0;
  double insert = 0, del = 0, update = 0;
  Band read;                    ///< point lookups
  Band scan;                    ///< range reads
  Band write;
  Band update_to;               ///< where updates move a row (default uniform)
  double selectivity = 0.0005;  ///< range width as a share of the domain
};

/// Everything that defines one workload: table shape, engine options, the
/// traffic phases, and the fixed cadence of maintenance/tier cycles.
struct WorkloadSpec {
  std::string name;
  size_t rows = 0;
  size_t payload_cols = 0;
  size_t chunk_values = 0;
  /// Traced runs also replay the stream on an engine owning a pool of this
  /// many threads (0 = no such replay) and compare it with the serial one.
  size_t compare_pool_threads = 0;
  bool maintenance = false;
  size_t cycle_every_ops = 0;     ///< 0 = no cycles
  size_t batch_ops = 0;           ///< > 0: requests are RunMixed batches
  bool durable = false;           ///< store + memory budget (see workload.cc)
  /// Nominal requests per second: each replay times --seconds * this /
  /// replays ops after the warm-up, a count fixed by the arguments alone, so
  /// the same seed always replays the same stream (determinism guard).
  size_t ops_per_second = 0;
  /// Untimed prefix of every replay (a multiple of batch_ops): lets the
  /// chunk-encoding cache, and the tier's first budget pass, settle before
  /// the clock starts.
  size_t warmup_ops = 0;
  /// Untraced runs open a fresh engine and replay the whole stream this many
  /// times; end-to-end metrics are medians (or pooled percentiles) over them.
  size_t replays = 5;
  std::vector<Mix> phases;        ///< the stream splits evenly over them

  size_t RowBytes() const { return sizeof(Value) + payload_cols * sizeof(Payload); }
  casper::Value DomainHi() const { return static_cast<Value>(rows) * 4; }
};

/// The four workloads by name; false when `name` is unknown.
bool LookupWorkload(const std::string& name, WorkloadSpec* out);
std::vector<std::string> WorkloadNames();

/// Pinned access-cost constants (ns): the median of five
/// CalibrateEngineCosts(512) calls on the reference host. Calibrating on
/// every Open varies ~7% per call and solves a different layout each run.
constexpr double kPinnedRandomNs = 19.0;
constexpr double kPinnedSequentialNs = 600.0;

/// The generated inputs of one run.
struct Inputs {
  std::vector<Value> keys;                     ///< unsorted, distinct
  std::vector<std::vector<Payload>> payload;   ///< [col][row]
  std::vector<casper::Operation> training;     ///< Casper's training sample
  std::vector<Op> ops;                         ///< the timed stream
};

/// Key residues keep the logical table deterministic whatever physical row
/// a layout picks among duplicates: loaded keys are 0 mod 4 (distinct),
/// inserts write 1 mod 4 (key-derived payload, so duplicates are identical),
/// updates move a 0-mod-4 row to a 2-mod-4 key, and deletes only target
/// residues 0 and 1.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t num_ops);

/// Engine options for one Open of this workload, without the table data:
/// callers add copies of the keys/payload for a fresh Open and leave them
/// empty to recover an existing store.
casper::EngineOptions MakeEngineOptions(
    const WorkloadSpec& spec, const std::vector<casper::Operation>* training,
    const std::string& storage_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
