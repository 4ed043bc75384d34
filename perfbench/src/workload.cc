#include "workload.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace perfbench {

using casper::OpKind;
using casper::Operation;
using casper::ScanSpec;

ScanSpec SpecFor(const Op& op) {
  switch (op.kind) {
    case Kind::kCount:
      return ScanSpec::Count(op.a, op.b);
    case Kind::kSum:
      return ScanSpec::Sum(op.a, op.b, {0, 1});
    case Kind::kQ6:
      return ScanSpec::Q6(op.a, op.b, kQ6DiscLo, kQ6DiscHi, kQ6QtyMax);
    case Kind::kMin:
      return ScanSpec::Min(op.a, op.b, 0);
    case Kind::kMax:
      return ScanSpec::Max(op.a, op.b, 0);
    case Kind::kAvg:
      return ScanSpec::Avg(op.a, op.b, 0);
    default:
      break;
  }
  CASPER_CHECK_MSG(false, "SpecFor takes range kinds only");
  return ScanSpec{};
}

Operation ToOperation(const Op& op) {
  switch (op.kind) {
    case Kind::kPoint:
      return {OpKind::kPointQuery, op.a, 0};
    case Kind::kCount:
      return {OpKind::kRangeCount, op.a, op.b};
    case Kind::kSum:
    case Kind::kQ6:  // same key range; the mixed runner never sees Q6
      return {OpKind::kRangeSum, op.a, op.b};
    case Kind::kMin:
      return {OpKind::kRangeMin, op.a, op.b};
    case Kind::kMax:
      return {OpKind::kRangeMax, op.a, op.b};
    case Kind::kAvg:
      return {OpKind::kRangeAvg, op.a, op.b};
    case Kind::kInsert:
      return {OpKind::kInsert, op.a, 0};
    case Kind::kDelete:
      return {OpKind::kDelete, op.a, 0};
    case Kind::kUpdate:
      return {OpKind::kUpdate, op.a, op.b};
  }
  return {};
}

namespace {

constexpr size_t kMillion = 1000000;
constexpr size_t kTrainingOps = 20000;
/// Durable workloads: resident budget as a share of user bytes, and journal
/// records per fsync (group commit; FlushWal also runs at each phase end).
constexpr double kMemoryBudgetShare = 0.30;
constexpr size_t kJournalFsyncEvery = 512;

Mix OltpMix() {
  Mix m;
  m.point = 0.45;
  m.count = 0.025;
  m.sum = 0.025;
  m.insert = 0.40;
  m.del = 0.08;
  m.update = 0.02;
  m.read = {0.8, 0.2, 0.9};   // the recent fifth of the domain
  m.scan = m.read;
  m.write = {0.7, 0.3, 0.9};  // ingest just below, overlapping its lower part
  m.selectivity = 0.0005;
  return m;
}

Mix AnalyticsMix() {
  Mix m;
  m.count = 0.25;
  m.sum = 0.15;
  m.q6 = 0.15;
  m.min = 0.134;
  m.max = 0.133;
  m.avg = 0.133;
  m.insert = 0.025;
  m.update = 0.025;
  // Ranges fall uniformly on the history (the lower 85% of the domain:
  // chunks 0..6, which end at 0.9175 of it); the trickle writes append to
  // the newest 5%, inside chunk 7, which no range reads. Every history chunk
  // pays exactly one encoding build per replay and no write invalidates it.
  m.scan = {0.0, 0.85, 1.0};
  m.write = {0.95, 0.05, 1.0};
  m.update_to = m.write;
  m.selectivity = 0.02;
  return m;
}

Mix BatchMix() {
  Mix m;
  m.point = 0.30;
  m.count = 0.10;
  m.sum = 0.10;
  m.min = 0.033;
  m.max = 0.033;
  m.avg = 0.034;
  m.insert = 0.30;
  m.del = 0.08;
  m.update = 0.02;
  // Points and writes share one hot band (chunks 4-5); ranges report on a
  // band no write reaches (chunks 2-3), whose encodings the warm-up builds
  // once. A range on a write-churned chunk would pay an inline encoding
  // build at random times, and a 0.5 s build in a 2 s replay swamps the
  // throughput figure.
  m.read = {0.6, 0.1, 1.0};
  m.scan = {0.3, 0.1, 1.0};
  m.write = {0.6, 0.1, 1.0};
  m.update_to = m.write;
  m.selectivity = 0.0005;
  return m;
}

Mix DriftMix(double band_start) {
  Mix m;
  m.point = 0.60;
  m.count = 0.05;
  m.sum = 0.05;
  m.insert = 0.25;
  m.del = 0.05;
  // One read in twenty falls anywhere, so a few percent of requests read an
  // evicted chunk off disk and the p99 sits inside the cold reads.
  m.read = {band_start, 0.1, 0.95};
  m.scan = m.read;
  m.write = {band_start, 0.1, 1.0};  // writes pin their chunk: all in band
  m.selectivity = 0.0005;
  return m;
}

std::vector<WorkloadSpec> AllWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec oltp;
  oltp.name = "oltp-skewed";
  oltp.rows = 2 * kMillion;
  oltp.payload_cols = 15;
  oltp.chunk_values = size_t{1} << 18;
  oltp.maintenance = true;
  oltp.cycle_every_ops = 20000;
  oltp.ops_per_second = 80000;
  oltp.phases = {OltpMix()};
  all.push_back(oltp);

  WorkloadSpec scan = oltp;
  scan.name = "scan-analytics";
  scan.maintenance = false;
  scan.cycle_every_ops = 0;
  scan.ops_per_second = 500;
  scan.phases = {AnalyticsMix()};
  all.push_back(scan);

  WorkloadSpec batch = oltp;
  batch.name = "mixed-batch";
  batch.compare_pool_threads = 2;
  // Small batches: thousands per replay, so the p99 has samples to spare
  // and the few batches that grow a chunk stay beyond it.
  batch.batch_ops = 64;
  batch.warmup_ops = 16384;  // builds the reporting band's encodings
  // Observed but never cycled: the time stays in the batch runner.
  batch.cycle_every_ops = 0;
  batch.ops_per_second = 200000;
  batch.replays = 7;  // the batch path is the noisiest: median of more replays
  batch.phases = {BatchMix()};
  all.push_back(batch);

  WorkloadSpec tier;
  tier.name = "tiered-drift";
  tier.rows = 2 * kMillion;
  tier.payload_cols = 4;
  tier.chunk_values = size_t{1} << 16;
  tier.maintenance = true;
  tier.cycle_every_ops = 5000;
  tier.durable = true;
  tier.ops_per_second = 6000;
  tier.warmup_ops = 5000;  // ends with the cycle that first meets the budget
  tier.phases = {DriftMix(0.05), DriftMix(0.30), DriftMix(0.55), DriftMix(0.80)};
  all.push_back(tier);
  return all;
}

double Draw(const Band& band, casper::Rng& rng) {
  if (rng.NextDouble() >= band.prob) return rng.NextDouble();
  const double x = band.start + rng.NextDouble() * band.width;
  return x >= 1.0 ? x - 1.0 : x;
}

/// Maps a unit draw to a key of the given residue mod 4 inside [0, hi).
Value KeyAt(double unit, Value hi, Value residue) {
  Value k = static_cast<Value>(unit * static_cast<double>(hi));
  k = std::min(k, hi - 1);
  return (k & ~Value{3}) | residue;
}

Op DrawOp(const Mix& m, Value hi, casper::Rng& rng) {
  const double pick = rng.NextDouble();
  double cum = 0.0;
  auto next = [&](double share) { return pick < (cum += share); };
  Op op;
  if (next(m.point)) {
    op.kind = Kind::kPoint;
    op.a = KeyAt(Draw(m.read, rng), hi, rng.NextDouble() < 0.8 ? 0 : 1);
    return op;
  }
  const Kind range_kinds[] = {Kind::kCount, Kind::kSum, Kind::kQ6,
                              Kind::kMin,   Kind::kMax, Kind::kAvg};
  const double range_shares[] = {m.count, m.sum, m.q6, m.min, m.max, m.avg};
  for (size_t i = 0; i < 6; ++i) {
    if (next(range_shares[i])) {
      const Value width = std::max<Value>(
          1, static_cast<Value>(m.selectivity * static_cast<double>(hi)));
      op.kind = range_kinds[i];
      op.a = std::min(KeyAt(Draw(m.scan, rng), hi, 0), hi - width);
      op.b = op.a + width;
      return op;
    }
  }
  if (next(m.insert)) {
    op.kind = Kind::kInsert;
    op.a = KeyAt(Draw(m.write, rng), hi, 1);
  } else if (next(m.del)) {
    op.kind = Kind::kDelete;
    op.a = KeyAt(Draw(m.write, rng), hi, rng.NextDouble() < 0.5 ? 0 : 1);
  } else {
    op.kind = Kind::kUpdate;
    op.a = KeyAt(Draw(m.write, rng), hi, 0);
    op.b = KeyAt(Draw(m.update_to, rng), hi, 2);
  }
  return op;
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* out) {
  for (WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) {
      *out = std::move(w);
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t num_ops) {
  Inputs in;
  const Value hi = spec.DomainHi();
  casper::Rng data_rng(seed * 4 + 1);
  in.keys.resize(spec.rows);
  for (size_t i = 0; i < spec.rows; ++i) in.keys[i] = static_cast<Value>(i) * 4;
  for (size_t i = spec.rows; i > 1; --i) {
    std::swap(in.keys[i - 1], in.keys[data_rng.Below(i)]);
  }
  in.payload.assign(spec.payload_cols, std::vector<Payload>(spec.rows));
  for (auto& col : in.payload) {
    for (Payload& v : col) v = static_cast<Payload>(data_rng.Below(10000));
  }

  casper::Rng train_rng(seed * 4 + 2);
  in.training.reserve(kTrainingOps);
  for (size_t i = 0; i < kTrainingOps; ++i) {
    in.training.push_back(ToOperation(DrawOp(spec.phases.front(), hi, train_rng)));
  }

  casper::Rng op_rng(seed * 4 + 3);
  in.ops.reserve(num_ops);
  const size_t per_phase = (num_ops + spec.phases.size() - 1) / spec.phases.size();
  for (size_t i = 0; i < num_ops; ++i) {
    in.ops.push_back(DrawOp(spec.phases[i / per_phase], hi, op_rng));
  }
  return in;
}

casper::EngineOptions MakeEngineOptions(
    const WorkloadSpec& spec, const std::vector<casper::Operation>* training,
    const std::string& storage_dir) {
  casper::EngineOptions o;
  o.training = training;
  o.layout.mode = casper::LayoutMode::kCasper;
  o.layout.chunk_values = spec.chunk_values;
  o.layout.calibrate_costs = false;
  o.layout.planner.costs.rr = kPinnedRandomNs;
  o.layout.planner.costs.rw = kPinnedRandomNs;
  o.layout.planner.costs.sr = kPinnedSequentialNs;
  o.layout.planner.costs.sw = kPinnedSequentialNs;
  o.maintenance.enabled = spec.maintenance;
  o.maintenance.background = false;  // cycles run at fixed op counts only
  if (spec.durable) {
    o.persist.storage_dir = storage_dir;
    o.persist.journal_fsync_every = kJournalFsyncEvery;
    // Enough evictions per cycle to meet the budget in the first cycle.
    o.persist.max_evictions_per_cycle = 64;
    o.persist.memory_budget_bytes = static_cast<int64_t>(
        kMemoryBudgetShare * static_cast<double>(spec.rows * spec.RowBytes()));
  }
  return o;
}

}  // namespace perfbench
