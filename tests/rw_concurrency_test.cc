// Read-write concurrency tests for the epoch/latch protection layer: mixed
// streams (reads + chunk-disjoint write runs) admitted together must produce
// results bit-identical to a single-threaded serial replay, raw reader
// threads must survive overlapping a live ingest with only bounded-staleness
// effects, chunk-disjoint write runs must commit in parallel and overlapping
// runs serialize without deadlock, and ChunkSnapshot must detect exactly the
// chunks an ingest touched. The read-only sibling of this file is
// concurrency_test.cc; both are built to run clean under ThreadSanitizer
// (-DCASPER_TSAN=ON) with moderate sizes and deterministic assertions.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/casper_engine.h"
#include "engine/harness.h"
#include "exec/mixed_workload_runner.h"
#include "layouts/layout_factory.h"
#include "layouts/partitioned.h"
#include "storage/table.h"
#include "txn/mvcc.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/hap.h"

namespace casper {
namespace {

std::vector<LayoutMode> AllModes() {
  return {LayoutMode::kNoOrder,   LayoutMode::kSorted,
          LayoutMode::kDeltaStore, LayoutMode::kEquiWidth,
          LayoutMode::kEquiWidthGhost, LayoutMode::kCasper};
}

struct Fixture {
  hap::Dataset data;
  std::vector<Operation> training;
};

Fixture MakeFixture(size_t rows, uint64_t seed) {
  Fixture f;
  Rng data_rng(seed);
  f.data = hap::MakeDataset(rows, 3, data_rng);
  auto spec = hap::MakeSpec(hap::Workload::kHybridSkewed, f.data.domain_lo,
                            f.data.domain_hi);
  Rng train_rng(seed + 1);
  f.training = GenerateWorkload(spec, 1000, train_rng);
  return f;
}

std::unique_ptr<LayoutEngine> BuildMode(LayoutMode mode, const Fixture& f) {
  LayoutBuildOptions opts;
  opts.mode = mode;
  opts.chunk_values = 4096;
  opts.block_values = 128;
  opts.calibrate_costs = false;
  opts.training = &f.training;
  return BuildLayout(opts, f.data.keys, f.data.payload);
}

/// Seeded mixed stream: the read kinds interleaved with insert / delete /
/// update runs (bursty writes, so consecutive writes form multi-op runs).
std::vector<Operation> MixedOps(size_t n, Value lo, Value hi, uint64_t seed) {
  Rng rng(seed);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  std::vector<Operation> ops;
  ops.reserve(n);
  while (ops.size() < n) {
    Operation op;
    const Value a = lo + static_cast<Value>(rng.Below(span));
    const uint64_t pick = rng.Below(100);
    if (pick < 25) {
      op.kind = OpKind::kPointQuery;
      op.a = a;
      ops.push_back(op);
    } else if (pick < 45) {
      op.kind = OpKind::kRangeCount;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
      ops.push_back(op);
    } else if (pick < 60) {
      op.kind = OpKind::kRangeSum;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
      ops.push_back(op);
    } else {
      // A write burst: 1-8 consecutive writes (one write run for the mixed
      // runner, often spanning several chunks).
      const size_t burst = 1 + rng.Below(8);
      for (size_t b = 0; b < burst && ops.size() < n; ++b) {
        Operation w;
        w.a = lo + static_cast<Value>(rng.Below(span));
        const uint64_t wpick = rng.Below(100);
        if (wpick < 60) {
          w.kind = OpKind::kInsert;
        } else if (wpick < 85) {
          w.kind = OpKind::kDelete;
        } else {
          w.kind = OpKind::kUpdate;
          w.b = lo + static_cast<Value>(rng.Below(span));
        }
        ops.push_back(w);
      }
    }
  }
  return ops;
}

/// Single-threaded reference replay with the exact semantics the mixed
/// runner promises: per-op read results, aggregate write counts, and the
/// harness checksum mixing (key-derived insert payloads).
struct SerialRef {
  std::vector<uint64_t> results;
  size_t inserts = 0;
  size_t deletes = 0;
  size_t updates = 0;
  uint64_t checksum = 0;
};

SerialRef SerialReplay(LayoutEngine& engine, const std::vector<Operation>& ops,
                       const std::vector<size_t>& cols) {
  SerialRef ref;
  ref.results.assign(ops.size(), 0);
  std::vector<Payload> payload;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    switch (op.kind) {
      case OpKind::kPointQuery:
        ref.results[i] = engine.PointLookup(op.a, nullptr);
        break;
      case OpKind::kRangeCount:
        ref.results[i] = engine.CountRange(op.a, op.b);
        break;
      case OpKind::kRangeSum:
        ref.results[i] =
            static_cast<uint64_t>(engine.SumPayloadRange(op.a, op.b, cols));
        break;
      case OpKind::kRangeMin:
      case OpKind::kRangeMax:
      case OpKind::kRangeAvg: {
        const ScanSpec spec = SpecForOperation(op, cols);
        ref.results[i] = engine.ExecuteScan(spec).Result(spec.agg);
        break;
      }
      case OpKind::kInsert:
        KeyDerivedPayload(op.a, engine.num_payload_columns(), &payload);
        engine.Insert(op.a, payload);
        ++ref.inserts;
        break;
      case OpKind::kDelete: {
        const size_t d = engine.Delete(op.a);
        ref.deletes += d;
        break;
      }
      case OpKind::kUpdate:
        ref.updates += engine.UpdateKey(op.a, op.b) ? 1 : 0;
        break;
    }
  }
  for (const uint64_t r : ref.results) ref.checksum += r;
  ref.checksum += ref.deletes + ref.updates;
  return ref;
}

// The tentpole guarantee: a mixed stream admitted to the DAG scheduler over
// a real pool produces per-op read results, write aggregates, checksum AND
// final physical state bit-identical to the single-threaded serial replay,
// on every layout.
TEST(MixedWorkload, RunMatchesSerialReplayAcrossLayouts) {
  const Fixture f = MakeFixture(20000, 11);
  ThreadPool pool(4);
  const MixedWorkloadRunner runner(&pool);
  const std::vector<size_t> cols = {0, 1};
  const auto ops = MixedOps(600, f.data.domain_lo, f.data.domain_hi, 303);

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto mixed_engine = BuildMode(mode, f);
    auto serial_engine = BuildMode(mode, f);

    const SerialRef ref = SerialReplay(*serial_engine, ops, cols);
    const MixedResult mixed = runner.Run(*mixed_engine, ops, cols);

    ASSERT_EQ(mixed.results.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(mixed.results[i], ref.results[i]) << "op " << i;
    }
    EXPECT_EQ(mixed.inserts, ref.inserts);
    EXPECT_EQ(mixed.deletes, ref.deletes);
    EXPECT_EQ(mixed.updates, ref.updates);
    EXPECT_EQ(mixed.checksum, ref.checksum);

    // Final state: identical row count and range aggregates.
    EXPECT_EQ(mixed_engine->num_rows(), serial_engine->num_rows());
    EXPECT_EQ(mixed_engine->CountRange(f.data.domain_lo, f.data.domain_hi + 1),
              serial_engine->CountRange(f.data.domain_lo, f.data.domain_hi + 1));
    EXPECT_EQ(
        mixed_engine->SumPayloadRange(f.data.domain_lo, f.data.domain_hi + 1, cols),
        serial_engine->SumPayloadRange(f.data.domain_lo, f.data.domain_hi + 1, cols));
    mixed_engine->ValidateInvariants();
  }
}

// A min/max/avg-bearing mixed stream through the DAG scheduler: the new
// aggregate op kinds interleave with write bursts and must stay bit-identical
// to the serial replay (per-op results, aggregates, checksum, final state) —
// the ScanSpec surface composes with the latch-footprint protocol.
TEST(MixedWorkload, AggregateBearingStreamMatchesSerialReplay) {
  const Fixture f = MakeFixture(20000, 47);
  ThreadPool pool(4);
  const MixedWorkloadRunner runner(&pool);
  const std::vector<size_t> cols = {0, 1};

  // Seeded stream over ALL read kinds (including min/max/avg) plus bursty
  // writes, like MixedOps but aggregate-heavy.
  Rng rng(515);
  const Value lo = f.data.domain_lo;
  const uint64_t span = static_cast<uint64_t>(f.data.domain_hi - lo) + 1;
  std::vector<Operation> ops;
  while (ops.size() < 500) {
    Operation op;
    const Value a = lo + static_cast<Value>(rng.Below(span));
    const uint64_t pick = rng.Below(100);
    if (pick < 55) {
      op.kind = pick < 20   ? OpKind::kRangeMin
                : pick < 40 ? OpKind::kRangeMax
                            : OpKind::kRangeAvg;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
      ops.push_back(op);
    } else if (pick < 70) {
      op.kind = OpKind::kRangeCount;
      op.a = a;
      op.b = a + static_cast<Value>(rng.Below(span / 8 + 1)) + 1;
      ops.push_back(op);
    } else {
      const size_t burst = 1 + rng.Below(6);
      for (size_t b = 0; b < burst && ops.size() < 500; ++b) {
        Operation w;
        w.a = lo + static_cast<Value>(rng.Below(span));
        if (rng.Below(3) == 0) {
          w.kind = OpKind::kDelete;
        } else {
          w.kind = OpKind::kInsert;
        }
        ops.push_back(w);
      }
    }
  }

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto mixed_engine = BuildMode(mode, f);
    auto serial_engine = BuildMode(mode, f);

    const SerialRef ref = SerialReplay(*serial_engine, ops, cols);
    const MixedResult mixed = runner.Run(*mixed_engine, ops, cols);

    ASSERT_EQ(mixed.results.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(mixed.results[i], ref.results[i])
          << "op " << i << " kind " << OpKindName(ops[i].kind);
    }
    EXPECT_EQ(mixed.inserts, ref.inserts);
    EXPECT_EQ(mixed.deletes, ref.deletes);
    EXPECT_EQ(mixed.checksum, ref.checksum);
    EXPECT_EQ(mixed_engine->num_rows(), serial_engine->num_rows());
    mixed_engine->ValidateInvariants();
  }
}

// Raw std::threads reading while a writer ingests — the access pattern the
// latch layer exists for. Writers only insert, so every concurrent range
// count must land between the initial and final counts (per-chunk counts are
// monotone under the latch), and the final state must be exact.
TEST(ReadsDuringWrites, RawReadersOverlapIngestBounded) {
  const Fixture f = MakeFixture(20000, 23);
  const std::vector<size_t> cols = {0, 1};
  const Value lo = f.data.domain_lo;
  const Value hi = f.data.domain_hi + 1;

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);
    const uint64_t before = engine->CountRange(lo, hi);

    // Insert-only write runs (key-derived payloads via the batched path).
    constexpr size_t kRuns = 20;
    constexpr size_t kRunSize = 50;
    Rng wrng(900);
    const uint64_t span = static_cast<uint64_t>(hi - lo);
    std::vector<std::vector<Operation>> runs(kRuns);
    for (auto& run : runs) {
      for (size_t i = 0; i < kRunSize; ++i) {
        Operation op;
        op.kind = OpKind::kInsert;
        op.a = lo + static_cast<Value>(wrng.Below(span));
        run.push_back(op);
      }
    }

    std::atomic<bool> done{false};
    std::atomic<uint64_t> violations{0};
    constexpr size_t kReaders = 3;
    std::vector<std::thread> readers;
    for (size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        Rng rng(7000 + t);
        // Iteration cap: keeps the test bounded on small machines (readers
        // must not starve the writer into the ctest timeout under TSan).
        for (size_t iter = 0; iter < 64 && !done.load(std::memory_order_acquire);
             ++iter) {
          const uint64_t count = engine->CountRange(lo, hi);
          if (count < before || count > before + kRuns * kRunSize) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          // Point lookups and deferred scans share the same latches.
          const Value key = lo + static_cast<Value>(rng.Below(span));
          engine->PointLookup(key, nullptr);
          const uint64_t deferred = CountRangeDeferred(*engine, lo, hi);
          if (deferred < before || deferred > before + kRuns * kRunSize) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::thread writer([&] {
      for (const auto& run : runs) engine->ApplyBatch(run);
      done.store(true, std::memory_order_release);
    });
    writer.join();
    for (auto& r : readers) r.join();

    EXPECT_EQ(violations.load(), 0u);
    EXPECT_EQ(engine->CountRange(lo, hi), before + kRuns * kRunSize);
    engine->ValidateInvariants();
  }
}

// Satellite: two chunk-disjoint write runs committing from two threads at
// once (multi-writer ingest) must land exactly the serial result.
TEST(WriteWriteConflicts, DisjointRunsCommitInParallel) {
  const Fixture f = MakeFixture(25000, 31);
  const Value lo = f.data.domain_lo;
  const Value hi = f.data.domain_hi;
  const Value mid = lo + (hi - lo) / 2;

  auto parallel_engine = BuildMode(LayoutMode::kEquiWidthGhost, f);
  auto serial_engine = BuildMode(LayoutMode::kEquiWidthGhost, f);
  auto* pl = dynamic_cast<PartitionedLayout*>(parallel_engine.get());
  ASSERT_NE(pl, nullptr);
  ASSERT_GT(pl->NumLatchDomains(), 2u);

  // Run A routes strictly below the chunk holding mid, run B strictly
  // above it: provably disjoint chunk footprints (keys are filtered by
  // their actual latch domain, so the boundary chunk belongs to neither).
  const size_t mid_domain = pl->WriteDomain(mid);
  ASSERT_GT(mid_domain, 0u);
  ASSERT_LT(mid_domain + 1, pl->NumLatchDomains());
  auto make_run = [&](Value base, Value limit, bool below, uint64_t seed) {
    Rng rng(seed);
    const uint64_t span = static_cast<uint64_t>(limit - base);
    std::vector<Operation> run;
    while (run.size() < 400) {
      Operation op;
      op.kind = rng.Below(100) < 70 ? OpKind::kInsert : OpKind::kDelete;
      op.a = base + static_cast<Value>(rng.Below(span));
      const size_t d = pl->WriteDomain(op.a);
      if (below ? d >= mid_domain : d <= mid_domain) continue;
      run.push_back(op);
    }
    return run;
  };
  const auto run_a = make_run(lo, mid, /*below=*/true, 41);
  const auto run_b = make_run(mid + 1, hi, /*below=*/false, 42);

  // Disjointness sanity: the two runs share no latch domain.
  std::vector<bool> in_a(pl->NumLatchDomains(), false);
  for (const auto& op : run_a) in_a[pl->WriteDomain(op.a)] = true;
  for (const auto& op : run_b) ASSERT_FALSE(in_a[pl->WriteDomain(op.a)]);

  std::thread t1([&] { parallel_engine->ApplyBatch(run_a); });
  std::thread t2([&] { parallel_engine->ApplyBatch(run_b); });
  t1.join();
  t2.join();

  serial_engine->ApplyBatch(run_a);
  serial_engine->ApplyBatch(run_b);

  EXPECT_EQ(parallel_engine->num_rows(), serial_engine->num_rows());
  EXPECT_EQ(parallel_engine->CountRange(lo, hi + 1),
            serial_engine->CountRange(lo, hi + 1));
  const std::vector<size_t> cols = {0, 1};
  EXPECT_EQ(parallel_engine->SumPayloadRange(lo, hi + 1, cols),
            serial_engine->SumPayloadRange(lo, hi + 1, cols));
  parallel_engine->ValidateInvariants();
}

// Satellite: overlapping write runs (same chunks, disjoint key sets) must
// serialize on the chunk latches without deadlock and commute to the serial
// result.
TEST(WriteWriteConflicts, OverlappingRunsSerializeWithoutDeadlock) {
  const Fixture f = MakeFixture(25000, 37);
  const Value lo = f.data.domain_lo;
  const Value hi = f.data.domain_hi;

  auto parallel_engine = BuildMode(LayoutMode::kCasper, f);
  auto serial_engine = BuildMode(LayoutMode::kCasper, f);

  // Both runs hit the whole domain (same chunks); keys are disjoint (even
  // offsets vs odd offsets), so inserts commute.
  auto make_run = [&](Value parity, uint64_t seed) {
    Rng rng(seed);
    const uint64_t span = static_cast<uint64_t>(hi - lo) / 2;
    std::vector<Operation> run;
    for (size_t i = 0; i < 500; ++i) {
      Operation op;
      op.kind = OpKind::kInsert;
      op.a = lo + 2 * static_cast<Value>(rng.Below(span)) + parity;
      run.push_back(op);
    }
    return run;
  };
  const auto run_even = make_run(0, 51);
  const auto run_odd = make_run(1, 52);

  std::thread t1([&] { parallel_engine->ApplyBatch(run_even); });
  std::thread t2([&] { parallel_engine->ApplyBatch(run_odd); });
  t1.join();
  t2.join();

  serial_engine->ApplyBatch(run_even);
  serial_engine->ApplyBatch(run_odd);

  EXPECT_EQ(parallel_engine->num_rows(), serial_engine->num_rows());
  EXPECT_EQ(parallel_engine->CountRange(lo, hi + 1),
            serial_engine->CountRange(lo, hi + 1));
  const std::vector<size_t> cols = {0, 1};
  EXPECT_EQ(parallel_engine->SumPayloadRange(lo, hi + 1, cols),
            serial_engine->SumPayloadRange(lo, hi + 1, cols));
  parallel_engine->ValidateInvariants();
}

// ChunkSnapshot (txn/) must validate over a quiescent engine, flag exactly
// the chunk a write touched, and carry oracle timestamps forward.
TEST(ChunkSnapshots, DetectExactlyTheTouchedChunks) {
  const Fixture f = MakeFixture(20000, 43);
  auto engine = BuildMode(LayoutMode::kEquiWidth, f);
  TimestampOracle oracle;

  const ChunkSnapshot snap = ChunkSnapshot::Capture(*engine, &oracle);
  EXPECT_TRUE(snap.Validate(*engine));
  EXPECT_EQ(snap.num_domains(), engine->NumLatchDomains());

  // Reads do not advance epochs.
  engine->CountRange(f.data.domain_lo, f.data.domain_hi);
  engine->PointLookup(f.data.domain_lo, nullptr);
  EXPECT_TRUE(snap.Validate(*engine));

  // One insert advances exactly its routed chunk's epoch.
  const Value key = f.data.domain_lo + 5;
  std::vector<Payload> payload;
  KeyDerivedPayload(key, engine->num_payload_columns(), &payload);
  engine->Insert(key, payload);
  EXPECT_FALSE(snap.Validate(*engine));
  const auto changed = snap.ChangedDomains(*engine);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], engine->WriteDomain(key));
}

// CoherentStatsSnapshot's seqlock loop: equal to the raw snapshot when
// quiescent, and always terminating (with copies taken from writer-free
// epoch windows) while a writer is live.
TEST(ChunkSnapshots, CoherentStatsSnapshotUnderWriter) {
  const Fixture f = MakeFixture(20000, 67);
  auto engine = BuildMode(LayoutMode::kEquiWidthGhost, f);
  auto* pl = dynamic_cast<PartitionedLayout*>(engine.get());
  ASSERT_NE(pl, nullptr);
  PartitionedTable& table = pl->mutable_table();

  engine->CountRange(f.data.domain_lo, f.data.domain_hi);
  for (size_t c = 0; c < table.num_chunks(); ++c) {
    const ChunkStatsSnapshot raw = table.key_chunk(c).StatsSnapshot();
    const ChunkStatsSnapshot coherent = table.CoherentStatsSnapshot(c);
    EXPECT_EQ(coherent.element_reads, raw.element_reads);
    EXPECT_EQ(coherent.partitions_scanned, raw.partitions_scanned);
    EXPECT_EQ(coherent.blocks_scanned, raw.blocks_scanned);
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(99);
    const uint64_t span =
        static_cast<uint64_t>(f.data.domain_hi - f.data.domain_lo) + 1;
    std::vector<Payload> payload;
    for (int i = 0; i < 1000; ++i) {
      const Value key = f.data.domain_lo + static_cast<Value>(rng.Below(span));
      KeyDerivedPayload(key, engine->num_payload_columns(), &payload);
      engine->Insert(key, payload);
    }
    done.store(true, std::memory_order_release);
  });
  uint64_t snapshots = 0;
  for (size_t sweep = 0; sweep < 64 && !done.load(std::memory_order_acquire);
       ++sweep) {
    for (size_t c = 0; c < table.num_chunks(); ++c) {
      table.CoherentStatsSnapshot(c);
      ++snapshots;
    }
  }
  writer.join();
  EXPECT_GT(snapshots, 0u);
}

// Quiescent deferred reads are plain shard fan-outs: they must equal the
// whole-query answers on every layout.
TEST(DeferredReads, MatchSerialAnswersWhenQuiescent) {
  const Fixture f = MakeFixture(20000, 47);
  const std::vector<size_t> cols = {0, 1};
  const Value lo = f.data.domain_lo;
  const Value hi = f.data.domain_hi;
  const Value q = (hi - lo) / 8;

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto engine = BuildMode(mode, f);
    for (int i = 0; i < 4; ++i) {
      const Value a = lo + i * q;
      const Value b = hi - i * q / 2;
      EXPECT_EQ(CountRangeDeferred(*engine, a, b), engine->CountRange(a, b));
      EXPECT_EQ(SumPayloadRangeDeferred(*engine, a, b, cols),
                engine->SumPayloadRange(a, b, cols));
    }
  }
}

// The facade: CasperEngine::RunMixed over its own pool matches the serial
// replay and stamps commit timestamps through the engine's oracle.
TEST(MixedWorkload, EngineRunMixedMatchesSerialFacade) {
  const Fixture f = MakeFixture(20000, 53);
  LayoutBuildOptions opts;
  opts.mode = LayoutMode::kCasper;
  opts.chunk_values = 4096;
  opts.block_values = 128;
  opts.calibrate_costs = false;
  opts.exec_threads = 4;
  CasperEngine engine =
      CasperEngine::Open(opts, f.data.keys, f.data.payload, &f.training);

  auto serial_engine = BuildMode(LayoutMode::kCasper, f);
  const auto ops = MixedOps(500, f.data.domain_lo, f.data.domain_hi, 606);
  const auto cols = DefaultSumColumns(engine.layout());

  const SerialRef ref = SerialReplay(*serial_engine, ops, cols);
  const MixedResult mixed = engine.RunMixed(ops);

  EXPECT_EQ(mixed.checksum, ref.checksum);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(mixed.results[i], ref.results[i]) << "op " << i;
  }
  EXPECT_GT(mixed.last_commit_ts, 0u);  // write runs were stamped
  EXPECT_EQ(engine.num_rows(), serial_engine->num_rows());
}

// Harness plumbing: RunWorkloadMixed's checksum equals the serial harness
// replay with key-derived payloads, across all layouts.
TEST(MixedWorkload, HarnessMixedChecksumMatchesSerialReplay) {
  const Fixture f = MakeFixture(20000, 59);
  ThreadPool pool(4);
  const auto ops = MixedOps(500, f.data.domain_lo, f.data.domain_hi, 707);

  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto mixed_engine = BuildMode(mode, f);
    auto serial_engine = BuildMode(mode, f);

    HarnessOptions serial_opts;
    serial_opts.record_latency = false;
    serial_opts.key_derived_payload = true;
    const HarnessResult serial = RunWorkload(*serial_engine, ops, serial_opts);

    HarnessOptions mixed_opts = serial_opts;
    mixed_opts.pool = &pool;
    const HarnessResult mixed = RunWorkloadMixed(*mixed_engine, ops, mixed_opts);
    EXPECT_EQ(mixed.checksum, serial.checksum);
  }
}

// Satellite: the payload-carrying batch API must be byte-equivalent to
// sequential Insert calls with the same caller-supplied rows, on every
// layout (placement included — probed via payload lookups and range sums).
TEST(PayloadCarryingWrites, InsertRowsMatchesSequentialInserts) {
  const Fixture f = MakeFixture(15000, 61);
  const std::vector<size_t> cols = {0, 1, 2};
  Rng rng(62);
  const uint64_t span =
      static_cast<uint64_t>(f.data.domain_hi - f.data.domain_lo) + 1;
  std::vector<Row> rows(300);
  for (auto& row : rows) {
    row.key = f.data.domain_lo + static_cast<Value>(rng.Below(span));
    row.payload = {static_cast<Payload>(rng.Below(10000)),
                   static_cast<Payload>(rng.Below(10000)),
                   static_cast<Payload>(rng.Below(10000))};
  }

  ThreadPool pool(4);
  for (const LayoutMode mode : AllModes()) {
    SCOPED_TRACE(LayoutModeName(mode));
    auto batch_engine = BuildMode(mode, f);
    auto serial_engine = BuildMode(mode, f);

    batch_engine->InsertRows(rows.data(), rows.size(), &pool);
    for (const Row& row : rows) serial_engine->Insert(row.key, row.payload);

    EXPECT_EQ(batch_engine->num_rows(), serial_engine->num_rows());
    EXPECT_EQ(
        batch_engine->CountRange(f.data.domain_lo, f.data.domain_hi + 1),
        serial_engine->CountRange(f.data.domain_lo, f.data.domain_hi + 1));
    EXPECT_EQ(
        batch_engine->SumPayloadRange(f.data.domain_lo, f.data.domain_hi + 1, cols),
        serial_engine->SumPayloadRange(f.data.domain_lo, f.data.domain_hi + 1, cols));
    std::vector<Payload> got;
    std::vector<Payload> want;
    for (size_t i = 0; i < rows.size(); i += 37) {
      EXPECT_EQ(batch_engine->PointLookup(rows[i].key, &got),
                serial_engine->PointLookup(rows[i].key, &want));
      EXPECT_EQ(got, want) << "key " << rows[i].key;
    }
    batch_engine->ValidateInvariants();
  }
}

// Two readers referencing disjoint payload columns of one chunk race to
// extend its keys-only encoding snapshot: both extensions must land (each
// copy-on-write under the slot mutex), every answer must match a table that
// never encodes, and TSan must see no race on the lock-free hit path.
TEST(PerColumnEncodings, DisjointColumnExtensionsRaceCleanly) {
  constexpr size_t kRows = 16384;
  constexpr size_t kCols = 4;
  auto make_table = [&] {
    Rng rng(77);
    std::vector<Value> keys(kRows);
    std::vector<std::vector<Payload>> cols(kCols, std::vector<Payload>(kRows));
    for (size_t i = 0; i < kRows; ++i) {
      keys[i] = static_cast<Value>(i);
      for (size_t c = 0; c < kCols; ++c) {
        cols[c][i] = static_cast<Payload>(rng.Below(1000 * (c + 1)));
      }
    }
    PartitionedTable::ChunkLayoutSpec spec;
    spec.partition_sizes.assign(16, kRows / 16);
    PartitionedTable::Options opts;
    opts.chunk_values = kRows;
    return PartitionedTable::Build(std::move(keys), std::move(cols), {spec},
                                   opts);
  };
  PartitionedTable table = make_table();
  const PartitionedTable reference = make_table();  // stays below the build
  ScanSpec sum0 = ScanSpec::Sum(100, 15000, {0});
  ScanSpec pred2 = ScanSpec::Sum(200, 16000, {3});
  pred2.predicates.push_back({2, 500, 2400});
  const ScanPartial want0 = reference.ScanSpecAllChunks(sum0);
  const ScanPartial want2 = reference.ScanSpecAllChunks(pred2);

  // Counts build the key frame only.
  for (int i = 0; i < 8; ++i) table.CountRange(0, 9000);
  ASSERT_TRUE(table.compressed_cache().HasEncoding(0));
  ASSERT_FALSE(table.compressed_cache().Snapshot(0)->Built(0));

  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  auto reader = [&](const ScanSpec& spec, const ScanPartial& want) {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 200; ++i) {
      const ScanPartial got = table.ScanSpecAllChunks(spec);
      if (got.sum != want.sum || got.count != want.count) ++mismatches;
    }
  };
  std::thread a(reader, std::cref(sum0), std::cref(want0));
  std::thread b(reader, std::cref(pred2), std::cref(want2));
  go.store(true);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto enc = table.compressed_cache().Snapshot(0);
  ASSERT_NE(enc, nullptr);
  EXPECT_TRUE(enc->Built(0));
  EXPECT_FALSE(enc->Built(1));
  EXPECT_TRUE(enc->Built(2));
  EXPECT_TRUE(enc->Built(3));
}

}  // namespace
}  // namespace casper
