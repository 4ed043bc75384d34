// Four-workload benchmark of the CasperEngine public surface.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Builds the workload's table and request stream from the seed, opens the
// engine several times (setup_s is the median), drives the stream through
// one closed-loop client, checks every answer against a reference model and
// the run against its determinism guard, and prints the metrics. The last
// stdout line is one JSON object: the end-to-end metrics with --trace 0,
// the per-layer metrics of a separate traced run with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "layouts/layout_factory.h"
#include "runner.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using casper::CasperEngine;


struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) && !a->work_dir.empty();
}

/// Output metrics in the order they were added.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream s;
    s.precision(10);
    s << "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      s << (i ? ", " : "") << "\"" << items_[i].name << "\": {\"value\": "
        << items_[i].value << ", \"unit\": \"" << items_[i].unit << "\"}";
    }
    s << "}";
    return s.str();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// State measured after the timed phase, on the engine that ran it.
struct EndState {
  double mem_amplification = 0;
  double disk_amplification = 0;
  double journal_bytes_per_user_byte = 0;
  double recovery_s = 0;
  bool recovered_ok = true;
};

/// Space at the end of the phase; on a durable engine also closes it and
/// times `recovery_opens` re-opens of the store (base load + journal replay).
EndState MeasureEnd(const WorkloadSpec& spec, const Inputs& in,
                    std::optional<CasperEngine>* engine, const std::string& store_dir,
                    int recovery_opens) {
  EndState st;
  const double user_bytes =
      static_cast<double>((*engine)->num_rows() * spec.RowBytes());
  st.mem_amplification =
      static_cast<double>((*engine)->MemoryStats().total_bytes) / user_bytes;
  if (!spec.durable) return st;
  st.disk_amplification = static_cast<double>(DirBytes(store_dir)) / user_bytes;
  st.journal_bytes_per_user_byte =
      static_cast<double>(fs::file_size((*engine)->durable()->layout().JournalPath())) /
      user_bytes;
  const size_t rows = (*engine)->num_rows();
  const uint64_t full_sum =
      (*engine)->ExecuteScan(casper::ScanSpec::Sum(0, spec.DomainHi(), {0, 1})).sum;
  engine->reset();
  std::vector<double> secs;
  for (int k = 0; k < recovery_opens; ++k) {
    const int64_t t0 = NowNs();
    CasperEngine r = CasperEngine::Open(MakeEngineOptions(spec, &in.training, store_dir));
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    const uint64_t sum =
        r.ExecuteScan(casper::ScanSpec::Sum(0, spec.DomainHi(), {0, 1})).sum;
    if (r.num_rows() != rows || sum != full_sum) st.recovered_ok = false;
  }
  st.recovery_s = Median(secs);
  return st;
}

/// One fresh engine: open it on copies of the inputs (timed), drive the
/// stream through it, record its guard and end state, and close it.
struct Replay {
  double open_s = 0;
  PhaseOutput phase;
  Guard guard;
  EndState end;
};

Replay RunReplay(const WorkloadSpec& spec, const Inputs& in, const std::string& store_dir,
                 bool traced, int recovery_opens, size_t pool_threads = 0) {
  Replay r;
  if (spec.durable) fs::remove_all(store_dir);
  casper::EngineOptions o =
      MakeEngineOptions(spec, &in.training, spec.durable ? store_dir : "");
  o.keys = in.keys;
  o.payload = in.payload;
  o.exec_threads = pool_threads;
  std::optional<CasperEngine> engine;
  const int64_t t0 = NowNs();
  engine.emplace(CasperEngine::Open(std::move(o)));
  r.open_s = static_cast<double>(NowNs() - t0) / 1e9;
  r.phase = RunPhase(*engine, spec, in, traced);
  r.guard = MakeGuard(*engine, r.phase);
  r.end = MeasureEnd(spec, in, &engine, store_dir, recovery_opens);
  engine.reset();
  if (spec.durable) fs::remove_all(store_dir);
  return r;
}

/// Identifies this build of the benchmark (size and mtime of the running
/// executable), so a guard is only ever compared with runs of the same code.
std::string BinaryId() {
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return "unknown";
  const auto size = fs::file_size(exe, ec);
  const auto mtime = fs::last_write_time(exe, ec).time_since_epoch().count();
  return std::to_string(size) + "-" + std::to_string(mtime);
}

/// Compares the guard with the one recorded for this seed, recording it if
/// there is none. Returns false on a mismatch.
bool CheckGuard(const std::string& path, const Guard& g) {
  const std::string now = g.ToString();
  std::ifstream f(path);
  std::string recorded;
  if (std::getline(f, recorded)) {
    if (recorded != now) {
      std::printf("determinism guard MISMATCH\n  recorded: %s\n  this run: %s\n",
                  recorded.c_str(), now.c_str());
      return false;
    }
    std::printf("determinism guard: matches the record for this seed\n");
    return true;
  }
  std::ofstream(path) << now << "\n";
  std::printf("determinism guard: recorded for this seed\n");
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One latency class: p50, and p99 when at least 1000 samples leave ten
/// beyond it.
void PrintClassLine(const char* name, const std::vector<int64_t>& ns, double scale,
                    const char* unit) {
  if (ns.empty()) return;
  std::printf("  %-8s p50 %10.3f %s   ", name, Percentile(ns, 0.50) / scale, unit);
  if (ns.size() >= 1000) {
    std::printf("p99 %10.3f %s   (n=%zu)\n", Percentile(ns, 0.99) / scale, unit, ns.size());
  } else {
    std::printf("p99 n/a (n=%zu, fewer than 1000)\n", ns.size());
  }
}

void PrintCounters(const PhaseOutput& p) {
  const casper::ChunkStatsSnapshot& a = p.after.storage;
  const casper::ChunkStatsSnapshot& b = p.before.storage;
  std::printf(
      "counters (timed phase deltas): element_reads=%llu element_writes=%llu "
      "ripple_steps=%llu blocks_scanned=%llu partitions_scanned=%llu "
      "partitions_pruned=%llu compressed_scans=%llu grows=%llu evictions=%llu "
      "promotions=%llu disk_reads=%llu disk_bytes_read=%llu\n",
      static_cast<unsigned long long>(a.element_reads - b.element_reads),
      static_cast<unsigned long long>(a.element_writes - b.element_writes),
      static_cast<unsigned long long>(a.ripple_steps - b.ripple_steps),
      static_cast<unsigned long long>(a.blocks_scanned - b.blocks_scanned),
      static_cast<unsigned long long>(a.partitions_scanned - b.partitions_scanned),
      static_cast<unsigned long long>(a.partitions_pruned - b.partitions_pruned),
      static_cast<unsigned long long>(a.compressed_scans - b.compressed_scans),
      static_cast<unsigned long long>(a.grows - b.grows),
      static_cast<unsigned long long>(a.evictions - b.evictions),
      static_cast<unsigned long long>(a.promotions - b.promotions),
      static_cast<unsigned long long>(a.disk_reads - b.disk_reads),
      static_cast<unsigned long long>(a.disk_bytes_read - b.disk_bytes_read));
  const casper::MaintenanceStats& ma = p.after.maintenance;
  const casper::MaintenanceStats& mb = p.before.maintenance;
  std::printf(
      "maintenance (timed phase deltas): cycles=%llu ops_observed=%llu "
      "ops_dropped=%llu chunks_evaluated=%llu chunks_repartitioned=%llu\n",
      static_cast<unsigned long long>(ma.cycles - mb.cycles),
      static_cast<unsigned long long>(ma.ops_observed - mb.ops_observed),
      static_cast<unsigned long long>(ma.ops_dropped - mb.ops_dropped),
      static_cast<unsigned long long>(ma.chunks_evaluated - mb.chunks_evaluated),
      static_cast<unsigned long long>(ma.chunks_repartitioned - mb.chunks_repartitioned));
}

void PrintLatencies(const WorkloadSpec& spec, const std::vector<Replay>& replays) {
  std::vector<int64_t> classes[3];
  std::vector<int64_t> requests;
  for (const Replay& rep : replays) {
    for (size_t c = 0; c < 3; ++c) {
      classes[c].insert(classes[c].end(), rep.phase.class_ns[c].begin(),
                        rep.phase.class_ns[c].end());
    }
    requests.insert(requests.end(), rep.phase.request_ns.begin(),
                    rep.phase.request_ns.end());
  }
  std::printf("latency (closed loop, one client; %zu replays pooled):\n", replays.size());
  if (spec.batch_ops > 0) {
    PrintClassLine("batch", requests, 1e6, "ms");
  } else {
    PrintClassLine("point", classes[0], 1e3, "us");
    PrintClassLine("range", classes[1], 1e3, "us");
    PrintClassLine("write", classes[2], 1e3, "us");
  }
  PrintClassLine("request", requests, 1e3, "us");
}

/// The per-layer metrics of a traced phase (`t`), with the untraced phase
/// (`u`) of the same run as the overhead and CPU baseline and, when the
/// workload compares one, an untraced replay on a pooled engine.
void AddLayerMetrics(const WorkloadSpec& spec, const Inputs& in, const PhaseOutput& u,
                     const PhaseOutput& t, const PhaseOutput* pooled,
                     const EndState& end, double build_s, Metrics* m) {
  const std::vector<Span>& spans = t.spans->spans();
  const std::vector<LayerSummary> sum = Summarize(spans);
  auto layer = [&](Layer l) { return sum[static_cast<size_t>(l)]; };

  size_t reads = 0, range_reads = 0, writes = 0;
  for (size_t i = spec.warmup_ops; i < in.ops.size(); ++i) {
    const OpClass c = ClassOf(in.ops[i].kind);
    reads += c != OpClass::kWrite;
    range_reads += c == OpClass::kRange;
    writes += c == OpClass::kWrite;
  }
  const double n_ops = static_cast<double>(in.ops.size() - spec.warmup_ops);
  const casper::ChunkStatsSnapshot& a = t.after.storage;
  const casper::ChunkStatsSnapshot& b = t.before.storage;
  auto delta = [&](uint64_t casper::ChunkStatsSnapshot::*f) {
    return static_cast<double>(a.*f - b.*f);
  };
  const casper::MaintenanceStats& ma = t.after.maintenance;
  const casper::MaintenanceStats& mb = t.before.maintenance;

  // Resident scans slower than 1 ms, and reads that went to disk. Request
  // i's root span is the i-th kRequest span (single-op mode).
  size_t stalls = 0;
  std::vector<int64_t> cold_ns;
  size_t req = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer == Layer::kRequest) ++req;
    if (s.layer != Layer::kScan && s.layer != Layer::kPointLookup) continue;
    const bool disk = t.touched_disk[req - 1] != 0;
    const int64_t d = s.end_ns - s.start_ns;
    if (disk) {
      cold_ns.push_back(d);
    } else if (s.layer == Layer::kScan && d > 1000000) {
      ++stalls;
    }
  }

  m->Add("maintenance.observe_ns", layer(Layer::kObserve).p50_us * 1e3, "ns");
  m->Add("maintenance.cycle_p50_ms", layer(Layer::kCycle).p50_us / 1e3, "ms");
  m->Add("maintenance.cycle_total_ms", layer(Layer::kCycle).total_ms, "ms");
  m->Add("maintenance.chunks_repartitioned",
         static_cast<double>(ma.chunks_repartitioned - mb.chunks_repartitioned), "count");
  m->Add("maintenance.repartition_yield",
         Ratio(static_cast<double>(ma.chunks_repartitioned - mb.chunks_repartitioned),
               static_cast<double>(ma.chunks_evaluated - mb.chunks_evaluated)),
         "ratio");
  m->Add("maintenance.ops_dropped", static_cast<double>(ma.ops_dropped - mb.ops_dropped),
         "count");
  m->Add("layouts.point_p50_us", layer(Layer::kPointLookup).p50_us, "us");
  m->Add("layouts.point_p99_us", layer(Layer::kPointLookup).p99_us, "us");
  m->Add("layouts.scan_p50_us", layer(Layer::kScan).p50_us, "us");
  m->Add("layouts.scan_p99_us", layer(Layer::kScan).p99_us, "us");
  m->Add("layouts.write_p50_us", layer(Layer::kWrite).p50_us, "us");
  m->Add("layouts.write_p99_us", layer(Layer::kWrite).p99_us, "us");
  m->Add("layouts.scan_stalls", static_cast<double>(stalls), "count");
  m->Add("layouts.build_s", build_s, "s");
  m->Add("storage.element_reads_per_read",
         Ratio(delta(&casper::ChunkStatsSnapshot::element_reads), static_cast<double>(reads)),
         "count");
  m->Add("storage.pruned_partition_ratio",
         Ratio(delta(&casper::ChunkStatsSnapshot::partitions_pruned),
               delta(&casper::ChunkStatsSnapshot::partitions_pruned) +
                   delta(&casper::ChunkStatsSnapshot::partitions_scanned)),
         "ratio");
  m->Add("storage.compressed_scan_ratio",
         Ratio(delta(&casper::ChunkStatsSnapshot::compressed_scans),
               static_cast<double>(range_reads)),
         "ratio");
  m->Add("storage.ripple_steps_per_write",
         Ratio(delta(&casper::ChunkStatsSnapshot::ripple_steps), static_cast<double>(writes)),
         "count");
  m->Add("storage.element_writes_per_write",
         Ratio(delta(&casper::ChunkStatsSnapshot::element_writes), static_cast<double>(writes)),
         "count");
  m->Add("storage.grows", delta(&casper::ChunkStatsSnapshot::grows), "count");
  m->Add("exec.mixed_run_p50_ms", layer(Layer::kMixedRun).p50_us / 1e3, "ms");
  m->Add("exec.mixed_run_p99_ms", layer(Layer::kMixedRun).p99_us / 1e3, "ms");
  m->Add("exec.cpu_per_wall", Ratio(u.cpu_s, u.wall_s), "ratio");
  m->Add("exec.cpu_us_per_op", u.cpu_s * 1e6 / n_ops, "us");
  m->Add("exec.pool_batch_p50_ms", pooled ? Percentile(pooled->request_ns, 0.50) / 1e6 : 0,
         "ms");
  m->Add("exec.pool_batch_p99_ms", pooled ? Percentile(pooled->request_ns, 0.99) / 1e6 : 0,
         "ms");
  m->Add("exec.pool_speedup", pooled ? Ratio(u.wall_s, pooled->wall_s) : 0, "x");
  m->Add("exec.pool_cpu_per_wall", pooled ? Ratio(pooled->cpu_s, pooled->wall_s) : 0,
         "ratio");
  m->Add("persist.journal_append_p50_us", layer(Layer::kJournalAppend).p50_us, "us");
  m->Add("persist.journal_append_p99_us", layer(Layer::kJournalAppend).p99_us, "us");
  m->Add("persist.flush_ms", layer(Layer::kFlush).total_ms, "ms");
  m->Add("persist.journal_bytes_per_user_byte", end.journal_bytes_per_user_byte, "ratio");
  m->Add("persist.evictions", delta(&casper::ChunkStatsSnapshot::evictions), "count");
  m->Add("persist.promotions", delta(&casper::ChunkStatsSnapshot::promotions), "count");
  m->Add("persist.disk_reads_per_kop",
         delta(&casper::ChunkStatsSnapshot::disk_reads) * 1000.0 / n_ops, "count");
  m->Add("persist.disk_bytes_per_disk_read",
         Ratio(delta(&casper::ChunkStatsSnapshot::disk_bytes_read),
               delta(&casper::ChunkStatsSnapshot::disk_reads)),
         "B");
  m->Add("persist.resident_read_ratio",
         Ratio(static_cast<double>(reads - cold_ns.size()), static_cast<double>(reads)),
         "ratio");
  m->Add("persist.cold_read_p50_us", Percentile(cold_ns, 0.5) / 1e3, "us");
  m->Add("persist.recovery_s", end.recovery_s, "s");
  m->Add("persist.disk_amplification", end.disk_amplification, "x");
  m->Add("trace.overhead_pct", (Ratio(t.wall_s, u.wall_s) - 1.0) * 100.0, "%");

  std::printf("traced run: %zu spans; per layer (self = duration minus child spans)\n",
              spans.size());
  std::printf("  %-24s %10s %12s %12s %12s %12s\n", "layer", "count", "total_ms",
              "self_ms", "p50_us", "p99_us");
  for (size_t l = 0; l < sum.size(); ++l) {
    if (sum[l].count == 0) continue;
    std::printf("  %-24s %10llu %12.3f %12.3f %12.3f %12.3f\n",
                LayerName(static_cast<Layer>(l)),
                static_cast<unsigned long long>(sum[l].count), sum[l].total_ms,
                sum[l].self_ms, sum[l].p50_us, sum[l].p99_us);
  }
  std::printf("tracing overhead: traced %.3f s vs untraced %.3f s wall for the same stream\n",
              t.wall_s, u.wall_s);
  std::printf("not measured from outside the engine: the split of a read into route, "
              "latch wait, encoding lookup/build, zone-map walk, kernel and merge, and of "
              "a write into route, ripple/ghost moves and journal append (needs spans "
              "inside src/); blocks scanned per read (no scan path counts blocks)\n");
}

struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  Metrics metrics;
};

/// Checks a phase's answers and final row count against the reference.
void Check(const WorkloadSpec& spec, const Inputs& in, const PhaseOutput& p,
           const Guard& g, RunResult* r) {
  size_t ref_rows = 0;
  const size_t bad = CountMismatches(spec, in, p, &ref_rows);
  std::printf("oracle: %zu of %zu answers differ from the reference model; "
              "rows %llu (reference %zu); later replays are checked against this one\n",
              bad, in.ops.size(), static_cast<unsigned long long>(g.rows), ref_rows);
  r->attempted += in.ops.size();
  r->failed += bad;
  if (g.rows != ref_rows) r->correct = false;
}

/// Checks a replay of the stream against one the reference already checked:
/// the same guard and every answer the same.
void CheckAgainst(const Replay& checked, const Replay& rep, const char* what,
                  RunResult* r) {
  if (rep.guard.ToString() != checked.guard.ToString()) {
    std::printf("determinism guard MISMATCH (%s)\n  first: %s\n  this:  %s\n", what,
                checked.guard.ToString().c_str(), rep.guard.ToString().c_str());
    r->correct = false;
  }
  const PhaseOutput& a = checked.phase;
  const PhaseOutput& b = rep.phase;
  size_t bad = 0;
  for (size_t i = 0; i < a.results.size(); ++i) bad += a.results[i] != b.results[i];
  for (size_t i = 0; i < a.batch_writes.size(); ++i) {
    bad += a.batch_writes[i] != b.batch_writes[i];
  }
  r->attempted += a.results.size();
  r->failed += bad;
}

RunResult Run(const Args& args, const WorkloadSpec& spec) {
  RunResult r;
  const size_t n_ops = static_cast<size_t>(args.seconds) * spec.ops_per_second / spec.replays;
  const Inputs in = MakeInputs(spec, args.seed, spec.warmup_ops + n_ops);
  const std::string store_dir = args.work_dir + "/store-" + spec.name;
  fs::create_directories(args.work_dir + "/guard");
  const std::string guard_path = args.work_dir + "/guard/" + BinaryId() + "-" +
                                 spec.name + "-seed" + std::to_string(args.seed) +
                                 "-s" + std::to_string(args.seconds) + ".txt";
  std::printf("workload %s: %zu rows x (key + %zu payload) = %.1f MiB user data, "
              "%zu timed ops per replay after %zu warm-up ops, seed %llu\n",
              spec.name.c_str(), spec.rows, spec.payload_cols,
              static_cast<double>(spec.rows * spec.RowBytes()) / (1 << 20), n_ops,
              spec.warmup_ops, static_cast<unsigned long long>(args.seed));

  // Untraced replays. Every replay must reproduce the first one's guard.
  std::vector<Replay> replays;
  for (size_t k = 0; k < (args.trace ? 1 : spec.replays); ++k) {
    replays.push_back(RunReplay(spec, in, store_dir, /*traced=*/false, 1));
    const Replay& rep = replays.back();
    if (k > 0) CheckAgainst(replays.front(), rep, "untraced replay", &r);
    if (!rep.end.recovered_ok) {
      std::printf("recovery: a re-opened store lost rows or answers\n");
      r.correct = false;
    }
    std::printf("replay %zu: open %.4f s, %.1f ops/s over %.3f s, request p50 %.3f us "
                "p99 %.3f us\n",
                k, rep.open_s, static_cast<double>(n_ops) / rep.phase.wall_s,
                rep.phase.wall_s, Percentile(rep.phase.request_ns, 0.50) / 1e3,
                Percentile(rep.phase.request_ns, 0.99) / 1e3);
  }
  const Replay& first = replays.front();
  Check(spec, in, first.phase, first.guard, &r);
  if (!CheckGuard(guard_path, first.guard)) r.correct = false;
  PrintCounters(first.phase);
  PrintLatencies(spec, replays);

  if (args.trace == 0) {
    // Medians over the replays: a replay that a burst on the shared host
    // slowed moves a median far less than it moves a pooled percentile.
    std::vector<double> open_s, ops_s, p50, p99, mem, recovery;
    for (const Replay& rep : replays) {
      open_s.push_back(rep.open_s);
      ops_s.push_back(static_cast<double>(n_ops) / rep.phase.wall_s);
      p50.push_back(Percentile(rep.phase.request_ns, 0.50) / 1e3);
      p99.push_back(Percentile(rep.phase.request_ns, 0.99) / 1e3);
      mem.push_back(rep.end.mem_amplification);
      recovery.push_back(rep.end.recovery_s);
    }
    if (spec.durable) {
      std::printf("disk_amplification %.4f x\nrecovery_s %.4f s (median of %zu re-opens)\n",
                  first.end.disk_amplification, Median(recovery), spec.replays);
    }
    r.metrics.Add("setup_s", Median(open_s), "s");
    r.metrics.Add("throughput_ops_s", Median(ops_s), "ops/s");
    r.metrics.Add("request_p50_us", Median(p50), "us");
    r.metrics.Add("request_p99_us", Median(p99), "us");
    r.metrics.Add("mem_amplification", Median(mem), "x");
    std::printf("end-to-end metrics are medians over %zu replays of %zu timed requests "
                "each\n",
                spec.replays, replays.front().phase.request_ns.size());
  } else {
    // The layout layer's share of setup: BuildLayout on the same inputs.
    casper::LayoutBuildOptions build = MakeEngineOptions(spec, &in.training, "").layout;
    build.training = &in.training;
    const int64_t b0 = NowNs();
    casper::BuildLayout(build, in.keys, in.payload).reset();
    const double build_s = static_cast<double>(NowNs() - b0) / 1e9;

    const Replay traced = RunReplay(spec, in, store_dir, /*traced=*/true, 0);
    CheckAgainst(first, traced, "traced replay", &r);
    fs::create_directories(args.work_dir + "/spans");
    const std::string span_path = args.work_dir + "/spans/" + spec.name + ".spans";
    if (traced.phase.spans->WriteFile(span_path)) {
      std::printf("span file: %s\n", span_path.c_str());
    } else {
      std::printf("span file: could not write %s\n", span_path.c_str());
      r.correct = false;
    }
    // The pooled mixed runner, against the serial replay of the same stream.
    std::optional<Replay> pooled;
    if (spec.compare_pool_threads > 0) {
      pooled.emplace(RunReplay(spec, in, store_dir, /*traced=*/false, 0,
                               spec.compare_pool_threads));
      CheckAgainst(first, *pooled, "pooled replay", &r);
      std::printf("pooled replay (%zu threads): %.3f s vs serial %.3f s\n",
                  spec.compare_pool_threads, pooled->phase.wall_s, first.phase.wall_s);
    }
    AddLayerMetrics(spec, in, first.phase, traced.phase,
                    pooled ? &pooled->phase : nullptr, first.end, build_s, &r.metrics);
  }
  if (r.failed > 0) r.correct = false;
  return r;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const RunResult r = Run(args, spec);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              r.correct ? "true" : "false", r.attempted, r.failed, r.metrics.Json().c_str());
  return r.correct ? 0 : 1;
}
