#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "exec/mixed_workload_runner.h"
#include "exec/parallel_executor.h"
#include "layouts/layout_engine.h"
#include "reference.h"

namespace perfbench {

using casper::CasperEngine;
using casper::Operation;

namespace {

Counters SampleCounters(const CasperEngine& e) {
  Counters c;
  c.storage = e.layout().StatsSnapshots().Totals();
  if (e.maintenance() != nullptr) c.maintenance = e.maintenance()->stats();
  return c;
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

/// The closed-loop client. Untraced, every request is one facade call.
/// Traced, it performs what the facade does call by call — observe, journal,
/// then the layout or runner — with a span around each call and a root span
/// per request.
template <bool kTraced>
class Client {
 public:
  Client(CasperEngine* e, size_t payload_cols, PhaseOutput* out)
      : e_(*e), payload_cols_(payload_cols), out_(*out) {}

  uint64_t Request(const Op& op) {
    if constexpr (!kTraced) {
      return Facade(op);
    } else {
      const int32_t root = rec().BeginRoot(Layer::kRequest);
      const uint64_t disk_before = tiered() ? DiskReads() : 0;
      const uint64_t r = Decomposed(op, root);
      if (tiered() && ClassOf(op.kind) != OpClass::kWrite) {
        out_.touched_disk.push_back(DiskReads() != disk_before);
      } else {
        out_.touched_disk.push_back(0);
      }
      rec().End(root);
      return r;
    }
  }

  casper::MixedResult Batch(const std::vector<Operation>& ops) {
    if constexpr (!kTraced) {
      return e_.RunMixed(ops);
    } else {
      const int32_t root = rec().BeginRoot(Layer::kRequest);
      if (e_.maintenance() != nullptr) {
        const int32_t s = rec().BeginChild(Layer::kObserve, root);
        e_.maintenance()->ObserveAll(ops);
        rec().End(s);
      }
      if (e_.durable() != nullptr) {
        const int32_t s = rec().BeginChild(Layer::kJournalAppend, root);
        e_.durable()->LogOps(ops.data(), ops.size());
        rec().End(s);
      }
      const int32_t s = rec().BeginChild(Layer::kMixedRun, root);
      casper::MixedResult r =
          casper::MixedWorkloadRunner(e_.pool(), &e_.oracle()).Run(e_.layout(), ops);
      rec().End(s);
      rec().End(root);
      out_.touched_disk.insert(out_.touched_disk.end(), ops.size(), 0);
      return r;
    }
  }

  void Cycle() {
    if constexpr (!kTraced) {
      e_.maintenance()->RunCycle();
    } else {
      const int32_t root = rec().BeginRoot(Layer::kCycle);
      e_.maintenance()->RunCycle();
      rec().End(root);
    }
  }

  void Flush() {
    casper::Status s;
    if constexpr (!kTraced) {
      s = e_.FlushWal();
    } else {
      const int32_t root = rec().BeginRoot(Layer::kFlush);
      s = e_.FlushWal();
      rec().End(root);
    }
    CASPER_CHECK_MSG(s.ok(), "FlushWal failed: " << s.ToString());
  }

 private:
  SpanRecorder& rec() { return *out_.spans; }
  bool tiered() const { return e_.tier() != nullptr; }
  uint64_t DiskReads() const {
    return e_.layout().StatsSnapshots().Totals().disk_reads;
  }

  uint64_t Facade(const Op& op) {
    switch (op.kind) {
      case Kind::kPoint:
        return e_.Find(op.a);
      case Kind::kInsert:
        casper::KeyDerivedPayload(op.a, payload_cols_, &payload_);
        e_.Insert(op.a, payload_);
        return 0;
      case Kind::kDelete:
        return e_.Delete(op.a);
      case Kind::kUpdate:
        return e_.Update(op.a, op.b) ? 1 : 0;
      default: {
        const casper::ScanSpec spec = SpecFor(op);
        return e_.ExecuteScan(spec).Result(spec.agg);
      }
    }
  }

  uint64_t Decomposed(const Op& op, int32_t root) {
    casper::LayoutMaintenanceService* m = e_.maintenance();
    casper::persist::DurableStore* d = e_.durable();
    const OpClass cls = ClassOf(op.kind);
    const Operation as_op = ToOperation(op);
    casper::ScanSpec spec;
    if (cls == OpClass::kRange) spec = SpecFor(op);
    if (op.kind == Kind::kInsert) casper::KeyDerivedPayload(op.a, payload_cols_, &payload_);
    if (m != nullptr) {
      const int32_t s = rec().BeginChild(Layer::kObserve, root);
      if (cls == OpClass::kRange) {
        m->ObserveSpec(spec);
      } else {
        m->Observe(as_op);
      }
      rec().End(s);
    }
    if (cls == OpClass::kWrite && d != nullptr) {
      const int32_t s = rec().BeginChild(Layer::kJournalAppend, root);
      if (op.kind == Kind::kInsert) {
        const casper::Row row{op.a, payload_};
        d->LogRows(&row, 1);
      } else {
        d->LogOps(&as_op, 1);
      }
      rec().End(s);
    }
    uint64_t r = 0;
    casper::LayoutEngine& layout = e_.layout();
    if (cls == OpClass::kPoint) {
      const int32_t s = rec().BeginChild(Layer::kPointLookup, root);
      r = layout.PointLookup(op.a, nullptr);
      rec().End(s);
    } else if (cls == OpClass::kRange) {
      const int32_t s = rec().BeginChild(Layer::kScan, root);
      r = casper::ParallelExecutor(e_.pool()).ExecuteScan(layout, spec).Result(spec.agg);
      rec().End(s);
    } else {
      const int32_t s = rec().BeginChild(Layer::kWrite, root);
      if (op.kind == Kind::kInsert) {
        layout.Insert(op.a, payload_);
      } else if (op.kind == Kind::kDelete) {
        r = layout.Delete(op.a);
      } else {
        r = layout.UpdateKey(op.a, op.b) ? 1 : 0;
      }
      rec().End(s);
    }
    return r;
  }

  CasperEngine& e_;
  const size_t payload_cols_;
  PhaseOutput& out_;
  std::vector<casper::Payload> payload_;
};

template <bool kTraced>
void Drive(CasperEngine& e, const WorkloadSpec& spec, const Inputs& in,
           PhaseOutput* out) {
  const size_t n = in.ops.size();
  const size_t per_phase = (n + spec.phases.size() - 1) / spec.phases.size();
  const bool durable = e.durable() != nullptr;
  Client<kTraced> client(&e, spec.payload_cols, out);

  // Batches are cut before the clock starts.
  std::vector<std::vector<Operation>> batches;
  if (spec.batch_ops > 0) {
    for (size_t i = 0; i < n; i += spec.batch_ops) {
      std::vector<Operation> b;
      for (size_t j = i; j < std::min(n, i + spec.batch_ops); ++j) {
        b.push_back(ToOperation(in.ops[j]));
      }
      batches.push_back(std::move(b));
    }
  }

  // The warm-up prefix runs through the facade, untimed and unrecorded; the
  // clock and the counter baseline start at the first timed request.
  Client<false> warm_client(&e, spec.payload_cols, out);
  size_t i = 0;
  // One request, then whatever falls due after it: a maintenance/tier cycle
  // every cycle_every_ops ops and a journal flush at each phase end. So the
  // cycle after the last warm-up op still belongs to the warm-up.
  auto step = [&](auto& c, bool timed) {
    if (spec.batch_ops > 0) {
      const std::vector<Operation>& b = batches[i / spec.batch_ops];
      const int64_t s = NowNs();
      const casper::MixedResult r = c.Batch(b);
      if (timed) out->request_ns.push_back(NowNs() - s);
      std::copy(r.results.begin(), r.results.end(), out->results.begin() + i);
      out->batch_writes.emplace_back(r.deletes, r.updates);
      i += b.size();
    } else {
      const Op& op = in.ops[i];
      const int64_t s = NowNs();
      out->results[i] = c.Request(op);
      const int64_t d = NowNs() - s;
      if (timed) {
        out->request_ns.push_back(d);
        out->class_ns[static_cast<size_t>(ClassOf(op.kind))].push_back(d);
      }
      ++i;
    }
    if (spec.cycle_every_ops > 0 && i % spec.cycle_every_ops == 0 && i < n) c.Cycle();
    if (durable && (i % per_phase == 0 || i == n)) c.Flush();
  };
  while (i < spec.warmup_ops) step(warm_client, false);
  out->before = SampleCounters(e);
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  while (i < n) step(client, true);
  out->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out->cpu_s = CpuSeconds() - cpu0;
  out->after = SampleCounters(e);
}

}  // namespace

PhaseOutput RunPhase(CasperEngine& e, const WorkloadSpec& spec, const Inputs& in,
                     bool traced) {
  PhaseOutput out;
  const size_t n = in.ops.size();
  out.results.assign(n, 0);
  out.request_ns.reserve(n);
  if (spec.batch_ops == 0) {
    for (auto& v : out.class_ns) v.reserve(n);
  }
  if (traced) {
    // A root plus at most three children per request, and a root per cycle.
    out.spans = std::make_unique<SpanRecorder>(4 * n + 1024);
    out.touched_disk.reserve(n);
    Drive<true>(e, spec, in, &out);
  } else {
    Drive<false>(e, spec, in, &out);
  }
  return out;
}

size_t CountMismatches(const WorkloadSpec& spec, const Inputs& in,
                       const PhaseOutput& out, size_t* final_rows) {
  ReferenceModel ref(spec.DomainHi(), in.keys, in.payload);
  size_t rows = in.keys.size();
  size_t bad = 0;
  size_t deleted = 0;
  size_t updated = 0;
  for (size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const uint64_t want = ref.Apply(op);
    if (op.kind == Kind::kInsert) ++rows;
    if (op.kind == Kind::kDelete) rows -= want;
    const bool write = ClassOf(op.kind) == OpClass::kWrite;
    if (spec.batch_ops == 0 || !write) {
      bad += out.results[i] != want;
    } else if (op.kind == Kind::kDelete) {
      deleted += want;
    } else if (op.kind == Kind::kUpdate) {
      updated += want;
    }
    const bool batch_end =
        spec.batch_ops > 0 && ((i + 1) % spec.batch_ops == 0 || i + 1 == in.ops.size());
    if (batch_end) {
      const auto& got = out.batch_writes[i / spec.batch_ops];
      bad += (got.first != deleted) + (got.second != updated);
      deleted = 0;
      updated = 0;
    }
  }
  *final_rows = rows;
  return bad;
}

std::string Guard::ToString() const {
  std::ostringstream s;
  s << "fingerprint=" << fingerprint << " repartitions=" << repartitions
    << " evictions=" << evictions << " promotions=" << promotions
    << " grows=" << grows << " rows=" << rows
    << " result_checksum=" << result_checksum;
  return s.str();
}

Guard MakeGuard(const CasperEngine& e, const PhaseOutput& out) {
  Guard g;
  g.fingerprint = e.layout().LayoutFingerprint();
  g.repartitions = out.after.maintenance.chunks_repartitioned;
  g.evictions = out.after.storage.evictions;
  g.promotions = out.after.storage.promotions;
  g.grows = out.after.storage.grows;
  g.rows = e.num_rows();
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the answers
  for (const uint64_t r : out.results) {
    h = (h ^ r) * 1099511628211ull;
  }
  g.result_checksum = h;
  return g;
}

}  // namespace perfbench
