#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names: one root per client request or cycle, one child per call
/// into a module's public surface.
enum class Layer : uint8_t {
  kRequest,        ///< root: one client request (op or batch)
  kCycle,          ///< root: one maintenance()->RunCycle (incl. tier hook)
  kFlush,          ///< root: one FlushWal at a phase end
  kObserve,        ///< maintenance()->Observe / ObserveSpec / ObserveAll
  kPointLookup,    ///< layout().PointLookup
  kScan,           ///< ParallelExecutor(pool).ExecuteScan
  kWrite,          ///< layout().Insert / Delete / UpdateKey
  kJournalAppend,  ///< durable()->LogOps / LogRows
  kMixedRun,       ///< MixedWorkloadRunner(pool, &oracle).Run
  kNumLayers,
};

const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t request_id = 0;  ///< shared by a root and its children
  int32_t parent = -1;      ///< index of the parent span; -1 for roots
  Layer layer = Layer::kRequest;
};

/// In-memory span recorder. Spans go into a preallocated vector and are
/// written out only after the timed phase.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t expected_spans) { spans_.reserve(expected_spans); }

  /// Opens a root span for a new request id; returns its index.
  int32_t BeginRoot(Layer layer) {
    ++request_id_;
    return Begin(layer, -1);
  }
  int32_t BeginChild(Layer layer, int32_t parent) { return Begin(layer, parent); }
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as fixed 32-byte little-endian records
  /// (start_ns i64, end_ns i64, request_id u32, parent i32, layer u8,
  /// 7 pad bytes) after a 16-byte header ("CSPRSPAN", u32 version 1,
  /// u32 record count). Returns false on an I/O error.
  bool WriteFile(const std::string& path) const;

 private:
  int32_t Begin(Layer layer, int32_t parent) {
    Span s;
    s.request_id = request_id_;
    s.parent = parent;
    s.layer = layer;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }

  std::vector<Span> spans_;
  uint32_t request_id_ = 0;
};

/// Per-layer aggregate of a span set: count, total and self time (duration
/// minus the part covered by child spans), and the duration percentiles.
struct LayerSummary {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double p50_us = 0;
  double p99_us = 0;
};

std::vector<LayerSummary> Summarize(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
