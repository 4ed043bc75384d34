#include "trace.h"

#include <cstdio>
#include <cstring>

#include "stats.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "client.request";
    case Layer::kCycle:
      return "maintenance.cycle";
    case Layer::kFlush:
      return "persist.flush";
    case Layer::kObserve:
      return "maintenance.observe";
    case Layer::kPointLookup:
      return "layouts.point";
    case Layer::kScan:
      return "layouts.scan";
    case Layer::kWrite:
      return "layouts.write";
    case Layer::kJournalAppend:
      return "persist.journal_append";
    case Layer::kMixedRun:
      return "exec.mixed_run";
    case Layer::kNumLayers:
      break;
  }
  return "?";
}

bool SpanRecorder::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  unsigned char header[16] = {'C', 'S', 'P', 'R', 'S', 'P', 'A', 'N'};
  const uint32_t version = 1;
  const uint32_t count = static_cast<uint32_t>(spans_.size());
  std::memcpy(header + 8, &version, 4);
  std::memcpy(header + 12, &count, 4);
  bool ok = std::fwrite(header, 1, sizeof(header), f) == sizeof(header);
  for (size_t i = 0; ok && i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    unsigned char rec[32] = {};
    std::memcpy(rec, &s.start_ns, 8);
    std::memcpy(rec + 8, &s.end_ns, 8);
    std::memcpy(rec + 16, &s.request_id, 4);
    std::memcpy(rec + 20, &s.parent, 4);
    rec[24] = static_cast<unsigned char>(s.layer);
    ok = std::fwrite(rec, 1, sizeof(rec), f) == sizeof(rec);
  }
  return std::fclose(f) == 0 && ok;
}

std::vector<LayerSummary> Summarize(const std::vector<Span>& spans) {
  const size_t n_layers = static_cast<size_t>(Layer::kNumLayers);
  // Children of one parent run one after another on the client thread, so
  // the part of the parent they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<LayerSummary> out(n_layers);
  std::vector<std::vector<int64_t>> durations(n_layers);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const size_t l = static_cast<size_t>(s.layer);
    const int64_t d = s.end_ns - s.start_ns;
    out[l].count += 1;
    out[l].total_ms += static_cast<double>(d) / 1e6;
    out[l].self_ms += static_cast<double>(d - child_ns[i]) / 1e6;
    durations[l].push_back(d);
  }
  for (size_t l = 0; l < n_layers; ++l) {
    out[l].p50_us = Percentile(durations[l], 0.50) / 1e3;
    out[l].p99_us = Percentile(durations[l], 0.99) / 1e3;
  }
  return out;
}

}  // namespace perfbench
