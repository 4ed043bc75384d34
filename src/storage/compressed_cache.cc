#include "storage/compressed_cache.h"

#include "model/encoding_advisor.h"

namespace casper {

void EncodePayloadColumns(const std::vector<std::vector<Payload>>& raw,
                          const std::vector<PayloadRun>* runs,
                          const std::vector<size_t>& cols, ChunkEncoding* enc) {
  enc->payload.resize(raw.size());
  enc->built.resize(raw.size(), false);
  if (runs != nullptr) enc->payload_zones.resize(raw.size());
  std::vector<Payload> vals;
  size_t live_rows = 0;
  if (runs != nullptr) {
    for (const PayloadRun& r : *runs) live_rows += r.size;
  }
  for (const size_t c : cols) {
    if (enc->Built(c)) continue;
    const std::vector<Payload>* live = &raw[c];
    if (runs != nullptr) {
      // Gather the live rows in packed order, recording each run's zone
      // (left {0, 0} for an empty run).
      vals.clear();
      vals.reserve(live_rows);
      auto& zones = enc->payload_zones[c];
      zones.assign(runs->size(), PayloadZone{});
      for (size_t t = 0; t < runs->size(); ++t) {
        const PayloadRun& r = (*runs)[t];
        if (r.size == 0) continue;
        const Payload* run = raw[c].data() + r.begin;
        const auto [lo, hi] = MinMaxOf(run, r.size);
        zones[t] = PayloadZone{lo, hi};
        vals.insert(vals.end(), run, run + r.size);
      }
      live = &vals;
    }
    enc->payload[c] = AdvisePayloadEncoding(*live, enc->reads, enc->writes);
    enc->built[c] = true;
  }
}

CompressedChunkCache::EncodingPtr DenseEncoding(
    CompressedChunkCache& cache, uint64_t epoch, const std::vector<Value>& keys,
    const std::vector<std::vector<Payload>>& payload, const ScanSpec& spec,
    bool vote) {
  if (!vote) return cache.Get(0, epoch);
  return cache.GetOrBuild(
      0, epoch, keys.size(), spec,
      [&](ChunkEncoding* enc, const std::vector<size_t>& cols) {
        if (enc->keys == nullptr) {
          enc->keys = std::make_shared<FrameOfReferenceColumn>(keys, size_t{4096});
          enc->reads = 1;
          enc->writes = 0;
        }
        EncodePayloadColumns(payload, nullptr, cols, enc);
        return true;
      });
}

}  // namespace casper
