#ifndef CASPER_MODEL_ENCODING_ADVISOR_H_
#define CASPER_MODEL_ENCODING_ADVISOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "compression/packed_column.h"
#include "storage/types.h"

namespace casper {

/// Per-column statistics the encoding choice is made from: the value-shape
/// numbers (distinct count, range) come from the column itself at encode
/// time, the scan/update mix from the chunk counters the read and write
/// paths already bump (ChunkStats).
struct PayloadColumnProfile {
  size_t rows = 0;
  size_t distinct = 0;
  Payload min = 0;
  Payload max = 0;
  uint64_t reads = 0;   ///< element reads + compressed scans on the chunk
  uint64_t writes = 0;  ///< element writes on the chunk
};

/// The central compression-payoff gate for 32-bit payload columns: an
/// encoding must predict <= 16 effective bits per value (>= 2x vs the raw
/// array) or the column stays raw — the payload-side twin of the key cache's
/// max_mean_bits = 32 gate, applied in ONE place so every chunk and layout
/// shares the same payoff rule.
inline constexpr double kMaxPayloadMeanBits = 16.0;

/// Exact count of distinct values among values[0, n), all within
/// [min, max]. Marks a bitmap over [min, max] when (max - min) / 64 <= n,
/// so the bitmap is never larger than the column; sorts a copy otherwise.
/// Both paths count the same set.
size_t CountDistinct(const Payload* values, size_t n, Payload min, Payload max);

/// min/max and exact distinct count of a column (one pass + CountDistinct).
PayloadColumnProfile ProfilePayloadValues(const std::vector<Payload>& values);

/// Picks raw / FoR / dictionary for one payload column of one chunk:
///  - update-heavy chunks (writes > reads) stay raw — the encode would be
///    invalidated before it amortizes;
///  - otherwise the encoding with the smaller predicted mean bits/value
///    wins (dictionary pays code width + amortized dictionary storage, FoR
///    pays the range width), subject to the kMaxPayloadMeanBits gate.
PayloadEncoding ChoosePayloadEncoding(const PayloadColumnProfile& profile);

/// Profile + choose + encode + verify: the one-call surface the compressed
/// cache encoders use. Returns nullptr when the column should stay raw
/// (advisor said so, or the built encoding missed the gate after all).
std::shared_ptr<const PackedPayloadColumn> AdvisePayloadEncoding(
    const std::vector<Payload>& values, uint64_t reads, uint64_t writes);

}  // namespace casper

#endif  // CASPER_MODEL_ENCODING_ADVISOR_H_
