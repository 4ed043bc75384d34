#include "model/encoding_advisor.h"

#include <algorithm>
#include <tuple>

namespace casper {

size_t CountDistinct(const Payload* values, size_t n, Payload min,
                     Payload max) {
  if (n == 0) return 0;
  const uint64_t range = static_cast<uint64_t>(max) - min;
  if (range / 64 > n) {
    std::vector<Payload> sorted(values, values + n);
    std::sort(sorted.begin(), sorted.end());
    return static_cast<size_t>(std::unique(sorted.begin(), sorted.end()) -
                               sorted.begin());
  }
  std::vector<uint64_t> seen(range / 64 + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t off = static_cast<uint64_t>(values[i]) - min;
    seen[off >> 6] |= uint64_t{1} << (off & 63);
  }
  size_t distinct = 0;
  for (const uint64_t w : seen) {
    distinct += static_cast<size_t>(__builtin_popcountll(w));
  }
  return distinct;
}

PayloadColumnProfile ProfilePayloadValues(const std::vector<Payload>& values) {
  PayloadColumnProfile p;
  p.rows = values.size();
  if (values.empty()) return p;
  std::tie(p.min, p.max) = MinMaxOf(values.data(), values.size());
  p.distinct = CountDistinct(values.data(), values.size(), p.min, p.max);
  return p;
}

PayloadEncoding ChoosePayloadEncoding(const PayloadColumnProfile& profile) {
  if (profile.rows == 0) return PayloadEncoding::kRaw;
  // Update-heavy chunks churn the cache faster than an encode amortizes.
  if (profile.writes > profile.reads) return PayloadEncoding::kRaw;
  // Predicted mean bits per value. The dictionary pays the code width plus
  // the amortized dictionary storage (32-bit entry + 64-bit lut entry per
  // distinct value); FoR pays the width of the value range.
  const double dict_bits =
      static_cast<double>(BitsFor(profile.distinct == 0 ? 0
                                                        : profile.distinct - 1)) +
      96.0 * static_cast<double>(profile.distinct) /
          static_cast<double>(profile.rows);
  const double for_bits = static_cast<double>(
      BitsFor(static_cast<uint64_t>(profile.max) -
              static_cast<uint64_t>(profile.min)));
  const double best = std::min(dict_bits, for_bits);
  if (best > kMaxPayloadMeanBits) return PayloadEncoding::kRaw;
  // Ties favor FoR: same bits, no dictionary indirection on decode.
  return for_bits <= dict_bits ? PayloadEncoding::kFrameOfReference
                               : PayloadEncoding::kDictionary;
}

std::shared_ptr<const PackedPayloadColumn> AdvisePayloadEncoding(
    const std::vector<Payload>& values, uint64_t reads, uint64_t writes) {
  PayloadColumnProfile profile = ProfilePayloadValues(values);
  profile.reads = reads;
  profile.writes = writes;
  const PayloadEncoding enc = ChoosePayloadEncoding(profile);
  if (enc == PayloadEncoding::kRaw) return nullptr;
  auto col = PackedPayloadColumn::Encode(values, enc);
  // Re-check the payoff gate on the built column: the prediction ignores the
  // prefix-sum blocks and per-array padding, so verify the real footprint.
  if (col && col->MeanBitsPerValue() > kMaxPayloadMeanBits) return nullptr;
  return col;
}

}  // namespace casper
