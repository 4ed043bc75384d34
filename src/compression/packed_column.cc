#include "compression/packed_column.h"

#include <algorithm>

#include "exec/scan_kernels.h"

namespace casper {

std::shared_ptr<const PackedPayloadColumn> PackedPayloadColumn::Encode(
    const std::vector<Payload>& values, PayloadEncoding enc) {
  if (values.empty() || enc == PayloadEncoding::kRaw) return nullptr;
  // make_shared cannot call the private constructor; the factory keeps the
  // invariant that every published column is fully encoded.
  // NOLINTNEXTLINE(modernize-make-shared)
  auto col = std::shared_ptr<PackedPayloadColumn>(new PackedPayloadColumn());
  col->enc_ = enc;
  if (enc == PayloadEncoding::kFrameOfReference) {
    const auto [mn, mx] = MinMaxOf(values.data(), values.size());
    col->base_ = mn;
    const uint64_t base = mn;
    const uint64_t max_offset = static_cast<uint64_t>(mx) - base;
    col->packed_ = BitPackedArray::Pack(
        values.data(), values.size(), BitsFor(max_offset), max_offset,
        [base](Payload v) { return static_cast<uint64_t>(v) - base; });
  } else {
    col->dict_ = values;
    std::sort(col->dict_.begin(), col->dict_.end());
    col->dict_.erase(std::unique(col->dict_.begin(), col->dict_.end()),
                     col->dict_.end());
    col->lut_.assign(col->dict_.begin(), col->dict_.end());
    const unsigned width = BitsFor(col->dict_.size() - 1);
    const std::vector<Payload>& dict = col->dict_;
    col->packed_ = BitPackedArray::Pack(
        values.data(), values.size(), width, dict.size() - 1,
        [&dict](Payload v) {
          return static_cast<uint64_t>(
              std::lower_bound(dict.begin(), dict.end(), v) - dict.begin());
        });
  }
  // Block prefix sums in payload space (wrapping): predicate-free sums over
  // row windows reduce to two prefix loads plus the block edges.
  const size_t blocks = values.size() / kSumBlock;
  col->prefix_.resize(blocks + 1);
  uint64_t acc = 0;
  col->prefix_[0] = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const Payload* d = values.data() + b * kSumBlock;
    for (size_t i = 0; i < kSumBlock; ++i) acc += d[i];
    col->prefix_[b + 1] = acc;
  }
  return col;
}

std::shared_ptr<const PackedPayloadColumn> PackedPayloadColumn::FromParts(
    PayloadEncoding enc, Payload base, std::vector<Payload> dict,
    BitPackedArray packed) {
  CASPER_CHECK(enc != PayloadEncoding::kRaw);
  if (enc == PayloadEncoding::kDictionary) {
    CASPER_CHECK_MSG(!dict.empty() && std::is_sorted(dict.begin(), dict.end()),
                     "dictionary must be sorted and non-empty");
  }
  // NOLINTNEXTLINE(modernize-make-shared)
  auto col = std::shared_ptr<PackedPayloadColumn>(new PackedPayloadColumn());
  col->enc_ = enc;
  col->base_ = enc == PayloadEncoding::kFrameOfReference ? base : 0;
  col->dict_ = std::move(dict);
  col->lut_.assign(col->dict_.begin(), col->dict_.end());
  col->packed_ = std::move(packed);
  // Rebuild the block prefix sums exactly as Encode would have: decoding
  // position i reproduces the original value, and wrapping u64 accumulation
  // is deterministic, so sums answered from a reassembled column stay
  // bit-identical to the pre-serialization encoding.
  const size_t blocks = col->packed_.size() / kSumBlock;
  col->prefix_.resize(blocks + 1);
  uint64_t acc = 0;
  col->prefix_[0] = 0;
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t i = 0; i < kSumBlock; ++i) {
      acc += col->DecodeAt(b * kSumBlock + i);
    }
    col->prefix_[b + 1] = acc;
  }
  return col;
}

Payload PackedPayloadColumn::DecodeAt(size_t i) const {
  const uint64_t p = packed_.Get(i);
  if (enc_ == PayloadEncoding::kFrameOfReference) {
    return static_cast<Payload>(static_cast<uint64_t>(base_) + p);
  }
  return dict_[p];
}

std::vector<Payload> PackedPayloadColumn::DecodeAll() const {
  std::vector<Payload> out(size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = DecodeAt(i);
  return out;
}

bool PackedPayloadColumn::RewritePredicate(Payload lo, Payload hi,
                                           uint64_t* plo, uint64_t* phi) const {
  if (lo > hi) return false;  // canonical empty predicate
  if (enc_ == PayloadEncoding::kFrameOfReference) {
    if (hi < base_) return false;  // every encoded value is >= base_
    *plo = lo <= base_ ? 0
                       : static_cast<uint64_t>(lo) - static_cast<uint64_t>(base_);
    *phi = static_cast<uint64_t>(hi) - static_cast<uint64_t>(base_);
    return true;
  }
  // Order-preserving dictionary: [lo, hi] maps to the code range of the
  // first entry >= lo through the last entry <= hi.
  const auto first = std::lower_bound(dict_.begin(), dict_.end(), lo);
  if (first == dict_.end() || *first > hi) return false;
  const auto last = std::upper_bound(first, dict_.end(), hi);
  *plo = static_cast<uint64_t>(first - dict_.begin());
  *phi = static_cast<uint64_t>(last - dict_.begin()) - 1;
  return true;
}

uint64_t PackedPayloadColumn::SumEdge(size_t begin, size_t end) const {
  if (enc_ == PayloadEncoding::kFrameOfReference) {
    return kernels::SumPackedPayload(packed_.words(), begin, end,
                                     packed_.bit_width(), base_);
  }
  return kernels::SumPackedLookup(packed_.words(), begin, end,
                                  packed_.bit_width(), lut_.data());
}

uint64_t PackedPayloadColumn::SumRows(size_t begin, size_t end) const {
  end = std::min(end, size());
  if (begin >= end) return 0;
  const size_t b0 = (begin + kSumBlock - 1) / kSumBlock;  // first full block
  const size_t b1 = end / kSumBlock;                      // one past the last
  if (b0 >= b1) return SumEdge(begin, end);  // range within one block
  uint64_t sum = prefix_[b1] - prefix_[b0];  // wrapping diff == interior sum
  sum += SumEdge(begin, b0 * kSumBlock);
  sum += SumEdge(b1 * kSumBlock, end);
  return sum;
}

size_t PackedPayloadColumn::CompressedBytes() const {
  return packed_.bytes() + dict_.size() * sizeof(Payload) +
         lut_.size() * sizeof(uint64_t) + prefix_.size() * sizeof(uint64_t);
}

double PackedPayloadColumn::MeanBitsPerValue() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(CompressedBytes()) * 8.0 /
         static_cast<double>(size());
}

}  // namespace casper
