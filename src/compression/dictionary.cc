#include "compression/dictionary.h"

#include <algorithm>

#include "exec/scan_kernels.h"

namespace casper {

DictionaryColumn::DictionaryColumn(const std::vector<Value>& values) {
  dict_ = values;
  std::sort(dict_.begin(), dict_.end());
  dict_.erase(std::unique(dict_.begin(), dict_.end()), dict_.end());
  const unsigned width = BitsFor(dict_.empty() ? 0 : dict_.size() - 1);
  codes_ = BitPackedArray::Pack(
      values.data(), values.size(), width, dict_.empty() ? 0 : dict_.size() - 1,
      [this](Value v) {
        return static_cast<uint64_t>(
            std::lower_bound(dict_.begin(), dict_.end(), v) - dict_.begin());
      });
}

bool DictionaryColumn::CodeRange(Value lo, Value hi, uint64_t* code_lo,
                                 uint64_t* code_hi) const {
  if (lo >= hi || dict_.empty()) return false;
  // Order-preserving dictionary: translate the value range to a code range.
  *code_lo = static_cast<uint64_t>(
      std::lower_bound(dict_.begin(), dict_.end(), lo) - dict_.begin());
  *code_hi = static_cast<uint64_t>(
      std::lower_bound(dict_.begin(), dict_.end(), hi) - dict_.begin());
  return *code_lo < *code_hi;
}

uint64_t DictionaryColumn::CountRange(Value lo, Value hi) const {
  uint64_t code_lo = 0, code_hi = 0;
  if (!CodeRange(lo, hi, &code_lo, &code_hi)) return 0;
  // Scan-on-compressed: the predicate runs on the packed code words.
  return kernels::CountPackedInRange(codes_.words(), 0, codes_.size(),
                                     codes_.bit_width(), code_lo, code_hi);
}

void DictionaryColumn::CollectEqual(Value v, std::vector<uint32_t>* out) const {
  const auto it = std::lower_bound(dict_.begin(), dict_.end(), v);
  if (it == dict_.end() || *it != v) return;
  const uint64_t code = static_cast<uint64_t>(it - dict_.begin());
  // Packed point filter: [code, code] closed on the code words, blockwise.
  constexpr size_t kBlock = 1024;
  uint32_t slots[kBlock];
  for (size_t off = 0; off < codes_.size(); off += kBlock) {
    const size_t m = std::min(kBlock, codes_.size() - off);
    const size_t k = kernels::FilterPackedPayloadInRange(
        codes_.words(), off, off + m, codes_.bit_width(), code, code,
        static_cast<uint32_t>(off), slots);
    out->insert(out->end(), slots, slots + k);
  }
}

std::vector<Value> DictionaryColumn::DecodeAll() const {
  std::vector<Value> out(codes_.size());
  for (size_t i = 0; i < codes_.size(); ++i) out[i] = dict_[codes_.Get(i)];
  return out;
}

}  // namespace casper
