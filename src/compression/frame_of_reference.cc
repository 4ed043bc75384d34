#include "compression/frame_of_reference.h"

#include <algorithm>
#include <tuple>

#include "exec/scan_kernels.h"

namespace casper {

FrameOfReferenceColumn::FrameOfReferenceColumn(const std::vector<Value>& values,
                                               const std::vector<size_t>& frame_sizes) {
  BuildFrames(values, frame_sizes);
}

FrameOfReferenceColumn::FrameOfReferenceColumn(const std::vector<Value>& values,
                                               size_t frame_width) {
  CASPER_CHECK(frame_width > 0);
  std::vector<size_t> sizes;
  size_t remaining = values.size();
  while (remaining > 0) {
    const size_t take = std::min(remaining, frame_width);
    sizes.push_back(take);
    remaining -= take;
  }
  BuildFrames(values, sizes);
}

void FrameOfReferenceColumn::BuildFrames(const std::vector<Value>& values,
                                         const std::vector<size_t>& frame_sizes) {
  count_ = values.size();
  size_t begin = 0;
  for (const size_t sz : frame_sizes) {
    CASPER_CHECK(sz > 0 && begin + sz <= values.size());
    Frame f;
    f.begin = begin;
    std::tie(f.reference, f.max) = MinMaxOf(values.data() + begin, sz);
    // Offset arithmetic lives in uint64 (wrap-defined): values may span the
    // whole int64 domain, where max - reference overflows signed math.
    const uint64_t ref = static_cast<uint64_t>(f.reference);
    const uint64_t max_offset = static_cast<uint64_t>(f.max) - ref;
    f.offsets = BitPackedArray::Pack(
        values.data() + begin, sz, BitsFor(max_offset), max_offset,
        [ref](Value v) { return static_cast<uint64_t>(v) - ref; });
    frames_.push_back(std::move(f));
    begin += sz;
  }
  CASPER_CHECK_MSG(begin == values.size(), "frames must cover all values");
}

FrameOfReferenceColumn FrameOfReferenceColumn::FromFrames(
    std::vector<FramePieces> frames, size_t count) {
  FrameOfReferenceColumn col;
  col.count_ = count;
  size_t begin = 0;
  for (FramePieces& piece : frames) {
    CASPER_CHECK_MSG(piece.begin == begin && piece.offsets.size() > 0,
                     "frames must be contiguous from position 0");
    Frame f;
    f.reference = piece.reference;
    f.max = piece.max;
    f.begin = piece.begin;
    f.offsets = std::move(piece.offsets);
    begin += f.offsets.size();
    col.frames_.push_back(std::move(f));
  }
  CASPER_CHECK_MSG(begin == count, "frames must cover all values");
  return col;
}

size_t FrameOfReferenceColumn::size() const { return count_; }

Value FrameOfReferenceColumn::Get(size_t i) const {
  CASPER_CHECK(i < count_);
  // Binary search the owning frame by begin offset.
  size_t lo = 0, hi = frames_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (frames_[mid].begin <= i) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const Frame& f = frames_[lo];
  return static_cast<Value>(static_cast<uint64_t>(f.reference) +
                            f.offsets.Get(i - f.begin));
}

uint64_t FrameOfReferenceColumn::CountRange(Value lo, Value hi,
                                            ScanStats* stats) const {
  return CountRangeInRows(0, count_, lo, hi, stats);
}

uint64_t FrameOfReferenceColumn::CountRangeInRows(size_t row_begin,
                                                  size_t row_end, Value lo,
                                                  Value hi,
                                                  ScanStats* stats) const {
  if (lo >= hi || row_begin >= row_end || row_begin >= count_) return 0;
  row_end = std::min(row_end, count_);
  // First frame overlapping the window (frames are ordered by begin).
  size_t f0 = 0, f1 = frames_.size();
  while (f0 + 1 < f1) {
    const size_t mid = (f0 + f1) / 2;
    if (frames_[mid].begin <= row_begin) {
      f0 = mid;
    } else {
      f1 = mid;
    }
  }
  uint64_t count = 0;
  for (size_t fi = f0; fi < frames_.size() && frames_[fi].begin < row_end; ++fi) {
    const Frame& f = frames_[fi];
    const size_t b = std::max(row_begin, f.begin) - f.begin;
    const size_t e = std::min(row_end, f.begin + f.offsets.size()) - f.begin;
    if (b >= e) continue;
    if (f.reference >= hi || f.max < lo) {  // zone-map prune
      if (stats != nullptr) ++stats->frames_pruned;
      continue;
    }
    if (f.reference >= lo && f.max < hi) {  // fully qualifies: blind consume
      if (stats != nullptr) ++stats->frames_blind;
      count += e - b;
      continue;
    }
    // Translate the predicate to unsigned offset space (offsets are deltas
    // from the frame minimum, so order is preserved) and evaluate it on the
    // packed words block-by-block without materializing the frame.
    const uint64_t olo =
        lo <= f.reference
            ? 0
            : static_cast<uint64_t>(lo) - static_cast<uint64_t>(f.reference);
    const uint64_t ohi =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(f.reference);
    count += kernels::CountPackedInRange(f.offsets.words(), b, e,
                                         f.offsets.bit_width(), olo, ohi);
    if (stats != nullptr) {
      ++stats->frames_scanned;
      stats->elements_decoded += e - b;
    }
  }
  return count;
}

int64_t FrameOfReferenceColumn::SumAll() const {
  uint64_t sum = 0;
  for (const Frame& f : frames_) {
    sum += static_cast<uint64_t>(f.reference) *
           static_cast<uint64_t>(f.offsets.size());
    sum += kernels::SumPacked(f.offsets.words(), 0, f.offsets.size(),
                              f.offsets.bit_width());
  }
  return static_cast<int64_t>(sum);
}

std::vector<Value> FrameOfReferenceColumn::DecodeAll() const {
  std::vector<Value> out;
  out.reserve(count_);
  for (const Frame& f : frames_) {
    for (size_t i = 0; i < f.offsets.size(); ++i) {
      out.push_back(static_cast<Value>(static_cast<uint64_t>(f.reference) +
                                       f.offsets.Get(i)));
    }
  }
  return out;
}

size_t FrameOfReferenceColumn::CompressedBytes() const {
  size_t bytes = 0;
  for (const Frame& f : frames_) {
    bytes += sizeof(Value) * 2 + sizeof(size_t) + f.offsets.bytes();
  }
  return bytes;
}

double FrameOfReferenceColumn::MeanBitsPerValue() const {
  if (count_ == 0) return 0.0;
  double bits = 0.0;
  for (const Frame& f : frames_) {
    bits += static_cast<double>(f.offsets.bit_width()) *
            static_cast<double>(f.offsets.size());
  }
  return bits / static_cast<double>(count_);
}

}  // namespace casper
