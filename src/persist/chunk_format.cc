#include "persist/chunk_format.h"

#include <algorithm>
#include <cstring>

#include "model/encoding_advisor.h"
#include "persist/crc32.h"
#include "persist/io.h"

namespace casper {
namespace persist {

namespace {

constexpr uint32_t kEncFoR = 1;
constexpr uint32_t kEncDict = 2;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("chunk file: " + what);
}

void PutBitPacked(ByteSink* s, const BitPackedArray& a) {
  s->U64(a.size());
  s->U32(a.bit_width());
  s->U64(a.num_words());
  s->Raw(a.words(), a.num_words() * sizeof(uint64_t));
}

/// Reads one serialized BitPackedArray. `expect_count`, when non-negative,
/// pins the element count (payload columns must hold exactly `rows` values).
/// An empty array (count 0) is returned default-constructed regardless of
/// the stored word vector.
Status GetBitPacked(ByteSource* src, int64_t expect_count, BitPackedArray* out,
                    const char* what) {
  uint64_t count = 0;
  uint32_t width = 0;
  if (!src->U64(&count) || !src->U32(&width)) {
    return Corrupt(std::string(what) + " header truncated");
  }
  if (width > 64) return Corrupt(std::string(what) + " bit width > 64");
  if (expect_count >= 0 && count != static_cast<uint64_t>(expect_count)) {
    return Corrupt(std::string(what) + " element count mismatch");
  }
  uint64_t words = 0;
  if (!src->BoundedCount(&words, sizeof(uint64_t))) {
    return Corrupt(std::string(what) + " word count out of bounds");
  }
  std::vector<uint64_t> w(words);
  if (words > 0 && !src->Raw(w.data(), words * sizeof(uint64_t))) {
    return Corrupt(std::string(what) + " words truncated");
  }
  if (count == 0) {
    *out = BitPackedArray();
    return Status::Ok();
  }
  if (words != BitPackedArray::WordsFor(count, width)) {
    return Corrupt(std::string(what) + " word count does not match geometry");
  }
  *out = BitPackedArray::FromWords(count, width, std::move(w));
  return Status::Ok();
}

}  // namespace

EvictedChunkState PersistedChunk::ToEvictedState(std::string path) const {
  EvictedChunkState st;
  st.path = std::move(path);
  st.rows = rows;
  for (const ChunkPartitionMeta& p : parts) st.capacity += p.cap;
  st.parts = parts;
  return st;
}

PayloadEncoding ChooseDiskEncoding(const std::vector<Payload>& values) {
  if (values.empty()) return PayloadEncoding::kFrameOfReference;
  const PayloadColumnProfile p = ProfilePayloadValues(values);
  const unsigned for_width =
      BitsFor(static_cast<uint64_t>(p.max) - static_cast<uint64_t>(p.min));
  const unsigned dict_width = BitsFor(p.distinct - 1);
  // Total stored bits decide: packed codes plus the dictionary entries
  // themselves versus packed FoR offsets.
  const uint64_t for_bits = values.size() * uint64_t{for_width};
  const uint64_t dict_bits = values.size() * uint64_t{dict_width} +
                             p.distinct * uint64_t{8 * sizeof(Payload)};
  return dict_bits < for_bits ? PayloadEncoding::kDictionary
                              : PayloadEncoding::kFrameOfReference;
}

PersistedChunk ChunkWriter::Encode(
    uint64_t chunk_index, std::vector<ChunkPartitionMeta> parts,
    const std::vector<Value>& live_keys,
    const std::vector<std::vector<Payload>>& live_payload) {
  PersistedChunk out;
  out.chunk_index = chunk_index;
  out.rows = live_keys.size();
  out.live_prefix.assign(parts.size() + 1, 0);
  std::vector<size_t> frame_sizes;
  for (size_t t = 0; t < parts.size(); ++t) {
    CASPER_CHECK(parts[t].cap >= parts[t].size);
    out.live_prefix[t + 1] = out.live_prefix[t] + parts[t].size;
    if (parts[t].size > 0) frame_sizes.push_back(parts[t].size);
  }
  CASPER_CHECK_MSG(out.live_prefix.back() == out.rows,
                   "partition sizes do not cover the live keys");
  out.parts = std::move(parts);
  if (out.rows > 0) {
    out.keys =
        std::make_shared<FrameOfReferenceColumn>(live_keys, frame_sizes);
  }
  out.payload.resize(live_payload.size());
  out.payload_zones.resize(live_payload.size());
  for (size_t c = 0; c < live_payload.size(); ++c) {
    const std::vector<Payload>& col = live_payload[c];
    CASPER_CHECK(col.size() == out.rows);
    if (out.rows > 0) {
      out.payload[c] = PackedPayloadColumn::Encode(col, ChooseDiskEncoding(col));
      CASPER_CHECK(out.payload[c] != nullptr);
    }
    auto& zones = out.payload_zones[c];
    zones.assign(out.parts.size(), PayloadZone{});
    for (size_t t = 0; t < out.parts.size(); ++t) {
      const size_t begin = out.live_prefix[t];
      const size_t end = out.live_prefix[t + 1];
      if (begin == end) continue;
      const auto [zmn, zmx] =
          std::minmax_element(col.begin() + begin, col.begin() + end);
      zones[t] = PayloadZone{*zmn, *zmx};
    }
  }
  return out;
}

void ChunkWriter::Serialize(const PersistedChunk& chunk, std::string* out) {
  ByteSink s;
  s.U32(kChunkMagic);
  s.U32(kChunkFormatVersion);
  s.U64(chunk.chunk_index);
  s.U64(chunk.rows);
  s.U64(chunk.payload.size());
  s.U64(chunk.parts.size());
  for (const ChunkPartitionMeta& p : chunk.parts) {
    s.U64(p.size);
    s.U64(p.cap);
    s.I64(p.upper);
    s.I64(p.min_val);
    s.I64(p.max_val);
  }
  {
    std::vector<uint64_t> lp(chunk.live_prefix.begin(),
                             chunk.live_prefix.end());
    s.U64Vector(lp);
  }
  const size_t frames = chunk.keys ? chunk.keys->num_frames() : 0;
  s.U64(frames);
  for (size_t f = 0; f < frames; ++f) {
    s.I64(chunk.keys->frame_reference(f));
    s.I64(chunk.keys->frame_max(f));
    s.U64(chunk.keys->frame_begin(f));
    PutBitPacked(&s, chunk.keys->frame_offsets(f));
  }
  for (size_t c = 0; c < chunk.payload.size(); ++c) {
    const PackedPayloadColumn* col = chunk.payload[c].get();
    if (col != nullptr) {
      s.U32(col->encoding() == PayloadEncoding::kDictionary ? kEncDict
                                                            : kEncFoR);
      s.U32(col->base());
      s.U64(col->dictionary().size());
      if (!col->dictionary().empty()) {
        s.Raw(col->dictionary().data(),
              col->dictionary().size() * sizeof(Payload));
      }
      PutBitPacked(&s, col->packed_array());
    } else {
      // rows == 0: a structurally valid empty column.
      s.U32(kEncFoR);
      s.U32(0);
      s.U64(0);
      s.U64(0);
      s.U32(0);
      s.U64(0);
    }
    for (const PayloadZone& z : chunk.payload_zones[c]) {
      s.U32(z.min);
      s.U32(z.max);
    }
  }
  const uint32_t crc = Crc32(s.data().data(), s.size());
  s.U32(crc);
  out->append(s.data());
}

Status ChunkWriter::Write(const std::string& path, const PersistedChunk& chunk) {
  std::string bytes;
  Serialize(chunk, &bytes);
  MaybeCrash("chunk:before_write");
  return WriteFileAtomic(path, bytes);
}

Status ChunkReader::Parse(const std::string& bytes, PersistedChunk* out) {
  if (bytes.size() < 3 * sizeof(uint32_t)) return Corrupt("too small");
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const uint32_t computed =
      Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  if (stored_crc != computed) return Corrupt("checksum mismatch");

  ByteSource src(bytes.data(), bytes.size() - sizeof(uint32_t));
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!src.U32(&magic) || !src.U32(&version)) return Corrupt("header truncated");
  if (magic != kChunkMagic) return Corrupt("bad magic");
  if (version != kChunkFormatVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  PersistedChunk chunk;
  chunk.version = version;
  uint64_t payload_cols = 0;
  uint64_t num_parts = 0;
  if (!src.U64(&chunk.chunk_index) || !src.U64(&chunk.rows) ||
      !src.U64(&payload_cols) || !src.BoundedCount(&num_parts, 5 * 8)) {
    return Corrupt("header truncated");
  }
  chunk.parts.resize(num_parts);
  uint64_t live_total = 0;
  for (ChunkPartitionMeta& p : chunk.parts) {
    if (!src.U64(&p.size) || !src.U64(&p.cap) || !src.I64(&p.upper) ||
        !src.I64(&p.min_val) || !src.I64(&p.max_val)) {
      return Corrupt("partition table truncated");
    }
    if (p.cap < p.size) return Corrupt("partition cap < size");
    live_total += p.size;
  }
  if (live_total != chunk.rows) {
    return Corrupt("partition sizes do not sum to rows");
  }
  {
    std::vector<uint64_t> lp;
    if (!src.U64Vector(&lp)) return Corrupt("live prefix truncated");
    if (lp.size() != num_parts + 1 || lp[0] != 0) {
      return Corrupt("live prefix malformed");
    }
    for (size_t t = 0; t < num_parts; ++t) {
      if (lp[t + 1] - lp[t] != chunk.parts[t].size) {
        return Corrupt("live prefix inconsistent with partition sizes");
      }
    }
    chunk.live_prefix.assign(lp.begin(), lp.end());
  }
  uint64_t frames = 0;
  if (!src.BoundedCount(&frames, 4 * 8)) return Corrupt("frame count");
  std::vector<FrameOfReferenceColumn::FramePieces> pieces(frames);
  uint64_t covered = 0;
  for (auto& piece : pieces) {
    int64_t ref = 0;
    int64_t fmax = 0;
    uint64_t begin = 0;
    if (!src.I64(&ref) || !src.I64(&fmax) || !src.U64(&begin)) {
      return Corrupt("frame header truncated");
    }
    if (begin != covered) return Corrupt("frames not contiguous");
    piece.reference = ref;
    piece.max = fmax;
    piece.begin = begin;
    Status s = GetBitPacked(&src, -1, &piece.offsets, "key frame");
    if (!s.ok()) return s;
    if (piece.offsets.size() == 0) return Corrupt("empty key frame");
    covered += piece.offsets.size();
  }
  if (covered != chunk.rows) return Corrupt("frames do not cover rows");
  if (chunk.rows > 0) {
    chunk.keys = std::make_shared<FrameOfReferenceColumn>(
        FrameOfReferenceColumn::FromFrames(std::move(pieces), chunk.rows));
  }
  chunk.payload.resize(payload_cols);
  chunk.payload_zones.resize(payload_cols);
  for (uint64_t c = 0; c < payload_cols; ++c) {
    uint32_t enc_tag = 0;
    uint32_t base = 0;
    if (!src.U32(&enc_tag) || !src.U32(&base)) {
      return Corrupt("column header truncated");
    }
    if (enc_tag != kEncFoR && enc_tag != kEncDict) {
      return Corrupt("unknown column encoding");
    }
    uint64_t dict_size = 0;
    if (!src.BoundedCount(&dict_size, sizeof(Payload))) {
      return Corrupt("dictionary size out of bounds");
    }
    std::vector<Payload> dict(dict_size);
    if (dict_size > 0 &&
        !src.Raw(dict.data(), dict_size * sizeof(Payload))) {
      return Corrupt("dictionary truncated");
    }
    if (enc_tag == kEncDict) {
      if (dict.empty() || !std::is_sorted(dict.begin(), dict.end())) {
        return Corrupt("dictionary not sorted");
      }
    } else if (!dict.empty()) {
      return Corrupt("FoR column carries a dictionary");
    }
    BitPackedArray packed;
    Status s = GetBitPacked(&src, static_cast<int64_t>(chunk.rows), &packed,
                            "payload column");
    if (!s.ok()) return s;
    if (chunk.rows > 0) {
      chunk.payload[c] = PackedPayloadColumn::FromParts(
          enc_tag == kEncDict ? PayloadEncoding::kDictionary
                              : PayloadEncoding::kFrameOfReference,
          static_cast<Payload>(base), std::move(dict), std::move(packed));
    }
    auto& zones = chunk.payload_zones[c];
    zones.resize(num_parts);
    for (PayloadZone& z : zones) {
      if (!src.U32(&z.min) || !src.U32(&z.max)) {
        return Corrupt("payload zones truncated");
      }
    }
  }
  if (!src.exhausted()) return Corrupt("trailing bytes");
  chunk.file_bytes = bytes.size();
  *out = std::move(chunk);
  return Status::Ok();
}

Status ChunkReader::Read(const std::string& path, PersistedChunk* out) {
  std::string bytes;
  Status s = ReadFileToString(path, &bytes);
  if (!s.ok()) return s;
  return Parse(bytes, out);
}

}  // namespace persist
}  // namespace casper
