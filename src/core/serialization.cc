// Per-kind wire codecs over the layered primitives in src/wire: the
// Unbiased and Weighted sketches each contribute a thin codec (v2
// encode, v1 + v2 payload decoders) keyed by their kind byte in the wire
// layer's kind table (wire/codec.cc); the envelope, version dispatch,
// and varint/delta mechanics live in the wire layer and the shared
// drivers below. See serialization.h for the format documentation and
// caps table.

#include "core/serialization.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "wire/frozen.h"
#include "wire/varint.h"

// The frozen codec lives below core (wire cannot include core), so it
// speaks its own entry POD; the bridge here is a cast, which these
// asserts keep honest. The capacity cap is likewise duplicated on both
// sides of the seam.
static_assert(sizeof(dsketch::wire::FrozenEntry) ==
                  sizeof(dsketch::SketchEntry),
              "frozen/core entry layouts must match");
static_assert(dsketch::wire::kFrozenMaxCapacity ==
                  dsketch::kMaxSerializableCapacity,
              "frozen capacity cap must match the core serialization cap");

namespace dsketch {
namespace {

using wire::VarintReader;
using wire::VarintWriter;

// The public caps (serialization.h), enforced symmetrically on the
// serialize and deserialize paths of both wire versions: a sketch that
// can be serialized can always be restored, and a hostile header cannot
// force a huge allocation before the payload is validated. Space-saving
// sketches are small by design (thousands of bins; at 2^22 the
// worst-case restore footprint — slot array plus FlatMap index tables —
// stays in the low hundreds of MB).
constexpr uint64_t kMaxCapacity = kMaxSerializableCapacity;

// The kind bytes of the codecs below (wire/codec.cc lists every kind).
enum class SketchKind : uint8_t {
  kUnbiased = 1,
  kWeighted = 3,
};

// Fail loudly at write time rather than returning bytes that every
// deserializer would reject: a sketch that can be serialized can always
// be restored. Shared by both versions' encoders.
void CheckEncodable(uint64_t capacity, uint64_t entries) {
  DSKETCH_CHECK(capacity > 0 && capacity <= kMaxCapacity);
  DSKETCH_CHECK(entries <= capacity);
}

// Appends the envelope and runs `fn(writer)` to produce the payload.
// `payload_hint` pre-sizes the output so appends rarely reallocate.
template <typename PayloadFn>
std::string EncodeBlob(SketchKind kind, uint8_t version, size_t payload_hint,
                       PayloadFn&& fn) {
  std::string out;
  out.reserve(wire::kEnvelopeBytes + payload_hint);
  wire::WriteEnvelope(out, static_cast<uint8_t>(kind), version);
  VarintWriter writer(out);
  fn(writer);
  wire::RecordWireEncoded(static_cast<uint8_t>(kind), version, out.size());
  return out;
}

// Parses the envelope, checks the kind, and dispatches the payload to
// the per-version decoder; enforces full consumption so trailing garbage
// is rejected. The per-version decoders validate everything else.
template <typename Sketch, typename DecodeV1Fn, typename DecodeV2Fn>
std::optional<Sketch> DecodeBlob(std::string_view bytes, SketchKind kind,
                                 DecodeV1Fn&& decode_v1,
                                 DecodeV2Fn&& decode_v2) {
  VarintReader reader(bytes);
  std::optional<wire::Envelope> env = wire::ReadEnvelope(reader);
  if (!env || env->kind != static_cast<uint8_t>(kind)) return std::nullopt;
  if (!wire::VersionSupported(env->kind, env->version)) return std::nullopt;
  std::optional<Sketch> out;
  if (env->version == wire::kVersionLegacy) {
    out = decode_v1(reader);
  } else {
    out = decode_v2(reader);
  }
  if (!out.has_value() || !reader.AtEnd()) return std::nullopt;
  wire::RecordWireDecoded(env->kind, env->version, bytes.size());
  return out;
}

// ---------------------------------------------------------------------
// Version-1 payload helpers (fixed-width legacy layout).
// ---------------------------------------------------------------------

// v1 payload prefix: [u64 capacity][u32 entry_count].
void PutHeaderV1(VarintWriter& writer, uint64_t capacity, uint32_t entries) {
  CheckEncodable(capacity, entries);
  writer.PutValue(capacity);
  writer.PutValue(entries);
}

bool ReadHeaderV1(VarintReader& reader, uint64_t* capacity,
                  uint32_t* entries) {
  if (!reader.ReadValue(capacity) || *capacity == 0 ||
      *capacity > kMaxCapacity) {
    return false;
  }
  if (!reader.ReadValue(entries) || *entries > *capacity) return false;
  return true;
}

// ---------------------------------------------------------------------
// Version-2 payload helpers (varint/delta layout).
// ---------------------------------------------------------------------

// v2 payload prefix: [varint capacity][varint n].
void PutHeaderV2(VarintWriter& writer, uint64_t capacity, uint64_t entries) {
  CheckEncodable(capacity, entries);
  writer.PutVarint(capacity);
  writer.PutVarint(entries);
}

// `min_entry_bytes` is the smallest possible wire footprint of one entry;
// bounding the claimed count by the bytes actually present keeps hostile
// headers from forcing large reserve() calls before the payload scan.
bool ReadHeaderV2(VarintReader& reader, uint64_t* capacity,
                  uint64_t* entries, size_t min_entry_bytes) {
  if (!reader.ReadVarint(capacity) || *capacity == 0 ||
      *capacity > kMaxCapacity) {
    return false;
  }
  if (!reader.ReadVarint(entries) || *entries > *capacity) return false;
  if (*entries > reader.remaining() / min_entry_bytes) return false;
  return true;
}

// Delta-encodes the descending count sequence of an entry list: the
// first count travels verbatim, every later one as prev-minus-current.
// The decoder rebuilds the sequence and structurally rejects increasing
// or negative counts (a delta larger than the running count underflows).
class CountDeltaWriter {
 public:
  explicit CountDeltaWriter(VarintWriter& writer) : writer_(writer) {}

  void Put(int64_t count) {
    if (first_) {
      writer_.PutVarint(static_cast<uint64_t>(count));
      first_ = false;
    } else {
      DSKETCH_CHECK(count <= prev_);  // Entries() order is descending
      writer_.PutVarint(static_cast<uint64_t>(prev_ - count));
    }
    prev_ = count;
  }

 private:
  VarintWriter& writer_;
  int64_t prev_ = 0;
  bool first_ = true;
};

class CountDeltaReader {
 public:
  explicit CountDeltaReader(VarintReader& reader) : reader_(reader) {}

  bool Read(int64_t* count) {
    if (first_) {
      if (!reader_.ReadVarintInt64(&prev_)) return false;
      first_ = false;
    } else {
      uint64_t delta;
      if (!reader_.ReadVarint(&delta)) return false;
      if (delta > static_cast<uint64_t>(prev_)) return false;  // negative
      prev_ -= static_cast<int64_t>(delta);
    }
    *count = prev_;
    return true;
  }

 private:
  VarintReader& reader_;
  int64_t prev_ = 0;
  bool first_ = true;
};

// ---------------------------------------------------------------------
// Unbiased Space Saving codec (integer entry list).
// ---------------------------------------------------------------------

// Shared v1/v2/frozen tail: duplicate-label rejection, total-count
// overflow rejection (no real sketch's entries sum past int64 —
// TotalCount counts processed rows — so a blob that would wrap the
// restored total can only be tampering), and sketch construction.
std::optional<UnbiasedSpaceSaving> LoadUnbiasedEntries(
    uint64_t capacity, std::vector<SketchEntry> entries, uint64_t seed) {
  std::unordered_set<uint64_t> seen;
  int64_t total = 0;
  for (const SketchEntry& e : entries) {
    if (!seen.insert(e.item).second) return std::nullopt;  // duplicate label
    if (e.count > INT64_MAX - total) return std::nullopt;  // total overflow
    total += e.count;
  }
  UnbiasedSpaceSaving sketch(static_cast<size_t>(capacity), seed);
  sketch.core().LoadEntries(std::move(entries));
  return sketch;
}

std::optional<UnbiasedSpaceSaving> DecodeUnbiasedV1(VarintReader& reader,
                                                    uint64_t seed) {
  uint64_t capacity;
  uint32_t count;
  if (!ReadHeaderV1(reader, &capacity, &count)) return std::nullopt;
  std::vector<SketchEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SketchEntry e;
    if (!reader.ReadValue(&e.item) || !reader.ReadValue(&e.count)) {
      return std::nullopt;
    }
    if (e.count < 0) return std::nullopt;
    entries.push_back(e);
  }
  return LoadUnbiasedEntries(capacity, std::move(entries), seed);
}

std::optional<UnbiasedSpaceSaving> DecodeUnbiasedV2(VarintReader& reader,
                                                    uint64_t seed) {
  uint64_t capacity, count;
  if (!ReadHeaderV2(reader, &capacity, &count, /*min_entry_bytes=*/2)) {
    return std::nullopt;
  }
  std::vector<SketchEntry> entries;
  entries.reserve(count);
  CountDeltaReader counts(reader);
  for (uint64_t i = 0; i < count; ++i) {
    SketchEntry e;
    if (!reader.ReadVarint(&e.item) || !counts.Read(&e.count)) {
      return std::nullopt;
    }
    entries.push_back(e);
  }
  return LoadUnbiasedEntries(capacity, std::move(entries), seed);
}

// ---------------------------------------------------------------------
// Weighted codec.
// ---------------------------------------------------------------------

// Every weight and the total they sum to (in LoadEntries' order) must be
// finite and non-negative: an infinite mass would make every estimate
// and error bar that reads this sketch infinite.
std::optional<WeightedSpaceSaving> LoadWeightedEntries(
    uint64_t capacity, const std::vector<WeightedEntry>& entries,
    uint64_t seed) {
  std::unordered_set<uint64_t> seen;
  double total = 0.0;
  for (const WeightedEntry& e : entries) {
    // Rejects NaN and negative weights too.
    if (!(e.weight >= 0.0 && std::isfinite(e.weight))) return std::nullopt;
    if (!seen.insert(e.item).second) return std::nullopt;  // duplicate label
    total += e.weight;
  }
  if (!std::isfinite(total)) return std::nullopt;
  WeightedSpaceSaving sketch(static_cast<size_t>(capacity), seed);
  sketch.LoadEntries(entries);
  return sketch;
}

std::optional<WeightedSpaceSaving> DecodeWeightedV1(VarintReader& reader,
                                                    uint64_t seed) {
  uint64_t capacity;
  uint32_t count;
  if (!ReadHeaderV1(reader, &capacity, &count)) return std::nullopt;
  std::vector<WeightedEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WeightedEntry e;
    if (!reader.ReadValue(&e.item) || !reader.ReadValue(&e.weight)) {
      return std::nullopt;
    }
    entries.push_back(e);
  }
  return LoadWeightedEntries(capacity, entries, seed);
}

std::optional<WeightedSpaceSaving> DecodeWeightedV2(VarintReader& reader,
                                                    uint64_t seed) {
  uint64_t capacity, count;
  if (!ReadHeaderV2(reader, &capacity, &count, /*min_entry_bytes=*/9)) {
    return std::nullopt;
  }
  std::vector<WeightedEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    WeightedEntry e;
    if (!reader.ReadVarint(&e.item) || !reader.ReadDouble(&e.weight)) {
      return std::nullopt;
    }
    entries.push_back(e);
  }
  return LoadWeightedEntries(capacity, entries, seed);
}

}  // namespace

// ---------------------------------------------------------------------
// Public encoders (current version).
// ---------------------------------------------------------------------

std::string Serialize(const UnbiasedSpaceSaving& sketch) {
  auto entries = sketch.Entries();  // descending count order
  return EncodeBlob(SketchKind::kUnbiased, wire::kVersionCurrent,
                    4 + entries.size() * 12, [&](VarintWriter& writer) {
                      PutHeaderV2(writer, sketch.capacity(), entries.size());
                      CountDeltaWriter counts(writer);
                      for (const SketchEntry& e : entries) {
                        writer.PutVarint(e.item);
                        counts.Put(e.count);
                      }
                    });
}

std::string SerializeFrozen(const UnbiasedSpaceSaving& sketch) {
  // Entries() is count-descending but breaks count ties in slot order;
  // the image requires the canonical order (ties ascending item) so that
  // thaw -> Entries() round-trips to the exact image order.
  std::vector<SketchEntry> entries = sketch.Entries();
  std::sort(entries.begin(), entries.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              return a.count > b.count ||
                     (a.count == b.count && a.item < b.item);
            });
  std::vector<wire::FrozenEntry> frozen;
  frozen.reserve(entries.size());
  for (const SketchEntry& e : entries) frozen.push_back({e.item, e.count});
  std::string out;
  out.resize(wire::FrozenImageBytes(frozen.size()));
  const size_t written = wire::FreezeInto(
      frozen.data(), frozen.size(), sketch.capacity(), sketch.MinCount(),
      sketch.TotalCount(), &out[0], out.size());
  // Same loud-failure contract as the other encoders: a sketch within
  // the caps always freezes (FreezeInto only rejects malformed input).
  DSKETCH_CHECK(written == out.size());
  wire::RecordWireEncoded(wire::kKindFrozenUnbiased, wire::kVersionCurrent,
                          out.size());
  return out;
}

std::optional<UnbiasedSpaceSaving> ThawFrozen(std::string_view bytes,
                                              uint64_t seed) {
  std::optional<wire::FrozenView> view = wire::FrozenView::Vet(bytes);
  if (!view.has_value()) return std::nullopt;
  // Deep content validation — the O(n) work Vet deliberately skips:
  // counts positive in canonical order (count descending, ties ascending
  // item), header metadata consistent with the entries. Duplicate labels
  // and total-count overflow are rejected by LoadUnbiasedEntries below.
  const size_t n = static_cast<size_t>(view->entry_count());
  std::vector<SketchEntry> entries;
  entries.reserve(n);
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const wire::FrozenEntry e = view->entry(i);
    if (e.count <= 0) return std::nullopt;
    if (i > 0 && !(entries[i - 1].count > e.count ||
                   (entries[i - 1].count == e.count &&
                    entries[i - 1].item < e.item))) {
      return std::nullopt;
    }
    if (e.count > INT64_MAX - sum) return std::nullopt;
    sum += e.count;
    entries.push_back({e.item, e.count});
  }
  // min_count/total_count are served straight off the image by the
  // zero-decode path, so a valid image must agree with what the thawed
  // sketch would report — otherwise frozen and thawed answers diverge.
  if (view->total_count() != sum) return std::nullopt;
  const int64_t expected_min =
      (n == view->capacity() && n > 0) ? entries.back().count : 0;
  if (view->min_count() != expected_min) return std::nullopt;
  // The hash index must agree with the entry section: zero-decode point
  // lookups are served through it, so a lying index would make a replica
  // answer differently from the thawed sketch while still "validating".
  for (const SketchEntry& e : entries) {
    if (view->EstimateCount(e.item) != e.count) return std::nullopt;
  }
  wire::RecordWireDecoded(wire::kKindFrozenUnbiased, wire::kVersionCurrent,
                          bytes.size());
  return LoadUnbiasedEntries(view->capacity(), std::move(entries), seed);
}

std::string Serialize(const WeightedSpaceSaving& sketch) {
  auto entries = sketch.Entries();
  return EncodeBlob(SketchKind::kWeighted, wire::kVersionCurrent,
                    4 + entries.size() * 13, [&](VarintWriter& writer) {
                      PutHeaderV2(writer, sketch.capacity(), entries.size());
                      for (const WeightedEntry& e : entries) {
                        writer.PutVarint(e.item);
                        writer.PutDouble(e.weight);
                      }
                    });
}

// ---------------------------------------------------------------------
// Legacy version-1 encoder.
// ---------------------------------------------------------------------

std::string SerializeV1(const UnbiasedSpaceSaving& sketch) {
  auto entries = sketch.Entries();
  return EncodeBlob(SketchKind::kUnbiased, wire::kVersionLegacy,
                    12 + entries.size() * 16, [&](VarintWriter& writer) {
                      PutHeaderV1(writer, sketch.capacity(),
                                  static_cast<uint32_t>(entries.size()));
                      for (const SketchEntry& e : entries) {
                        writer.PutValue(e.item);
                        writer.PutValue(e.count);
                      }
                    });
}

// ---------------------------------------------------------------------
// Public decoders (version-negotiating).
// ---------------------------------------------------------------------

std::optional<UnbiasedSpaceSaving> DeserializeUnbiased(std::string_view bytes,
                                                       uint64_t seed) {
  // A frozen image is the same logical sketch under a different kind
  // byte; accepting it here means every unbiased restore path (snapshot
  // RESTORE, CombineSerialized, ShardedSketchSource) takes frozen inputs.
  {
    VarintReader reader(bytes);
    std::optional<wire::Envelope> env = wire::ReadEnvelope(reader);
    if (env.has_value() && env->kind == wire::kKindFrozenUnbiased) {
      return ThawFrozen(bytes, seed);
    }
  }
  return DecodeBlob<UnbiasedSpaceSaving>(
      bytes, SketchKind::kUnbiased,
      [&](VarintReader& r) { return DecodeUnbiasedV1(r, seed); },
      [&](VarintReader& r) { return DecodeUnbiasedV2(r, seed); });
}

std::optional<WeightedSpaceSaving> DeserializeWeighted(std::string_view bytes,
                                                       uint64_t seed) {
  return DecodeBlob<WeightedSpaceSaving>(
      bytes, SketchKind::kWeighted,
      [&](VarintReader& r) { return DecodeWeightedV1(r, seed); },
      [&](VarintReader& r) { return DecodeWeightedV2(r, seed); });
}

}  // namespace dsketch
