// Per-kind wire codecs over the layered primitives in src/wire: each
// sketch family contributes a thin codec (v2 encode, v1 + v2 payload
// decoders) keyed by the kind bytes the wire codec registry reserves for
// the built-in kinds (wire/codec.cc); the envelope, version dispatch,
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
// stays in the low hundreds of MB). CountMin tables are flat i64 cells
// with no index, so they get a larger cap (2^25 cells = 256 MiB).
constexpr uint64_t kMaxCapacity = kMaxSerializableCapacity;
constexpr uint64_t kMaxCountMinCells = kMaxSerializableCountMinCells;

enum class SketchKind : uint8_t {
  kUnbiased = 1,
  kDeterministic = 2,
  kWeighted = 3,
  kMultiMetric = 4,
  kMisraGries = 5,
  kCountMin = 6,
};

uint64_t MaxCapacityFor(SketchKind kind) {
  return kind == SketchKind::kCountMin ? kMaxCountMinCells : kMaxCapacity;
}

// Fail loudly at write time rather than returning bytes that every
// deserializer would reject: a sketch that can be serialized can always
// be restored. Shared by both versions' encoders.
void CheckEncodable(SketchKind kind, uint64_t capacity, uint64_t entries) {
  DSKETCH_CHECK(capacity > 0 && capacity <= MaxCapacityFor(kind));
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
void PutHeaderV1(VarintWriter& writer, SketchKind kind, uint64_t capacity,
                 uint32_t entries) {
  CheckEncodable(kind, capacity, entries);
  writer.PutValue(capacity);
  writer.PutValue(entries);
}

bool ReadHeaderV1(VarintReader& reader, SketchKind kind, uint64_t* capacity,
                  uint32_t* entries) {
  if (!reader.ReadValue(capacity) || *capacity == 0 ||
      *capacity > MaxCapacityFor(kind)) {
    return false;
  }
  if (!reader.ReadValue(entries) || *entries > *capacity) return false;
  return true;
}

// ---------------------------------------------------------------------
// Version-2 payload helpers (varint/delta layout).
// ---------------------------------------------------------------------

// v2 payload prefix for the bin sketches: [varint capacity][varint n].
void PutHeaderV2(VarintWriter& writer, SketchKind kind, uint64_t capacity,
                 uint64_t entries) {
  CheckEncodable(kind, capacity, entries);
  writer.PutVarint(capacity);
  writer.PutVarint(entries);
}

// `min_entry_bytes` is the smallest possible wire footprint of one entry;
// bounding the claimed count by the bytes actually present keeps hostile
// headers from forcing large reserve() calls before the payload scan.
bool ReadHeaderV2(VarintReader& reader, SketchKind kind, uint64_t* capacity,
                  uint64_t* entries, size_t min_entry_bytes) {
  if (!reader.ReadVarint(capacity) || *capacity == 0 ||
      *capacity > MaxCapacityFor(kind)) {
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
// Integer entry-list codec (Unbiased / Deterministic Space Saving).
// ---------------------------------------------------------------------

template <typename Sketch>
std::string EncodeIntegerV1(SketchKind kind, const Sketch& sketch) {
  auto entries = sketch.Entries();
  return EncodeBlob(kind, wire::kVersionLegacy, 12 + entries.size() * 16,
                    [&](VarintWriter& writer) {
                      PutHeaderV1(writer, kind, sketch.capacity(),
                                  static_cast<uint32_t>(entries.size()));
                      for (const SketchEntry& e : entries) {
                        writer.PutValue(e.item);
                        writer.PutValue(e.count);
                      }
                    });
}

template <typename Sketch>
std::string EncodeIntegerV2(SketchKind kind, const Sketch& sketch) {
  auto entries = sketch.Entries();  // descending count order
  return EncodeBlob(kind, wire::kVersionCurrent, 4 + entries.size() * 12,
                    [&](VarintWriter& writer) {
                      PutHeaderV2(writer, kind, sketch.capacity(),
                                  entries.size());
                      CountDeltaWriter counts(writer);
                      for (const SketchEntry& e : entries) {
                        writer.PutVarint(e.item);
                        counts.Put(e.count);
                      }
                    });
}

// Shared v1/v2 tail: duplicate-label rejection, total-count overflow
// rejection (no real sketch's entries sum past int64 — TotalCount counts
// processed rows — so a blob that would wrap the restored total can only
// be tampering), and sketch construction.
template <typename Sketch>
std::optional<Sketch> LoadIntegerEntries(uint64_t capacity,
                                         std::vector<SketchEntry> entries,
                                         uint64_t seed) {
  std::unordered_set<uint64_t> seen;
  int64_t total = 0;
  for (const SketchEntry& e : entries) {
    if (!seen.insert(e.item).second) return std::nullopt;  // duplicate label
    if (e.count > INT64_MAX - total) return std::nullopt;  // total overflow
    total += e.count;
  }
  Sketch sketch(static_cast<size_t>(capacity), seed);
  sketch.core().LoadEntries(std::move(entries));
  return sketch;
}

template <typename Sketch>
std::optional<Sketch> DecodeIntegerV1(VarintReader& reader, SketchKind kind,
                                      uint64_t seed) {
  uint64_t capacity;
  uint32_t count;
  if (!ReadHeaderV1(reader, kind, &capacity, &count)) return std::nullopt;
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
  return LoadIntegerEntries<Sketch>(capacity, std::move(entries), seed);
}

template <typename Sketch>
std::optional<Sketch> DecodeIntegerV2(VarintReader& reader, SketchKind kind,
                                      uint64_t seed) {
  uint64_t capacity, count;
  if (!ReadHeaderV2(reader, kind, &capacity, &count, /*min_entry_bytes=*/2)) {
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
  return LoadIntegerEntries<Sketch>(capacity, std::move(entries), seed);
}

template <typename Sketch>
std::optional<Sketch> DecodeInteger(SketchKind kind, std::string_view bytes,
                                    uint64_t seed) {
  return DecodeBlob<Sketch>(
      bytes, kind,
      [&](VarintReader& r) { return DecodeIntegerV1<Sketch>(r, kind, seed); },
      [&](VarintReader& r) { return DecodeIntegerV2<Sketch>(r, kind, seed); });
}

// ---------------------------------------------------------------------
// Weighted codec.
// ---------------------------------------------------------------------

std::optional<WeightedSpaceSaving> LoadWeightedEntries(
    uint64_t capacity, const std::vector<WeightedEntry>& entries,
    uint64_t seed) {
  std::unordered_set<uint64_t> seen;
  for (const WeightedEntry& e : entries) {
    if (!(e.weight >= 0.0)) return std::nullopt;  // rejects NaN too
    if (!seen.insert(e.item).second) return std::nullopt;  // duplicate label
  }
  WeightedSpaceSaving sketch(static_cast<size_t>(capacity), seed);
  sketch.LoadEntries(entries);
  return sketch;
}

std::optional<WeightedSpaceSaving> DecodeWeightedV1(VarintReader& reader,
                                                    uint64_t seed) {
  uint64_t capacity;
  uint32_t count;
  if (!ReadHeaderV1(reader, SketchKind::kWeighted, &capacity, &count)) {
    return std::nullopt;
  }
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
  if (!ReadHeaderV2(reader, SketchKind::kWeighted, &capacity, &count,
                    /*min_entry_bytes=*/9)) {
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

// ---------------------------------------------------------------------
// Multi-metric codec.
// ---------------------------------------------------------------------

// Mirror of the decoders' footprint bound so the bytes are always
// restorable: ~(2 + K) doubles per bin plus per-bin vector overhead,
// capped well below the header-level capacity limit so a hostile header
// cannot force a huge allocation. With capacity >= 1 this also caps
// num_metrics.
bool MultiMetricFootprintOk(uint64_t capacity, uint64_t num_metrics) {
  return num_metrics > 0 && capacity * (2 + num_metrics) <= kMaxCapacity;
}

void CheckMultiMetricEncodable(const MultiMetricSpaceSaving& sketch) {
  DSKETCH_CHECK(MultiMetricFootprintOk(
      sketch.capacity(), static_cast<uint64_t>(sketch.num_metrics())));
}

std::optional<MultiMetricSpaceSaving> LoadMultiMetricBins(
    uint64_t capacity, uint64_t num_metrics,
    std::vector<MultiMetricEntry> bins, uint64_t seed) {
  std::unordered_set<uint64_t> seen;
  for (const MultiMetricEntry& b : bins) {
    // Rejects negatives, NaN, and inf (Serialize never emits them).
    if (!(b.primary >= 0.0) || !std::isfinite(b.primary)) return std::nullopt;
    for (double v : b.metrics) {
      if (!std::isfinite(v)) return std::nullopt;
    }
    if (!seen.insert(b.item).second) return std::nullopt;  // duplicate label
  }
  MultiMetricSpaceSaving sketch(static_cast<size_t>(capacity),
                                static_cast<size_t>(num_metrics), seed);
  sketch.LoadBins(std::move(bins));
  return sketch;
}

std::optional<MultiMetricSpaceSaving> DecodeMultiMetricV1(VarintReader& reader,
                                                          uint64_t seed) {
  uint64_t capacity;
  uint32_t count;
  if (!ReadHeaderV1(reader, SketchKind::kMultiMetric, &capacity, &count)) {
    return std::nullopt;
  }
  uint32_t num_metrics;
  if (!reader.ReadValue(&num_metrics)) return std::nullopt;
  if (!MultiMetricFootprintOk(capacity, num_metrics)) return std::nullopt;
  std::vector<MultiMetricEntry> bins;
  bins.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MultiMetricEntry b;
    if (!reader.ReadValue(&b.item) || !reader.ReadValue(&b.primary)) {
      return std::nullopt;
    }
    b.metrics.resize(num_metrics);
    for (uint32_t k = 0; k < num_metrics; ++k) {
      if (!reader.ReadValue(&b.metrics[k])) return std::nullopt;
    }
    bins.push_back(std::move(b));
  }
  return LoadMultiMetricBins(capacity, num_metrics, std::move(bins), seed);
}

std::optional<MultiMetricSpaceSaving> DecodeMultiMetricV2(VarintReader& reader,
                                                          uint64_t seed) {
  uint64_t capacity, count;
  if (!ReadHeaderV2(reader, SketchKind::kMultiMetric, &capacity, &count,
                    /*min_entry_bytes=*/9)) {
    return std::nullopt;
  }
  uint64_t num_metrics;
  if (!reader.ReadVarint(&num_metrics)) return std::nullopt;
  if (!MultiMetricFootprintOk(capacity, num_metrics)) return std::nullopt;
  if (count > 0 &&
      count > reader.remaining() / (1 + 8 * (1 + num_metrics))) {
    return std::nullopt;  // claimed bins cannot fit the bytes present
  }
  std::vector<MultiMetricEntry> bins;
  bins.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MultiMetricEntry b;
    if (!reader.ReadVarint(&b.item) || !reader.ReadDouble(&b.primary)) {
      return std::nullopt;
    }
    b.metrics.resize(num_metrics);
    for (uint64_t k = 0; k < num_metrics; ++k) {
      if (!reader.ReadDouble(&b.metrics[k])) return std::nullopt;
    }
    bins.push_back(std::move(b));
  }
  return LoadMultiMetricBins(capacity, num_metrics, std::move(bins), seed);
}

// ---------------------------------------------------------------------
// Misra-Gries codec.
// ---------------------------------------------------------------------

// Shared semantic validation: positive live counters, distinct labels,
// and the estimate budget (sum of estimates <= total - decrements, each
// decrement-all having consumed one row no counter accounts for). The
// incremental form keeps the accumulator from overflowing int64 and also
// rules out overflow of the stored counter inside LoadState
// (count + decrements <= total).
std::optional<MisraGries> LoadMisraGries(uint64_t capacity,
                                         const std::vector<SketchEntry>& entries,
                                         int64_t decrements, int64_t total) {
  if (decrements < 0 || total < 0 || decrements > total) return std::nullopt;
  const int64_t estimate_budget = total - decrements;
  std::unordered_set<uint64_t> seen;
  int64_t estimate_sum = 0;
  for (const SketchEntry& e : entries) {
    if (e.count <= 0) return std::nullopt;  // live counters only
    if (!seen.insert(e.item).second) return std::nullopt;  // duplicate label
    if (e.count > estimate_budget - estimate_sum) return std::nullopt;
    estimate_sum += e.count;
  }
  MisraGries sketch(static_cast<size_t>(capacity));
  sketch.LoadState(entries, decrements, total);
  return sketch;
}

std::optional<MisraGries> DecodeMisraGriesV1(VarintReader& reader) {
  uint64_t capacity;
  uint32_t count;
  if (!ReadHeaderV1(reader, SketchKind::kMisraGries, &capacity, &count)) {
    return std::nullopt;
  }
  int64_t decrements, total;
  if (!reader.ReadValue(&decrements) || !reader.ReadValue(&total)) {
    return std::nullopt;
  }
  std::vector<SketchEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SketchEntry e;
    if (!reader.ReadValue(&e.item) || !reader.ReadValue(&e.count)) {
      return std::nullopt;
    }
    entries.push_back(e);
  }
  return LoadMisraGries(capacity, entries, decrements, total);
}

std::optional<MisraGries> DecodeMisraGriesV2(VarintReader& reader) {
  uint64_t capacity, count;
  if (!ReadHeaderV2(reader, SketchKind::kMisraGries, &capacity, &count,
                    /*min_entry_bytes=*/2)) {
    return std::nullopt;
  }
  int64_t decrements, total;
  if (!reader.ReadVarintInt64(&decrements) ||
      !reader.ReadVarintInt64(&total)) {
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
  return LoadMisraGries(capacity, entries, decrements, total);
}

// ---------------------------------------------------------------------
// CountMin codec. The v1 header's capacity/entry_count describe the
// counter table (the sketch has no entry list); v2 drops the redundancy
// and derives the cell count from the width/depth sub-header.
// ---------------------------------------------------------------------

// Shared table validation: every table CountMin can produce sums each
// row to exactly `total` (a plain update adds its count to one cell per
// row) or to at most `total` (conservative update raises each row by at
// most the count). Enforcing that keeps EstimateCount <= TotalCount on
// restored sketches, and the incremental bound keeps the row accumulator
// from overflowing int64. `read_cell` pulls the next counter off the
// wire in the version's encoding.
template <typename ReadCellFn>
std::optional<CountMin> LoadCountMin(uint64_t width, uint64_t depth,
                                     uint64_t seed, uint8_t conservative,
                                     int64_t total, ReadCellFn&& read_cell) {
  if (conservative > 1 || total < 0) return std::nullopt;
  const uint64_t cells = width * depth;
  std::vector<int64_t> table(cells);
  int64_t row_sum = 0;
  for (uint64_t i = 0; i < cells; ++i) {
    if (!read_cell(&table[i]) || table[i] < 0) return std::nullopt;
    if (table[i] > total - row_sum) return std::nullopt;
    row_sum += table[i];
    if ((i + 1) % width == 0) {
      if (conservative == 0 && row_sum != total) return std::nullopt;
      row_sum = 0;
    }
  }
  CountMin sketch(static_cast<size_t>(width), static_cast<size_t>(depth),
                  seed, conservative != 0);
  sketch.LoadState(std::move(table), total);
  return sketch;
}

std::optional<CountMin> DecodeCountMinV1(VarintReader& reader) {
  uint64_t cells;
  uint32_t count;
  if (!ReadHeaderV1(reader, SketchKind::kCountMin, &cells, &count)) {
    return std::nullopt;
  }
  uint64_t width, depth, seed;
  uint8_t conservative;
  int64_t total;
  if (!reader.ReadValue(&width) || width == 0 || width > cells) {
    return std::nullopt;
  }
  if (!reader.ReadValue(&depth) || depth == 0 || depth > cells) {
    return std::nullopt;
  }
  // width and depth are each <= cells <= kMaxCountMinCells (2^25), so
  // the product below cannot wrap uint64.
  if (width * depth != cells || cells != count) return std::nullopt;
  if (!reader.ReadValue(&seed)) return std::nullopt;
  if (!reader.ReadByte(&conservative)) return std::nullopt;
  if (!reader.ReadValue(&total)) return std::nullopt;
  return LoadCountMin(width, depth, seed, conservative, total,
                      [&](int64_t* cell) { return reader.ReadValue(cell); });
}

std::optional<CountMin> DecodeCountMinV2(VarintReader& reader) {
  uint64_t width, depth, seed_bits;
  uint8_t conservative;
  int64_t total;
  // width, depth <= kMaxCountMinCells keeps the product from wrapping
  // (2^25 * 2^25 = 2^50 < 2^64).
  if (!reader.ReadVarint(&width) || width == 0 ||
      width > kMaxCountMinCells) {
    return std::nullopt;
  }
  if (!reader.ReadVarint(&depth) || depth == 0 ||
      depth > kMaxCountMinCells / width) {
    return std::nullopt;
  }
  const uint64_t cells = width * depth;
  // Each counter is at least one byte on the wire, so a geometry whose
  // table cannot fit the bytes present is hostile; rejecting it here
  // bounds the allocation below.
  if (!reader.ReadValue(&seed_bits)) return std::nullopt;
  if (!reader.ReadByte(&conservative)) return std::nullopt;
  if (!reader.ReadVarintInt64(&total)) return std::nullopt;
  if (cells > reader.remaining()) return std::nullopt;
  return LoadCountMin(width, depth, seed_bits, conservative, total,
                      [&](int64_t* cell) {
                        return reader.ReadVarintInt64(cell);
                      });
}

}  // namespace

// ---------------------------------------------------------------------
// Public encoders (current version).
// ---------------------------------------------------------------------

std::string Serialize(const UnbiasedSpaceSaving& sketch) {
  return EncodeIntegerV2(SketchKind::kUnbiased, sketch);
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
  // and total-count overflow are rejected by LoadIntegerEntries below.
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
  return LoadIntegerEntries<UnbiasedSpaceSaving>(view->capacity(),
                                                 std::move(entries), seed);
}

std::string Serialize(const DeterministicSpaceSaving& sketch) {
  return EncodeIntegerV2(SketchKind::kDeterministic, sketch);
}

std::string Serialize(const WeightedSpaceSaving& sketch) {
  auto entries = sketch.Entries();
  return EncodeBlob(SketchKind::kWeighted, wire::kVersionCurrent,
                    4 + entries.size() * 13, [&](VarintWriter& writer) {
                      PutHeaderV2(writer, SketchKind::kWeighted,
                                  sketch.capacity(), entries.size());
                      for (const WeightedEntry& e : entries) {
                        writer.PutVarint(e.item);
                        writer.PutDouble(e.weight);
                      }
                    });
}

std::string Serialize(const MultiMetricSpaceSaving& sketch) {
  CheckMultiMetricEncodable(sketch);
  const auto& bins = sketch.bins();
  const size_t per_bin = 5 + 8 * (1 + sketch.num_metrics());
  return EncodeBlob(
      SketchKind::kMultiMetric, wire::kVersionCurrent,
      8 + bins.size() * per_bin, [&](VarintWriter& writer) {
        PutHeaderV2(writer, SketchKind::kMultiMetric, sketch.capacity(),
                    bins.size());
        writer.PutVarint(static_cast<uint64_t>(sketch.num_metrics()));
        for (const MultiMetricEntry& b : bins) {
          // Fail loudly on non-finite state (HT scaling can overflow
          // finite inputs to inf) rather than emit bytes the
          // deserializer rejects.
          DSKETCH_CHECK(std::isfinite(b.primary));
          for (double v : b.metrics) DSKETCH_CHECK(std::isfinite(v));
          writer.PutVarint(b.item);
          writer.PutDouble(b.primary);
          for (double v : b.metrics) writer.PutDouble(v);
        }
      });
}

std::string Serialize(const MisraGries& sketch) {
  auto entries = sketch.Entries();  // descending estimate order
  return EncodeBlob(SketchKind::kMisraGries, wire::kVersionCurrent,
                    24 + entries.size() * 12, [&](VarintWriter& writer) {
                      PutHeaderV2(writer, SketchKind::kMisraGries,
                                  sketch.capacity(), entries.size());
                      writer.PutVarint(
                          static_cast<uint64_t>(sketch.decrements()));
                      writer.PutVarint(
                          static_cast<uint64_t>(sketch.TotalCount()));
                      CountDeltaWriter counts(writer);
                      for (const SketchEntry& e : entries) {
                        writer.PutVarint(e.item);
                        counts.Put(e.count);
                      }
                    });
}

std::string Serialize(const CountMin& sketch) {
  const std::vector<int64_t>& table = sketch.table();
  CheckEncodable(SketchKind::kCountMin, table.size(), table.size());
  return EncodeBlob(SketchKind::kCountMin, wire::kVersionCurrent,
                    24 + table.size() * 3, [&](VarintWriter& writer) {
                      writer.PutVarint(static_cast<uint64_t>(sketch.width()));
                      writer.PutVarint(static_cast<uint64_t>(sketch.depth()));
                      writer.PutValue(sketch.seed());
                      writer.PutByte(sketch.conservative() ? 1 : 0);
                      writer.PutVarint(
                          static_cast<uint64_t>(sketch.TotalCount()));
                      for (int64_t cell : table) {
                        writer.PutVarint(static_cast<uint64_t>(cell));
                      }
                    });
}

// ---------------------------------------------------------------------
// Legacy version-1 encoders.
// ---------------------------------------------------------------------

std::string SerializeV1(const UnbiasedSpaceSaving& sketch) {
  return EncodeIntegerV1(SketchKind::kUnbiased, sketch);
}

std::string SerializeV1(const DeterministicSpaceSaving& sketch) {
  return EncodeIntegerV1(SketchKind::kDeterministic, sketch);
}

std::string SerializeV1(const WeightedSpaceSaving& sketch) {
  auto entries = sketch.Entries();
  return EncodeBlob(SketchKind::kWeighted, wire::kVersionLegacy,
                    12 + entries.size() * 16, [&](VarintWriter& writer) {
                      PutHeaderV1(writer, SketchKind::kWeighted,
                                  sketch.capacity(),
                                  static_cast<uint32_t>(entries.size()));
                      for (const WeightedEntry& e : entries) {
                        writer.PutValue(e.item);
                        writer.PutValue(e.weight);
                      }
                    });
}

std::string SerializeV1(const MultiMetricSpaceSaving& sketch) {
  CheckMultiMetricEncodable(sketch);
  const auto& bins = sketch.bins();
  const size_t per_bin = 16 + 8 * sketch.num_metrics();
  return EncodeBlob(
      SketchKind::kMultiMetric, wire::kVersionLegacy,
      16 + bins.size() * per_bin, [&](VarintWriter& writer) {
        PutHeaderV1(writer, SketchKind::kMultiMetric, sketch.capacity(),
                    static_cast<uint32_t>(bins.size()));
        writer.PutValue(static_cast<uint32_t>(sketch.num_metrics()));
        for (const MultiMetricEntry& b : bins) {
          DSKETCH_CHECK(std::isfinite(b.primary));
          for (double v : b.metrics) DSKETCH_CHECK(std::isfinite(v));
          writer.PutValue(b.item);
          writer.PutValue(b.primary);
          for (double v : b.metrics) writer.PutValue(v);
        }
      });
}

std::string SerializeV1(const MisraGries& sketch) {
  auto entries = sketch.Entries();
  return EncodeBlob(SketchKind::kMisraGries, wire::kVersionLegacy,
                    28 + entries.size() * 16, [&](VarintWriter& writer) {
                      PutHeaderV1(writer, SketchKind::kMisraGries,
                                  sketch.capacity(),
                                  static_cast<uint32_t>(entries.size()));
                      writer.PutValue(sketch.decrements());
                      writer.PutValue(sketch.TotalCount());
                      for (const SketchEntry& e : entries) {
                        writer.PutValue(e.item);
                        writer.PutValue(e.count);
                      }
                    });
}

std::string SerializeV1(const CountMin& sketch) {
  const std::vector<int64_t>& table = sketch.table();
  return EncodeBlob(SketchKind::kCountMin, wire::kVersionLegacy,
                    45 + table.size() * 8, [&](VarintWriter& writer) {
                      PutHeaderV1(writer, SketchKind::kCountMin, table.size(),
                                  static_cast<uint32_t>(table.size()));
                      writer.PutValue(static_cast<uint64_t>(sketch.width()));
                      writer.PutValue(static_cast<uint64_t>(sketch.depth()));
                      writer.PutValue(sketch.seed());
                      writer.PutByte(sketch.conservative() ? 1 : 0);
                      writer.PutValue(sketch.TotalCount());
                      for (int64_t cell : table) writer.PutValue(cell);
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
  return DecodeInteger<UnbiasedSpaceSaving>(SketchKind::kUnbiased, bytes,
                                            seed);
}

std::optional<DeterministicSpaceSaving> DeserializeDeterministic(
    std::string_view bytes, uint64_t seed) {
  return DecodeInteger<DeterministicSpaceSaving>(SketchKind::kDeterministic,
                                                 bytes, seed);
}

std::optional<WeightedSpaceSaving> DeserializeWeighted(std::string_view bytes,
                                                       uint64_t seed) {
  return DecodeBlob<WeightedSpaceSaving>(
      bytes, SketchKind::kWeighted,
      [&](VarintReader& r) { return DecodeWeightedV1(r, seed); },
      [&](VarintReader& r) { return DecodeWeightedV2(r, seed); });
}

std::optional<MultiMetricSpaceSaving> DeserializeMultiMetric(
    std::string_view bytes, uint64_t seed) {
  return DecodeBlob<MultiMetricSpaceSaving>(
      bytes, SketchKind::kMultiMetric,
      [&](VarintReader& r) { return DecodeMultiMetricV1(r, seed); },
      [&](VarintReader& r) { return DecodeMultiMetricV2(r, seed); });
}

std::optional<MisraGries> DeserializeMisraGries(std::string_view bytes) {
  return DecodeBlob<MisraGries>(
      bytes, SketchKind::kMisraGries,
      [&](VarintReader& r) { return DecodeMisraGriesV1(r); },
      [&](VarintReader& r) { return DecodeMisraGriesV2(r); });
}

std::optional<CountMin> DeserializeCountMin(std::string_view bytes) {
  return DecodeBlob<CountMin>(
      bytes, SketchKind::kCountMin,
      [&](VarintReader& r) { return DecodeCountMinV1(r); },
      [&](VarintReader& r) { return DecodeCountMinV2(r); });
}

}  // namespace dsketch
