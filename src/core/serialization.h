// Binary serialization for the mergeable sketches (paper §5.5: "in a
// map-reduce framework ... only a set of small sketches needs to be sent
// over the network"), built on the layered wire subsystem in src/wire.
// It covers the two sketches the service snapshots and restores:
// Unbiased Space Saving (wire kind 1, plus the frozen image, kind 8) and
// the weighted sketch (kind 3). The windowed ring (kind 7) wraps these
// blobs; its codec is window/window_wire.h.
//
// Every blob starts with the shared 8-byte envelope (wire/codec.h):
//
//   [u32 magic = "DSK1"][u8 kind][u8 version][u16 reserved = 0]
//
// Version negotiation: encoders emit the current version (2); decoders
// accept both versions (1-2), so v1 blobs from old writers keep decoding
// and a fleet can roll forward node by node. SerializeV1 keeps the
// legacy Unbiased encoder for compatibility tests and the wire
// benchmark's v1-vs-v2 size table; the checked-in v1 goldens
// (tests/golden) pin the legacy bytes of both kinds.
//
// v1 payload (fixed-width little-endian, decode-only):
//
//   [u64 capacity][u32 entry_count]
//   entries: 16 B/entry (u64 item + i64 count or f64 weight)
//
// v2 payload (varint/delta; see src/wire/varint.h for the primitives):
//
//   [varint capacity][varint entry_count]
//   entries: varint item per entry; Unbiased counts are delta-encoded
//            against the descending count order Entries() emits (first
//            count as varint, then varint prev-minus-current), so the
//            long near-minimum tail costs ~1 B/count; weights stay fixed
//            8-byte IEEE-754
//
// Deserialization validates the envelope, sizes, and per-kind invariants
// and returns nullopt on any malformed input (never aborts) — inputs may
// come from the network.
//
// Capacity cap (identical on both wire versions, enforced symmetrically
// on encode — Serialize CHECK-fails beyond it — and decode — rejected —
// so everything serializable restores and hostile headers cannot force
// huge allocations):
//
//   kind                   cap
//   ---------------------  -----------------------------------------
//   Unbiased / Weighted /  2^22 bins (kMaxSerializableCapacity)
//   frozen Unbiased

#ifndef DSKETCH_CORE_SERIALIZATION_H_
#define DSKETCH_CORE_SERIALIZATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/unbiased_space_saving.h"
#include "core/weighted_space_saving.h"
#include "wire/codec.h"

namespace dsketch {

/// Largest capacity Serialize accepts. Part of the wire format contract
/// for both versions; Serialize CHECK-fails beyond it, so callers sizing
/// sketches for snapshotting should stay within it.
inline constexpr uint64_t kMaxSerializableCapacity = uint64_t{1} << 22;

/// Serializes a sketch's state (capacity + entries) with the current
/// wire version.
std::string Serialize(const UnbiasedSpaceSaving& sketch);

/// Serializes a weighted sketch.
std::string Serialize(const WeightedSpaceSaving& sketch);

/// Legacy version-1 encoder, retained so compatibility tests and the
/// wire benchmark can still produce v1 bytes. New code should use
/// Serialize (current version); every Deserialize* accepts both.
std::string SerializeV1(const UnbiasedSpaceSaving& sketch);

/// Serializes an unbiased sketch as the frozen mmap-able image (wire
/// kind 8, wire/frozen.h): the bytes ARE the query-ready flat layout, so
/// a reader restores in O(1) via wire::FrozenView::Vet (zero-decode
/// replica serving; see query/frozen_source.h) or thaws in O(n) via
/// DeserializeUnbiased, which accepts frozen blobs alongside v1/v2 —
/// CombineSerialized and snapshot RESTORE therefore take frozen inputs
/// unchanged. Entries are written in canonical order (count descending,
/// ties ascending item), the order a thawed sketch's Entries() reports,
/// so frozen and thawed answers are bit-identical.
std::string SerializeFrozen(const UnbiasedSpaceSaving& sketch);

/// O(n) thaw of a frozen image into a live sketch: structural vetting,
/// then full content validation (canonical entry order, positive counts,
/// duplicate labels, total/min consistency with the header metadata, and
/// a hash index that resolves every entry — zero-decode point lookups go
/// through it). Returns nullopt on anything malformed; never aborts.
std::optional<UnbiasedSpaceSaving> ThawFrozen(std::string_view bytes,
                                              uint64_t seed = 1);

/// Reconstructs an Unbiased Space Saving sketch; `seed` re-seeds the
/// receiving side's randomness (the sample itself is in the entries).
/// Returns nullopt on malformed or wrong-kind input. Accepts wire v1,
/// v2, and the frozen image kind (thawed via ThawFrozen).
std::optional<UnbiasedSpaceSaving> DeserializeUnbiased(std::string_view bytes,
                                                       uint64_t seed = 1);

/// Reconstructs a weighted sketch.
std::optional<WeightedSpaceSaving> DeserializeWeighted(std::string_view bytes,
                                                       uint64_t seed = 1);

/// Compile-time serializer dispatch for generic layers (shard snapshot
/// replication, query-engine state) that handle a sketch type `S` without
/// naming its kind-specific Serialize/Deserialize pair.
template <typename S>
struct SketchWire;

template <>
struct SketchWire<UnbiasedSpaceSaving> {
  static std::string Serialize(const UnbiasedSpaceSaving& s) {
    return dsketch::Serialize(s);
  }
  static std::optional<UnbiasedSpaceSaving> Deserialize(std::string_view bytes,
                                                        uint64_t seed) {
    return DeserializeUnbiased(bytes, seed);
  }
};

template <>
struct SketchWire<WeightedSpaceSaving> {
  static std::string Serialize(const WeightedSpaceSaving& s) {
    return dsketch::Serialize(s);
  }
  static std::optional<WeightedSpaceSaving> Deserialize(std::string_view bytes,
                                                        uint64_t seed) {
    return DeserializeWeighted(bytes, seed);
  }
};

}  // namespace dsketch

#endif  // DSKETCH_CORE_SERIALIZATION_H_
