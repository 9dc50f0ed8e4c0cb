// Wire codec for the window-snapshot kind: the full epoch ring of a
// WindowedSpaceSaving — ring metadata, one embedded per-epoch sketch
// blob per slot, and the decayed accumulator — travels as one versioned
// blob, so windowed state replicates through the same
// SaveSnapshot/IngestSerialized machinery as flat sketches.
//
// Envelope: the shared 8-byte header (wire/codec.h) with kind 7
// ("windowed_sketch"). The kind is v2-only — it was born after the
// varint era, so there is no legacy layout to decode. Payload (varints
// unless noted; f64 = 8-byte IEEE-754 LE):
//
//   [window_epochs][epoch_capacity][merged_capacity][rows_per_epoch]
//   [f64 half_life_epochs]
//   [rows_in_current_epoch][total_rows]
//   [n_slots] then per slot, epochs strictly ascending (newest = open):
//       [epoch_id][blob_len][unbiased-space-saving v2 blob]
//   [u8 has_decayed][if 1: [blob_len][weighted-space-saving v2 blob]]
//
// The decayed blob holds the accumulator's masses as of the open epoch,
// whatever its landmark; the decoder adopts them as a forward frame
// landmarked there (so blobs of the older, backward-aged accumulator
// decode unchanged).
//
// The embedded blobs reuse the per-kind v2 codecs verbatim (envelope
// included), so every inner payload inherits their hostile-input
// hardening; the outer decoder additionally enforces the ring caps
// (window_epochs <= kMaxWindowEpochs, slot count <= window length,
// strictly ascending epochs spanning at most one window, inner
// capacities matching the declared ring geometry) and bounds every
// claimed length by the bytes actually present before allocating.
// DeserializeWindowed returns nullopt on any malformed input — never
// aborts — matching the core codecs' contract (wire_adversarial_test
// sweeps this kind too).

#ifndef DSKETCH_WINDOW_WINDOW_WIRE_H_
#define DSKETCH_WINDOW_WINDOW_WIRE_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/serialization.h"
#include "window/windowed_sketch.h"

namespace dsketch {

/// Kind byte of the window-snapshot blob (registered as a built-in in
/// wire/codec.cc; part of the wire contract).
inline constexpr uint8_t kWireKindWindowed = 7;

/// Serializes the full epoch ring (current wire version). CHECK-fails
/// beyond the documented caps, mirroring the flat-sketch encoders.
std::string SerializeWindowed(const WindowedSpaceSaving& sketch);

/// Reconstructs a windowed sketch; `seed` re-seeds the receiving side's
/// randomness (per-epoch sketches re-seed as seed + epoch, exactly as a
/// locally grown ring would). Returns nullopt on malformed or
/// wrong-kind input.
std::optional<WindowedSpaceSaving> DeserializeWindowed(
    std::string_view bytes, uint64_t seed = 1);

/// Reads the newest (open) slot epoch off a windowed blob in one linear
/// walk over the slot headers, without reconstructing any per-epoch
/// sketch. For callers that already validated/absorbed the blob and
/// only need its clock (e.g. the windowed source adopting an ahead
/// peer's epoch on restore). Returns nullopt on malformed input.
std::optional<uint64_t> PeekWindowedNewestEpoch(std::string_view bytes);

/// Wire dispatch so the generic layers (ShardedSketch snapshot
/// replication, and through it WindowedSketchSource::RestoreSnapshot)
/// handle windowed sketches like any other kind.
template <>
struct SketchWire<WindowedSpaceSaving> {
  static std::string Serialize(const WindowedSpaceSaving& s) {
    return SerializeWindowed(s);
  }
  static std::optional<WindowedSpaceSaving> Deserialize(
      std::string_view bytes, uint64_t seed) {
    return DeserializeWindowed(bytes, seed);
  }
};

}  // namespace dsketch

#endif  // DSKETCH_WINDOW_WINDOW_WIRE_H_
