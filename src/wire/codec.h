// Versioned wire envelope and the kind table.
//
// Every serialized sketch starts with the same 8-byte envelope,
// regardless of wire version:
//
//   [u32 magic = "DSK1"][u8 kind][u8 version][u16 reserved = 0]
//
// What follows is the kind- and version-specific payload. Version 1 (the
// legacy format) continues with fixed-width [u64 capacity][u32 entries];
// version 2 payloads are varint/delta encoded (see core/serialization.h
// for the per-kind layouts). Readers negotiate by version byte: a decoder
// accepts every version in the kind's registered [min, max] range and
// rejects the rest, so old blobs keep decoding while new encoders emit
// the current version only.
//
// The kind table (codec.cc) maps each kind byte this build decodes to a
// name and a supported version range. It is a fixed list owned by the
// wire layer, so classification works in every link configuration. DescribeWire uses it to classify a blob without
// decoding it, and decoders use it to gate version dispatch in one
// place.

#ifndef DSKETCH_WIRE_CODEC_H_
#define DSKETCH_WIRE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "wire/varint.h"

namespace dsketch {
namespace wire {

/// Shared magic ("DSK1" little-endian) across all wire versions.
inline constexpr uint32_t kMagic = 0x44534B31;

/// The legacy fixed-width format (decode-only on current builds).
inline constexpr uint8_t kVersionLegacy = 1;

/// The current varint/delta format; what Serialize emits.
inline constexpr uint8_t kVersionCurrent = 2;

/// Envelope size in bytes (same for every version).
inline constexpr size_t kEnvelopeBytes = 8;

/// The parsed envelope of a wire blob.
struct Envelope {
  uint8_t kind = 0;
  uint8_t version = 0;
};

/// Appends the 8-byte envelope for (`kind`, `version`).
void WriteEnvelope(std::string& out, uint8_t kind, uint8_t version);

/// Parses the envelope, validating the magic; the reader is left
/// positioned at the first payload byte. Returns nullopt on truncated or
/// foreign input. (The reserved field is not validated: v1 never checked
/// it, and rejecting it now would refuse blobs old writers produced.)
std::optional<Envelope> ReadEnvelope(VarintReader& reader);

/// True when `version` is one the codec for `kind` decodes. The known
/// kinds are 1 (Unbiased Space Saving) and 3 (weighted), encoded by
/// core/serialization.h; 7, the windowed epoch-ring snapshot, encoded by
/// src/window; and 8, the frozen mmap-able image (wire/frozen.h).
bool VersionSupported(uint8_t kind, uint8_t version);

/// What DescribeWire reports about a blob without decoding its payload.
struct WireInfo {
  uint8_t kind = 0;
  uint8_t version = 0;
  const char* kind_name = "";   ///< kind table name
  size_t payload_bytes = 0;     ///< bytes after the envelope
};

/// Classifies a wire blob: parses the envelope and resolves the kind
/// against the kind table. Returns nullopt for foreign bytes, unknown
/// kinds, or versions outside the kind's supported range.
std::optional<WireInfo> DescribeWire(std::string_view bytes);

/// Telemetry taps the serialization chokepoints call per blob: bump
/// dsketch_wire_encoded_bytes_total / dsketch_wire_decoded_bytes_total
/// labeled by the kind table name and version (unknown kinds count
/// under kind="unknown"). Blob-granular, so the table lookup cost is
/// irrelevant next to the codec work itself. Decode taps count accepted
/// blobs only — rejected hostile bytes never reach them. Container
/// blobs (the windowed ring) count their full size under their own
/// kind; the inner per-slot blobs also count under theirs.
void RecordWireEncoded(uint8_t kind, uint8_t version, size_t bytes);
void RecordWireDecoded(uint8_t kind, uint8_t version, size_t bytes);

}  // namespace wire
}  // namespace dsketch

#endif  // DSKETCH_WIRE_CODEC_H_
