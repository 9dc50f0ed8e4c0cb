#include "wire/codec.h"

#include <string>

#include "obs/metrics.h"

namespace dsketch {
namespace wire {
namespace {

struct CodecInfo {
  uint8_t kind;
  const char* name;
  uint8_t min_version;
  uint8_t max_version;
};

// Every kind this build decodes. Kinds 2, 4, 5 and 6 belonged to retired
// codecs (deterministic Space Saving, multi-metric, Misra-Gries, CountMin)
// and stay reserved: a new kind must not reuse their bytes, or a blob an
// old writer produced would decode as the wrong sketch.
constexpr CodecInfo kCodecs[] = {
    {1, "unbiased_space_saving", kVersionLegacy, kVersionCurrent},
    {3, "weighted_space_saving", kVersionLegacy, kVersionCurrent},
    // The windowed ring and frozen-image kinds are v2-only: both were
    // born after the varint era, so there is no legacy payload to accept.
    {7, "windowed_sketch", kVersionCurrent, kVersionCurrent},
    {8, "frozen_unbiased", kVersionCurrent, kVersionCurrent},
};

const CodecInfo* FindCodec(uint8_t kind) {
  for (const CodecInfo& info : kCodecs) {
    if (info.kind == kind) return &info;
  }
  return nullptr;
}

}  // namespace

void WriteEnvelope(std::string& out, uint8_t kind, uint8_t version) {
  VarintWriter w(out);
  w.PutValue(kMagic);
  w.PutByte(kind);
  w.PutByte(version);
  w.PutValue(static_cast<uint16_t>(0));
}

std::optional<Envelope> ReadEnvelope(VarintReader& reader) {
  uint32_t magic;
  uint16_t reserved;
  Envelope env;
  if (!reader.ReadValue(&magic) || magic != kMagic) return std::nullopt;
  if (!reader.ReadByte(&env.kind)) return std::nullopt;
  if (!reader.ReadByte(&env.version)) return std::nullopt;
  if (!reader.ReadValue(&reserved)) return std::nullopt;
  return env;
}

bool VersionSupported(uint8_t kind, uint8_t version) {
  const CodecInfo* info = FindCodec(kind);
  return info != nullptr && version >= info->min_version &&
         version <= info->max_version;
}

namespace {

void RecordWireBytes(const char* direction, uint8_t kind, uint8_t version,
                     size_t bytes) {
  const CodecInfo* info = FindCodec(kind);
  const char* kind_name = info != nullptr ? info->name : "unknown";
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("dsketch_wire_") + direction +
                  "_bytes_total{kind=\"" + kind_name + "\",version=\"" +
                  std::to_string(version) + "\"}")
      .Inc(bytes);
}

}  // namespace

void RecordWireEncoded(uint8_t kind, uint8_t version, size_t bytes) {
  RecordWireBytes("encoded", kind, version, bytes);
}

void RecordWireDecoded(uint8_t kind, uint8_t version, size_t bytes) {
  RecordWireBytes("decoded", kind, version, bytes);
}

std::optional<WireInfo> DescribeWire(std::string_view bytes) {
  VarintReader reader(bytes);
  std::optional<Envelope> env = ReadEnvelope(reader);
  if (!env) return std::nullopt;
  const CodecInfo* info = FindCodec(env->kind);
  if (info == nullptr || env->version < info->min_version ||
      env->version > info->max_version) {
    return std::nullopt;
  }
  WireInfo out;
  out.kind = env->kind;
  out.version = env->version;
  out.kind_name = info->name;
  out.payload_bytes = reader.remaining();
  return out;
}

}  // namespace wire
}  // namespace dsketch
