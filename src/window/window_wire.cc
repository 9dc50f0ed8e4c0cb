#include "window/window_wire.h"

#include <cmath>
#include <deque>
#include <utility>

#include "util/logging.h"
#include "wire/codec.h"
#include "wire/varint.h"

namespace dsketch {

namespace {

using wire::VarintReader;
using wire::VarintWriter;

// Smallest possible wire footprint of one ring slot: epoch varint +
// length varint + an inner blob (8-byte envelope + 2-byte empty v2
// header). Bounds hostile slot-count claims before allocation.
constexpr size_t kMinSlotBytes = 12;

}  // namespace

std::string SerializeWindowed(const WindowedSpaceSaving& sketch) {
  const WindowedSketchOptions& opt = sketch.options();
  DSKETCH_CHECK(opt.window_epochs > 0 && opt.window_epochs <= kMaxWindowEpochs);
  DSKETCH_CHECK(opt.epoch_capacity > 0 &&
                opt.epoch_capacity <= kMaxSerializableCapacity);
  DSKETCH_CHECK(opt.merged_capacity > 0 &&
                opt.merged_capacity <= kMaxSerializableCapacity);
  DSKETCH_CHECK(sketch.CurrentEpoch() <= kMaxEpochStamp);

  std::string out;
  out.reserve(wire::kEnvelopeBytes + 64 +
              sketch.slots().size() * (16 + opt.epoch_capacity * 4));
  wire::WriteEnvelope(out, kWireKindWindowed, wire::kVersionCurrent);
  VarintWriter writer(out);
  writer.PutVarint(opt.window_epochs);
  writer.PutVarint(opt.epoch_capacity);
  writer.PutVarint(opt.merged_capacity);
  writer.PutVarint(opt.rows_per_epoch);
  writer.PutDouble(opt.half_life_epochs);
  writer.PutVarint(sketch.RowsInCurrentEpoch());
  writer.PutVarint(sketch.TotalRows());
  writer.PutVarint(sketch.slots().size());
  for (const auto& slot : sketch.slots()) {
    const std::string blob = Serialize(slot.sketch);
    writer.PutVarint(slot.epoch);
    writer.PutVarint(blob.size());
    out.append(blob);
  }
  writer.PutByte(sketch.decay_enabled() ? 1 : 0);
  if (sketch.decay_enabled()) {
    // The accumulator as of the open epoch, whatever its landmark.
    const std::string blob = Serialize(sketch.DecayedClosedView());
    writer.PutVarint(blob.size());
    out.append(blob);
  }
  wire::RecordWireEncoded(kWireKindWindowed, wire::kVersionCurrent, out.size());
  return out;
}

std::optional<WindowedSpaceSaving> DeserializeWindowed(std::string_view bytes,
                                                      uint64_t seed) {
  VarintReader reader(bytes);
  std::optional<wire::Envelope> env = wire::ReadEnvelope(reader);
  if (!env || env->kind != kWireKindWindowed) return std::nullopt;
  if (!wire::VersionSupported(env->kind, env->version)) return std::nullopt;

  uint64_t window_epochs, epoch_capacity, merged_capacity, rows_per_epoch;
  double half_life;
  uint64_t rows_in_epoch, total_rows, n_slots;
  if (!reader.ReadVarint(&window_epochs) || window_epochs == 0 ||
      window_epochs > kMaxWindowEpochs) {
    return std::nullopt;
  }
  if (!reader.ReadVarint(&epoch_capacity) || epoch_capacity == 0 ||
      epoch_capacity > kMaxSerializableCapacity) {
    return std::nullopt;
  }
  if (!reader.ReadVarint(&merged_capacity) || merged_capacity == 0 ||
      merged_capacity > kMaxSerializableCapacity) {
    return std::nullopt;
  }
  if (!reader.ReadVarint(&rows_per_epoch)) return std::nullopt;
  // ValidHalfLife covers negatives, NaN, and the underflow band where
  // decay would be silently off while half_life > 0; finiteness is still
  // checked separately (an infinite half-life means factor 1, which
  // ValidHalfLife alone would accept).
  if (!reader.ReadDouble(&half_life) || !std::isfinite(half_life) ||
      !ValidHalfLife(half_life)) {
    return std::nullopt;
  }
  if (!reader.ReadVarint(&rows_in_epoch)) return std::nullopt;
  if (!reader.ReadVarint(&total_rows) || rows_in_epoch > total_rows) {
    return std::nullopt;
  }
  if (!reader.ReadVarint(&n_slots) || n_slots == 0 ||
      n_slots > window_epochs || n_slots > reader.remaining() / kMinSlotBytes) {
    return std::nullopt;
  }

  std::deque<WindowedSpaceSaving::EpochSlot> slots;
  uint64_t prev_epoch = 0;
  for (uint64_t i = 0; i < n_slots; ++i) {
    uint64_t epoch, blob_len;
    // Ascending, and bounded like live stamps — a restored ring must not
    // carry a clock the ingest path would have refused.
    if (!reader.ReadVarint(&epoch) || epoch > kMaxEpochStamp) {
      return std::nullopt;
    }
    if (i > 0 && epoch <= prev_epoch) return std::nullopt;
    if (!reader.ReadVarint(&blob_len) || blob_len > reader.remaining()) {
      return std::nullopt;
    }
    std::string blob;
    if (!reader.ReadBytes(static_cast<size_t>(blob_len), &blob)) {
      return std::nullopt;
    }
    std::optional<UnbiasedSpaceSaving> inner =
        DeserializeUnbiased(blob, seed + epoch);
    if (!inner.has_value() || inner->capacity() != epoch_capacity) {
      return std::nullopt;
    }
    slots.emplace_back(epoch, std::move(*inner));
    prev_epoch = epoch;
  }
  // The ring spans at most one window ending at the open (newest) epoch.
  const uint64_t newest = slots.back().epoch;
  if (newest - slots.front().epoch >= window_epochs) return std::nullopt;

  uint8_t has_decayed;
  if (!reader.ReadByte(&has_decayed) || has_decayed > 1) return std::nullopt;
  if ((has_decayed == 1) != (half_life > 0.0)) return std::nullopt;
  WindowedSketchOptions opt;
  opt.window_epochs = static_cast<size_t>(window_epochs);
  opt.epoch_capacity = static_cast<size_t>(epoch_capacity);
  opt.merged_capacity = static_cast<size_t>(merged_capacity);
  opt.rows_per_epoch = rows_per_epoch;
  opt.half_life_epochs = half_life;
  opt.seed = seed;
  std::optional<DecayedSpaceSaving> decayed;
  if (has_decayed == 1) {
    uint64_t blob_len;
    if (!reader.ReadVarint(&blob_len) || blob_len > reader.remaining()) {
      return std::nullopt;
    }
    std::string blob;
    if (!reader.ReadBytes(static_cast<size_t>(blob_len), &blob)) {
      return std::nullopt;
    }
    std::optional<WeightedSpaceSaving> acc =
        DeserializeWeighted(blob, seed + newest);
    if (!acc.has_value() || acc->capacity() != merged_capacity) {
      return std::nullopt;
    }
    // Masses as of the open epoch are a forward frame landmarked there.
    decayed.emplace(std::move(*acc), half_life, static_cast<double>(newest));
  }
  if (!reader.AtEnd()) return std::nullopt;
  wire::RecordWireDecoded(env->kind, env->version, bytes.size());

  WindowedSpaceSaving out(opt);
  out.LoadState(std::move(slots), std::move(decayed), rows_in_epoch,
                total_rows);
  return out;
}

std::optional<uint64_t> PeekWindowedNewestEpoch(std::string_view bytes) {
  VarintReader reader(bytes);
  std::optional<wire::Envelope> env = wire::ReadEnvelope(reader);
  if (!env || env->kind != kWireKindWindowed) return std::nullopt;
  if (!wire::VersionSupported(env->kind, env->version)) return std::nullopt;
  // window_epochs .. rows_per_epoch, then half_life, then the row counts.
  uint64_t skipped;
  for (int i = 0; i < 4; ++i) {
    if (!reader.ReadVarint(&skipped)) return std::nullopt;
  }
  double half_life;
  if (!reader.ReadDouble(&half_life)) return std::nullopt;
  uint64_t n_slots;
  if (!reader.ReadVarint(&skipped) || !reader.ReadVarint(&skipped) ||
      !reader.ReadVarint(&n_slots) || n_slots == 0 ||
      n_slots > kMaxWindowEpochs ||
      n_slots > reader.remaining() / kMinSlotBytes) {
    return std::nullopt;
  }
  uint64_t epoch = 0;
  for (uint64_t i = 0; i < n_slots; ++i) {
    uint64_t blob_len;
    if (!reader.ReadVarint(&epoch) || !reader.ReadVarint(&blob_len) ||
        blob_len > reader.remaining() ||
        !reader.Skip(static_cast<size_t>(blob_len))) {
      return std::nullopt;
    }
  }
  return epoch;  // slots travel oldest-first; the last one is the open epoch
}

}  // namespace dsketch
