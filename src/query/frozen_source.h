// Read-replica image: a frozen sketch (wire/frozen.h) mmap'd from disk
// or borrowed from a peer's SNAPSHOT response.
//
// Construction is O(1): the image is structurally vetted, never parsed.
// SketchQueryEngine serves SUM / GROUPBY straight off the image and
// FrozenTopK serves TOPK — zero decode, answers bit-identical to the
// thawed sketch. A replica never ingests or restores; its snapshot is
// the image itself, so replicas re-serve it for free.
//
// Structural vetting cannot see malformed *content* (e.g. a total that
// disagrees with the entries). Validate() runs the full O(n) check that
// thawing would, so a server fed an untrusted image can refuse it at
// startup instead of serving wrong answers.

#ifndef DSKETCH_QUERY_FROZEN_SOURCE_H_
#define DSKETCH_QUERY_FROZEN_SOURCE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/serialization.h"
#include "core/sketch_entry.h"
#include "util/logging.h"
#include "util/mmap_array.h"
#include "wire/frozen.h"

namespace dsketch {

/// A vetted frozen image (borrowed, adopted, or mmap'd).
class FrozenSketchSource {
 public:
  /// Over borrowed bytes, which must outlive the source. O(1) vetting
  /// only; nullopt when the bytes are not a structurally valid image.
  static std::optional<FrozenSketchSource> FromBytes(std::string_view bytes) {
    std::optional<wire::FrozenView> view = wire::FrozenView::Vet(bytes);
    if (!view.has_value()) return std::nullopt;
    FrozenSketchSource out;
    out.view_ = view;
    return out;
  }

  /// Adopts a copy of the blob (e.g. a SNAPSHOT response body).
  static std::optional<FrozenSketchSource> FromBlob(std::string blob) {
    auto owned = std::make_shared<std::string>(std::move(blob));
    std::optional<FrozenSketchSource> out = FromBytes(*owned);
    if (out.has_value()) out->owned_blob_ = std::move(owned);
    return out;
  }

  /// Maps `path` (util/mmap_array.h MappedFile: real mmap on POSIX,
  /// read-into-heap elsewhere) and vets the image. The mapping is owned
  /// by the source, so the frozen file serves straight off the page
  /// cache for the source's lifetime.
  static std::optional<FrozenSketchSource> FromFile(const std::string& path) {
    std::optional<MappedFile> file = MapFile(path);
    if (!file.has_value()) return std::nullopt;
    auto owned = std::make_shared<MappedFile>(std::move(*file));
    std::optional<FrozenSketchSource> out = FromBytes(owned->bytes());
    if (out.has_value()) out->file_ = std::move(owned);
    return out;
  }

  /// The vetted zero-copy view the engine queries against.
  const wire::FrozenView& frozen() const { return *view_; }

  /// True when the image is served from an actual file mapping.
  bool backed_by_mmap() const {
    return file_ != nullptr && file_->backed_by_mmap();
  }

  /// Deep O(n) content validation (everything ThawFrozen checks) without
  /// keeping the thawed sketch. The seed only drives the throwaway
  /// sketch's RNG, so it cannot change the verdict.
  bool Validate() const {
    return ThawFrozen(view_->bytes(), /*seed=*/1).has_value();
  }

  /// The snapshot of a frozen replica is the image itself (no re-encode).
  std::string SaveSnapshot() const { return std::string(view_->bytes()); }

 private:
  FrozenSketchSource() = default;

  // Always engaged once a factory succeeds (optional because only Vet
  // can produce a FrozenView).
  std::optional<wire::FrozenView> view_;
  // Exactly one of these owns the bytes; both empty for borrowed bytes.
  // shared_ptr keeps the source copyable (the view is just a pointer).
  std::shared_ptr<const std::string> owned_blob_;
  std::shared_ptr<const MappedFile> file_;
};

/// Top-k of a frozen image without decoding: the image stores entries in
/// canonical descending order, so the answer is its first k records —
/// bit-identical to TopK(thawed_sketch, k). k must be > 0.
inline std::vector<SketchEntry> FrozenTopK(const wire::FrozenView& view,
                                           size_t k) {
  DSKETCH_CHECK(k > 0);
  const size_t n = static_cast<size_t>(view.entry_count());
  std::vector<SketchEntry> out;
  out.reserve(k < n ? k : n);
  view.ForEachEntry([&](uint64_t item, int64_t count) {
    out.push_back(SketchEntry{item, count});
    return out.size() < k;
  });
  return out;
}

}  // namespace dsketch

#endif  // DSKETCH_QUERY_FROZEN_SOURCE_H_
