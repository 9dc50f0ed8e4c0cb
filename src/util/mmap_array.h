// A whole file mapped read-only into memory: the restore side of the
// frozen snapshot path (read replicas, `dsketchd --replica`).

#ifndef DSKETCH_UTIL_MMAP_ARRAY_H_
#define DSKETCH_UTIL_MMAP_ARRAY_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace dsketch {

/// A whole file mapped (or read) into memory, read-only — the restore
/// side of the frozen snapshot path: a read replica MapFile()s a frozen
/// image and serves queries off the page cache with zero decode and
/// zero copies. On POSIX the file is mmap'd MAP_PRIVATE/PROT_READ (the
/// base is page-aligned, so the image's 64-byte-aligned sections stay
/// aligned in memory); elsewhere — or when mmap fails — the bytes are
/// read into a heap buffer with identical semantics. Move-only; the
/// mapping lives until destruction.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { MoveFrom(std::move(other)); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  ~MappedFile() { Release(); }

  /// Maps `path` read-only. Returns nullopt when the file cannot be
  /// opened or read (missing, unreadable); an empty file maps to empty
  /// bytes successfully.
  static std::optional<MappedFile> Map(const std::string& path);

  /// The file's bytes; valid until this object is destroyed or moved.
  std::string_view bytes() const {
    return data_ == nullptr ? std::string_view()
                            : std::string_view(data_, size_);
  }

  /// True when the bytes come from an actual mmap (false for the
  /// read-into-heap fallback).
  bool backed_by_mmap() const { return mmapped_; }

 private:
  void MoveFrom(MappedFile&& other) noexcept {
    mmapped_ = other.mmapped_;
    heap_ = std::move(other.heap_);
    if (other.data_ == nullptr) {
      data_ = nullptr;
      size_ = 0;
    } else if (mmapped_) {
      data_ = other.data_;
      size_ = other.size_;
    } else {
      // Heap fallback: re-point at our own string — a small string's
      // buffer lives inside the object and does not survive the move.
      data_ = heap_.data();
      size_ = heap_.size();
    }
    other.data_ = nullptr;
    other.size_ = 0;
    other.mmapped_ = false;
  }
  void Release();

  const char* data_ = nullptr;
  size_t size_ = 0;
  bool mmapped_ = false;
  std::string heap_;  // owns the bytes in the fallback path
};

/// Convenience wrapper: MappedFile::Map.
inline std::optional<MappedFile> MapFile(const std::string& path) {
  return MappedFile::Map(path);
}

}  // namespace dsketch

#endif  // DSKETCH_UTIL_MMAP_ARRAY_H_
