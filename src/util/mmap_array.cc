#include "util/mmap_array.h"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#define DSKETCH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define DSKETCH_HAVE_MMAP 0
#endif

namespace dsketch {
namespace {

// stdio fallback shared by the non-POSIX build and mmap-failure paths:
// read the whole file into `out`. Returns false on any I/O error.
bool ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  out->clear();
  for (;;) {
    const size_t n = std::fread(buf, 1, sizeof(buf), f);
    out->append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

std::optional<MappedFile> MappedFile::Map(const std::string& path) {
  MappedFile out;
#if DSKETCH_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      const size_t size = static_cast<size_t>(st.st_size);
      if (size == 0) {
        ::close(fd);
        return out;  // empty file: empty bytes, no mapping needed
      }
      void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      // The mapping outlives the descriptor either way.
      ::close(fd);
      if (p != MAP_FAILED) {
        out.data_ = static_cast<const char*>(p);
        out.size_ = size;
        out.mmapped_ = true;
        return out;
      }
    } else {
      ::close(fd);
    }
    // Open succeeded but stat/mmap did not (e.g. a filesystem that
    // refuses mappings): fall through to the read path.
  } else {
    return std::nullopt;
  }
#endif
  if (!ReadWholeFile(path, &out.heap_)) return std::nullopt;
  out.data_ = out.heap_.data();
  out.size_ = out.heap_.size();
  return out;
}

void MappedFile::Release() {
#if DSKETCH_HAVE_MMAP
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mmapped_ = false;
}

}  // namespace dsketch
