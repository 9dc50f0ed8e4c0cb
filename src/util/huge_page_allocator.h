// A std::vector allocator for the ingest hot path's big flat arrays
// (FlatMap's slot table, SpaceSavingCore's bins and their side arrays).
//
// A block of 2 MiB or more starts on a 2 MiB boundary and is advised
// MADV_HUGEPAGE before anything touches it, so where transparent huge
// pages are enabled (`always` or `madvise`) the first writes fault in
// 2 MiB pages: a 4·10⁶-bin sketch's ~224 MiB of arrays then needs ~10²
// TLB entries instead of ~6·10⁴. On a 4-vCPU VM with THP in `madvise`
// mode, bench_throughput's UpdateBatch and per-row Update at 4·10⁶ bins
// ran ~20% slower on plain heap arrays than with this advice, and level
// with it at 10⁶ bins and below. Smaller blocks, and platforms without
// the advice, get plain heap memory. The advice never changes contents.

#ifndef DSKETCH_UTIL_HUGE_PAGE_ALLOCATOR_H_
#define DSKETCH_UTIL_HUGE_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace dsketch {

template <typename T>
struct HugePageAllocator {
  using value_type = T;
  static constexpr size_t kHugePage = size_t{2} << 20;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePage) return std::allocator<T>().allocate(n);
    void* p = ::operator new(bytes, std::align_val_t(kHugePage));
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    // Best effort: whole huge pages only, and a refusal changes nothing.
    madvise(p, bytes / kHugePage * kHugePage, MADV_HUGEPAGE);
#endif
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) {
    if (n * sizeof(T) < kHugePage) {
      std::allocator<T>().deallocate(p, n);
    } else {
      ::operator delete(p, std::align_val_t(kHugePage));
    }
  }

  friend bool operator==(const HugePageAllocator&, const HugePageAllocator&) {
    return true;
  }
  friend bool operator!=(const HugePageAllocator&, const HugePageAllocator&) {
    return false;
  }
};

/// A flat array of T on the heap, huge-page advised when it is large.
template <typename T>
using HeapArray = std::vector<T, HugePageAllocator<T>>;

}  // namespace dsketch

#endif  // DSKETCH_UTIL_HUGE_PAGE_ALLOCATOR_H_
