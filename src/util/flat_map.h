// Open-addressing hash map from uint64_t keys to a small trivially-copyable
// value, tuned for the sketch hot path (one lookup per stream row).
//
// Design notes:
//  - Linear probing with a power-of-two table and a strong 64-bit mixer.
//    Sketch workloads are read-mostly lookups over at most `capacity` keys,
//    so probe sequences stay short at the 0.5 max load factor used here:
//    a lookup tests its home slot, then walks the cluster one slot at a
//    time (the expected probe length is ~1).
//  - Keys and values live interleaved in one slot array, so a lookup that
//    hits touches a single cache line for both.
//  - Erase uses backward-shift deletion (no tombstones), keeping lookups
//    O(1) even under the frequent label-replacement churn of Space Saving.
//  - One reserved key (kEmpty) marks free slots; the sketches never store
//    it because item ids are hashed upstream or offset by callers.
//  - The batched ingestion path pre-mixes keys once (MixedHash), reuses
//    the mix across Find/Insert/Erase via the *Hashed overloads, and hides
//    probe-line misses with Prefetch. A mixed hash stays valid across
//    rehashes (only the mask applied to it changes).
//  - Callers that keep a per-entry backpointer (SpaceSavingCore's
//    slot -> index-position array) use the *AtPos API: values are updated
//    or erased at a known table position with no probe walk at all, and
//    EraseAtPos reports every backward-shift relocation through a hook so
//    backpointers stay exact.

#ifndef DSKETCH_UTIL_FLAT_MAP_H_
#define DSKETCH_UTIL_FLAT_MAP_H_

#include <cstdint>

#include "util/huge_page_allocator.h"
#include "util/logging.h"

#if defined(_MSC_VER) && !defined(__clang__)
#include <intrin.h>
#define DSKETCH_PREFETCH(addr) _mm_prefetch((const char*)(addr), _MM_HINT_T0)
#else
#define DSKETCH_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#endif

namespace dsketch {

// perfbench's header record still prints these two facts; the probe is
// always the scalar walk and every table lives on the heap.
inline const char* FlatMapProbeIsa() { return "scalar"; }
enum class AllocMode { kHeap };
inline AllocMode GlobalAllocMode() { return AllocMode::kHeap; }
inline const char* AllocModeName(AllocMode) { return "heap"; }

/// Open-addressing uint64 -> Value map with backward-shift deletion.
///
/// `Value` must be trivially copyable. The key 0xFFFFFFFFFFFFFFFF is
/// reserved to mark empty slots and must not be inserted.
template <typename Value>
class FlatMap {
 public:
  static constexpr uint64_t kEmpty = ~0ULL;
  static constexpr size_t kNpos = ~size_t{0};

  /// Creates a map sized for `expected` keys without rehashing.
  explicit FlatMap(size_t expected = 16) { Rehash(TableSizeFor(expected)); }

  /// Number of stored keys.
  size_t size() const { return size_; }

  /// True if no keys are stored.
  bool empty() const { return size_ == 0; }

  /// Number of table slots. Stays fixed while size() <= TableSize()/2;
  /// callers that pre-size for their maximum key count (FlatMap(max))
  /// therefore never see positions move under them.
  size_t TableSize() const { return slots_.size(); }

  /// The mixed (table-size independent) hash of `key`. Callers that touch
  /// the same key several times can compute this once and use the *Hashed
  /// overloads below.
  static uint64_t MixedHash(uint64_t key) { return Mix(key); }

  /// Prefetches the probe line a lookup for this mixed hash would start
  /// at. Advisory only; issue it a handful of operations ahead.
  void Prefetch(uint64_t mixed_hash) const {
    DSKETCH_PREFETCH(&slots_[mixed_hash & (slots_.size() - 1)]);
  }

  /// Inserts `key -> value` or overwrites the existing mapping.
  void InsertOrAssign(uint64_t key, Value value) {
    InsertOrAssignHashed(key, Mix(key), value);
  }

  /// InsertOrAssign with a precomputed MixedHash(key).
  void InsertOrAssignHashed(uint64_t key, uint64_t mixed_hash, Value value) {
    InsertOrAssignPosHashed(key, mixed_hash, value);
  }

  /// InsertOrAssign that returns the table position the mapping landed
  /// in. The position stays valid until the next rehash, or until an
  /// erase shifts a cluster over it (reported via EraseAtPos's hook).
  size_t InsertOrAssignPosHashed(uint64_t key, uint64_t mixed_hash,
                                 Value value) {
    DSKETCH_DCHECK(key != kEmpty);
    DSKETCH_DCHECK(mixed_hash == Mix(key));
    if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
    size_t i = FindSlotHashed(key, mixed_hash);
    if (slots_[i].key == kEmpty) {
      slots_[i].key = key;
      ++size_;
    }
    slots_[i].value = value;
    return i;
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  Value* Find(uint64_t key) { return FindHashed(key, Mix(key)); }

  /// Const overload of Find.
  const Value* Find(uint64_t key) const { return FindHashed(key, Mix(key)); }

  /// Find with a precomputed MixedHash(key).
  Value* FindHashed(uint64_t key, uint64_t mixed_hash) {
    DSKETCH_DCHECK(mixed_hash == Mix(key));
    size_t i = FindSlotHashed(key, mixed_hash);
    return slots_[i].key == key ? &slots_[i].value : nullptr;
  }

  /// Const overload of FindHashed.
  const Value* FindHashed(uint64_t key, uint64_t mixed_hash) const {
    DSKETCH_DCHECK(mixed_hash == Mix(key));
    size_t i = FindSlotHashed(key, mixed_hash);
    return slots_[i].key == key ? &slots_[i].value : nullptr;
  }

  /// The key stored at table position `pos` (kEmpty for a free slot).
  uint64_t KeyAtPos(size_t pos) const { return slots_[pos].key; }

  /// Overwrites the value at an occupied table position — O(1), no probe
  /// walk, no structural change. `pos` must come from
  /// InsertOrAssignPosHashed (or EraseAtPos's hook) and still be current.
  void AssignAtPos(size_t pos, Value value) {
    DSKETCH_DCHECK(slots_[pos].key != kEmpty);
    slots_[pos].value = value;
  }

  /// Removes `key` if present; returns true if a mapping was removed.
  bool Erase(uint64_t key) { return EraseHashed(key, Mix(key)); }

  /// Erase with a precomputed MixedHash(key).
  bool EraseHashed(uint64_t key, uint64_t mixed_hash) {
    DSKETCH_DCHECK(mixed_hash == Mix(key));
    size_t i = FindSlotHashed(key, mixed_hash);
    if (slots_[i].key != key) return false;
    EraseAtPos(i, [](Value, size_t) {});
    return true;
  }

  /// Erases the entry at an occupied table position — no probe walk to
  /// re-find the key. Backward-shift deletion relocates later cluster
  /// entries into the hole; every relocation is reported as
  /// on_move(value, new_pos) so callers keeping value -> position
  /// backpointers (SpaceSavingCore) can fix them in O(1) each.
  template <typename OnMove>
  void EraseAtPos(size_t i, OnMove&& on_move) {
    DSKETCH_DCHECK(i < slots_.size() && slots_[i].key != kEmpty);
    // Backward-shift deletion: move subsequent cluster entries into the
    // hole while they are not at their home position.
    size_t mask = slots_.size() - 1;
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (slots_[j].key == kEmpty) break;
      size_t home = Home(slots_[j].key);
      // Entry at j may move into the hole if its home position does not lie
      // (cyclically) strictly after the hole.
      bool movable;
      if (j > hole) {
        movable = home <= hole || home > j;
      } else {
        movable = home <= hole && home > j;
      }
      if (movable) {
        slots_[hole] = slots_[j];
        on_move(slots_[hole].value, hole);
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
  }

  /// Removes all keys, keeping the current capacity.
  void Clear() {
    for (auto& s : slots_) s.key = kEmpty;
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t key;
    Value value;
  };

  static size_t TableSizeFor(size_t expected) {
    size_t n = 16;
    while (n < expected * 2) n <<= 1;
    return n;
  }

  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  size_t Home(uint64_t key) const { return Mix(key) & (slots_.size() - 1); }

  // First slot, cyclically from the hash's home position, whose key is
  // `key` or kEmpty.
  size_t FindSlotHashed(uint64_t key, uint64_t mixed_hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = mixed_hash & mask;
    while (slots_[i].key != kEmpty && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash(size_t new_size) {
    HeapArray<Slot> old = std::move(slots_);
    slots_.assign(new_size, Slot{kEmpty, Value()});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kEmpty) {
        slots_[FindSlotHashed(s.key, Mix(s.key))] = s;
        ++size_;
      }
    }
  }

  HeapArray<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace dsketch

#endif  // DSKETCH_UTIL_FLAT_MAP_H_
