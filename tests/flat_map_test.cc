// Dedicated FlatMap coverage for the ingest hot path: backward-shift
// deletion under clustered keys, rehash under load, the reserved-key and
// position contracts, and the backpointers SpaceSavingCore keeps through
// EraseAtPos's relocation hook. CI runs this suite under AddressSanitizer
// on every push, so any probe that reads past the slot table is caught.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "util/flat_map.h"
#include "util/random.h"

namespace dsketch {
namespace {

// Keys whose home slots all land inside [0, width) of a map with
// `table_size` slots — the adversarial input for probe clustering and
// backward-shift deletion.
std::vector<uint64_t> ClusteredKeys(size_t count, size_t table_size,
                                    size_t width, uint64_t seed) {
  std::vector<uint64_t> keys;
  Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  while (keys.size() < count) {
    uint64_t k = rng.NextU64();
    if (k == FlatMap<uint32_t>::kEmpty) continue;
    if ((FlatMap<uint32_t>::MixedHash(k) & (table_size - 1)) >= width) {
      continue;
    }
    if (seen.insert(k).second) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMapDeletionTest, BackwardShiftKeepsClusterReachable) {
  // All keys hash into a narrow window of a 64-slot table, forming one
  // long collision cluster; every erase order must leave the survivors
  // reachable (backward-shift deletion has no tombstones to hide bugs).
  FlatMap<uint32_t> map(32);  // pre-sized: 64 slots, no rehash below 33 keys
  ASSERT_EQ(map.TableSize(), 64u);
  std::vector<uint64_t> keys = ClusteredKeys(24, map.TableSize(), 4, 101);
  for (uint32_t i = 0; i < keys.size(); ++i) map.InsertOrAssign(keys[i], i);

  // Erase from the middle outward (worst case for shift correctness).
  std::vector<size_t> order = {12, 11, 13, 0, 23, 5, 18, 7};
  std::unordered_set<uint64_t> erased;
  for (size_t idx : order) {
    EXPECT_TRUE(map.Erase(keys[idx]));
    erased.insert(keys[idx]);
    for (uint32_t i = 0; i < keys.size(); ++i) {
      const uint32_t* v = map.Find(keys[i]);
      if (erased.count(keys[i])) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i);
      }
    }
  }
  EXPECT_EQ(map.size(), keys.size() - order.size());
}

TEST(FlatMapDeletionTest, RandomChurnMatchesReferenceMap) {
  FlatMap<uint32_t> map(64);
  std::unordered_map<uint64_t, uint32_t> ref;
  Rng rng(7);
  // Small key universe so inserts, overwrites, and erases all hit often.
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng.NextU64() % 97;
    if (rng.NextDouble() < 0.45) {
      uint32_t value = static_cast<uint32_t>(rng.NextU64());
      map.InsertOrAssign(key, value);
      ref[key] = value;
    } else {
      EXPECT_EQ(map.Erase(key), ref.erase(key) > 0) << "step " << step;
    }
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
  }
  for (const auto& [key, value] : ref) {
    const uint32_t* v = map.Find(key);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, value);
  }
}

TEST(FlatMapRehashTest, GrowsUnderLoadAndKeepsAllEntries) {
  FlatMap<uint32_t> map(16);
  const size_t start_table = map.TableSize();
  std::unordered_map<uint64_t, uint32_t> ref;
  Rng rng(13);
  for (uint32_t i = 0; i < 50000; ++i) {
    uint64_t key = rng.NextU64();
    if (key == FlatMap<uint32_t>::kEmpty) continue;
    map.InsertOrAssign(key, i);
    ref[key] = i;
  }
  EXPECT_GT(map.TableSize(), start_table);  // several doublings
  EXPECT_EQ(map.size(), ref.size());
  // Load factor invariant survives every rehash.
  EXPECT_LE(map.size() * 2, map.TableSize());
  for (const auto& [key, value] : ref) {
    const uint32_t* v = map.Find(key);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, value);
  }
}

TEST(FlatMapRehashTest, PreSizedMapNeverRehashes) {
  // The contract SpaceSavingCore's backpointers rely on: a map built
  // with FlatMap(n) keeps its table while at most n keys are present.
  constexpr size_t kCap = 1000;
  FlatMap<uint32_t> map(kCap);
  const size_t table = map.TableSize();
  for (uint32_t i = 0; i < kCap; ++i) map.InsertOrAssign(i, i);
  EXPECT_EQ(map.TableSize(), table);
}

#if DSKETCH_DCHECK_IS_ON
TEST(FlatMapDeathTest, ReservedKeyInsertIsRejected) {
  FlatMap<uint32_t> map(16);
  EXPECT_DEATH(map.InsertOrAssign(FlatMap<uint32_t>::kEmpty, 1),
               "CHECK failed");
}

TEST(FlatMapDeathTest, AssignAtFreePositionIsRejected) {
  FlatMap<uint32_t> map(16);
  const size_t pos =
      map.InsertOrAssignPosHashed(5, FlatMap<uint32_t>::MixedHash(5), 1);
  size_t free_pos = (pos + 1) % map.TableSize();
  ASSERT_EQ(map.KeyAtPos(free_pos), FlatMap<uint32_t>::kEmpty);
  EXPECT_DEATH(map.AssignAtPos(free_pos, 2), "CHECK failed");
}
#endif  // DSKETCH_DCHECK_IS_ON

TEST(FlatMapPositionTest, BackpointersSurviveChurn) {
  // Mirrors SpaceSavingCore's usage: every stored value is also the key
  // of a side table mapping value -> table position, maintained only
  // through InsertOrAssignPosHashed's return and EraseAtPos's on_move
  // hook. After heavy churn every backpointer must still be exact.
  constexpr uint32_t kValues = 300;
  FlatMap<uint32_t> map(kValues);  // pre-sized: no rehash, ever
  std::vector<size_t> pos_of(kValues, FlatMap<uint32_t>::kNpos);
  std::vector<uint64_t> key_of(kValues, 0);
  Rng rng(41);
  for (int step = 0; step < 30000; ++step) {
    uint32_t v = static_cast<uint32_t>(rng.NextU64() % kValues);
    if (pos_of[v] == FlatMap<uint32_t>::kNpos) {
      uint64_t key = rng.NextU64() % 4093;  // collides often
      if (map.Find(key) != nullptr) {
        continue;  // key already labels another value
      }
      pos_of[v] = map.InsertOrAssignPosHashed(
          key, FlatMap<uint32_t>::MixedHash(key), v);
      key_of[v] = key;
    } else {
      ASSERT_EQ(map.KeyAtPos(pos_of[v]), key_of[v]) << "step " << step;
      map.EraseAtPos(pos_of[v], [&](uint32_t moved, size_t new_pos) {
        pos_of[moved] = new_pos;
      });
      pos_of[v] = FlatMap<uint32_t>::kNpos;
    }
  }
  for (uint32_t v = 0; v < kValues; ++v) {
    if (pos_of[v] == FlatMap<uint32_t>::kNpos) continue;
    ASSERT_EQ(map.KeyAtPos(pos_of[v]), key_of[v]);
    const uint32_t* found = map.Find(key_of[v]);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
}

}  // namespace
}  // namespace dsketch
