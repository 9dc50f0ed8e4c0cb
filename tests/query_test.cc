// Tests for query/: attribute tables, predicates, the exact engine as
// ground truth, and the sketch engine's filtered sums and group-bys —
// the paper's motivating SELECT sum() WHERE ... GROUP BY ... workload.

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capi/dsketch.h"
#include "core/frequent_items.h"
#include "core/serialization.h"
#include "core/subset_sum.h"
#include "core/unbiased_space_saving.h"
#include "query/attribute_table.h"
#include "query/engine.h"
#include "query/exact_aggregator.h"
#include "query/frozen_source.h"
#include "query/predicate.h"
#include "query/sketch_source.h"
#include "query/windowed_source.h"
#include "stats/welford.h"
#include "stream/ad_click.h"
#include "util/random.h"

namespace dsketch {
namespace {

AttributeTable SmallTable() {
  AttributeTable table(2);  // dims: {color, size}
  table.AddItem({0, 0});    // item 0: red, small
  table.AddItem({0, 1});    // item 1: red, large
  table.AddItem({1, 0});    // item 2: blue, small
  table.AddItem({1, 1});    // item 3: blue, large
  return table;
}

TEST(AttributeTableTest, StoresTuples) {
  AttributeTable table = SmallTable();
  EXPECT_EQ(table.num_items(), 4u);
  EXPECT_EQ(table.num_dims(), 2u);
  EXPECT_EQ(table.Get(1, 0), 0u);
  EXPECT_EQ(table.Get(1, 1), 1u);
  EXPECT_EQ(table.DimCardinality(0), 2u);
}

TEST(PredicateTest, EmptyMatchesEverything) {
  AttributeTable table = SmallTable();
  Predicate p;
  for (uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(p.Matches(table, i));
}

TEST(PredicateTest, EqAndConjunction) {
  AttributeTable table = SmallTable();
  Predicate red = Predicate().WhereEq(0, 0);
  EXPECT_TRUE(red.Matches(table, 0));
  EXPECT_TRUE(red.Matches(table, 1));
  EXPECT_FALSE(red.Matches(table, 2));

  Predicate red_large = Predicate().WhereEq(0, 0).WhereEq(1, 1);
  EXPECT_FALSE(red_large.Matches(table, 0));
  EXPECT_TRUE(red_large.Matches(table, 1));
}

TEST(PredicateTest, InCondition) {
  AttributeTable table = SmallTable();
  Predicate p = Predicate().WhereIn(0, {0, 1});
  for (uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(p.Matches(table, i));
  Predicate q = Predicate().WhereIn(1, {1});
  EXPECT_FALSE(q.Matches(table, 0));
  EXPECT_TRUE(q.Matches(table, 1));
}

TEST(ExactEngineTest, SumAndGroupBy) {
  AttributeTable table = SmallTable();
  ExactAggregator agg;
  // counts: item0=5, item1=3, item2=2, item3=10
  for (int i = 0; i < 5; ++i) agg.Update(0);
  for (int i = 0; i < 3; ++i) agg.Update(1);
  for (int i = 0; i < 2; ++i) agg.Update(2);
  for (int i = 0; i < 10; ++i) agg.Update(3);

  ExactQueryEngine engine(&agg, &table);
  EXPECT_EQ(engine.Sum(Predicate()), 20);
  EXPECT_EQ(engine.Sum(Predicate().WhereEq(0, 0)), 8);

  auto by_color = engine.GroupBy1(0);
  EXPECT_EQ(by_color[0], 8);
  EXPECT_EQ(by_color[1], 12);

  auto by_both = engine.GroupBy2(0, 1);
  EXPECT_EQ(by_both[PackGroupKey(0, 0)], 5);
  EXPECT_EQ(by_both[PackGroupKey(1, 1)], 10);

  auto filtered = engine.GroupBy1(1, Predicate().WhereEq(0, 1));
  EXPECT_EQ(filtered[0], 2);
  EXPECT_EQ(filtered[1], 10);
}

TEST(SketchEngineTest, MatchesExactWhenSketchIsExact) {
  // Sketch capacity >= distinct items: every estimate is exact, so the
  // approximate engine must coincide with the exact one.
  AttributeTable table = SmallTable();
  ExactAggregator agg;
  UnbiasedSpaceSaving sketch(8, 1);
  Rng rng(180);
  for (int i = 0; i < 1000; ++i) {
    uint64_t item = rng.NextBounded(4);
    agg.Update(item);
    sketch.Update(item);
  }
  ExactQueryEngine exact(&agg, &table);
  SketchQueryEngine approx(&sketch, &table);

  EXPECT_DOUBLE_EQ(approx.Sum(Predicate()).estimate,
                   static_cast<double>(exact.Sum(Predicate())));
  Predicate red = Predicate().WhereEq(0, 0);
  EXPECT_DOUBLE_EQ(approx.Sum(red).estimate,
                   static_cast<double>(exact.Sum(red)));

  auto approx_group = approx.GroupBy1(0);
  auto exact_group = exact.GroupBy1(0);
  for (const auto& [key, truth] : exact_group) {
    EXPECT_DOUBLE_EQ(approx_group[key].estimate,
                     static_cast<double>(truth));
  }
}

TEST(SketchEngineTest, ShardedSourceAnswersTheSameQuerySurface) {
  // Rows fan out across 3 shards; the engine queries the merged snapshot.
  // The totals are preserved exactly through shard + merge, so the
  // unfiltered sum and the group-by total are exact.
  AttributeTable table = SmallTable();
  std::vector<uint64_t> rows;
  Rng rng(184);
  for (int i = 0; i < 5000; ++i) rows.push_back(rng.NextBounded(4));

  ShardedSketchOptions opt;
  opt.num_shards = 3;
  opt.shard_capacity = 8;
  opt.seed = 19;
  ShardedSketchSource source(opt, /*merged_capacity=*/8, /*merge_seed=*/7);
  source.Ingest(Span<const uint64_t>(rows.data(), 2500));
  source.Ingest(Span<const uint64_t>(rows.data() + 2500, 2500));

  SketchQueryEngine engine(&source, &table);
  EXPECT_DOUBLE_EQ(engine.Sum(Predicate()).estimate, 5000.0);
  auto groups = engine.GroupBy1(0);
  double total = 0;
  for (const auto& [key, est] : groups) total += est.estimate;
  EXPECT_NEAR(total, 5000.0, 1e-9);

  // With capacity >= distinct items everything is tracked exactly, so
  // filtered sums match the exact aggregation of the same rows.
  ExactAggregator agg;
  for (uint64_t item : rows) agg.Update(item);
  ExactQueryEngine exact(&agg, &table);
  Predicate red = Predicate().WhereEq(0, 0);
  EXPECT_DOUBLE_EQ(engine.Sum(red).estimate,
                   static_cast<double>(exact.Sum(red)));
}

TEST(SketchEngineTest, GroupByPartitionsTotal) {
  AdClickConfig cfg;
  cfg.num_ads = 3000;
  cfg.num_features = 4;
  cfg.feature_cardinality = 10;
  AdClickGenerator gen(cfg, 181);
  auto log = gen.GenerateLog(/*shuffled=*/true, 182);

  UnbiasedSpaceSaving sketch(256, 2);
  for (const AdImpression& row : log) sketch.Update(row.ad_id);

  SketchQueryEngine engine(&sketch, &gen.attributes());
  auto groups = engine.GroupBy1(0);
  double group_total = 0;
  for (const auto& [key, est] : groups) group_total += est.estimate;
  EXPECT_NEAR(group_total, static_cast<double>(gen.total_impressions()),
              1e-6);
}

TEST(SketchEngineTest, FilteredSumsAreUnbiased) {
  AdClickConfig cfg;
  cfg.num_ads = 800;
  cfg.num_features = 3;
  cfg.feature_cardinality = 6;
  cfg.weibull_scale = 20.0;
  AdClickGenerator gen(cfg, 183);

  // Truth for filter feature0 == 2.
  Predicate filter = Predicate().WhereEq(0, 2);
  double truth = 0;
  for (size_t ad = 0; ad < cfg.num_ads; ++ad) {
    if (filter.Matches(gen.attributes(), ad)) {
      truth += static_cast<double>(gen.impressions_per_ad()[ad]);
    }
  }
  ASSERT_GT(truth, 0);

  Welford est;
  for (int t = 0; t < 1500; ++t) {
    auto log = gen.GenerateLog(/*shuffled=*/true, 270000 + t);
    UnbiasedSpaceSaving sketch(64, 280000 + t);
    for (const AdImpression& row : log) sketch.Update(row.ad_id);
    SketchQueryEngine engine(&sketch, &gen.attributes());
    est.Add(engine.Sum(filter).estimate);
  }
  EXPECT_NEAR(est.mean(), truth, 5 * est.stderr_mean());
}

TEST(SketchEngineTest, GroupByVarianceMatchesSubsetFormula) {
  AttributeTable table = SmallTable();
  UnbiasedSpaceSaving sketch(4, 3);
  sketch.core().LoadEntries({{0, 10}, {1, 20}, {2, 30}, {3, 40}});
  SketchQueryEngine engine(&sketch, &table);
  auto groups = engine.GroupBy1(0);
  // Group "red" = items {0,1}: estimate 30, C_S=2, Nmin=10.
  EXPECT_DOUBLE_EQ(groups[0].estimate, 30.0);
  EXPECT_EQ(groups[0].items_in_sample, 2u);
  EXPECT_DOUBLE_EQ(groups[0].variance, 200.0);
}

TEST(SketchEngineTest, ShardedSourceRestoresSnapshot) {
  AttributeTable table = SmallTable();
  std::vector<uint64_t> rows;
  Rng rng(190);
  for (int i = 0; i < 2000; ++i) rows.push_back(rng.NextBounded(4));
  UnbiasedSpaceSaving saved(8, 5);
  saved.UpdateBatch(rows);
  ExactAggregator agg;
  for (uint64_t item : rows) agg.Update(item);
  ExactQueryEngine exact(&agg, &table);

  ShardedSketchOptions opts;
  opts.num_shards = 2;
  opts.shard_capacity = 64;
  opts.seed = 11;
  ShardedSketchSource source(opts, 64, 12);
  SketchQueryEngine engine(&source, &table);

  // The absorbed blob joins the shard set; capacity 64 >= 4 distinct
  // items, so every total read through the engine is exact.
  ASSERT_TRUE(source.RestoreSnapshot(Serialize(saved)));
  EXPECT_EQ(source.sharded().num_absorbed(), 1u);
  Predicate red = Predicate().WhereEq(0, 0);
  EXPECT_DOUBLE_EQ(engine.Sum(Predicate()).estimate, 2000.0);
  EXPECT_DOUBLE_EQ(engine.Sum(red).estimate,
                   static_cast<double>(exact.Sum(red)));

  // Malformed bytes are rejected without touching state.
  EXPECT_FALSE(source.RestoreSnapshot("garbage"));
  EXPECT_EQ(source.sharded().num_absorbed(), 1u);
  EXPECT_DOUBLE_EQ(engine.Sum(Predicate()).estimate, 2000.0);

  // The restored source keeps ingesting.
  source.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
  EXPECT_DOUBLE_EQ(engine.Sum(Predicate()).estimate, 4000.0);
  EXPECT_DOUBLE_EQ(engine.Sum(red).estimate,
                   2.0 * static_cast<double>(exact.Sum(red)));
}

// ---- The in-place query kernel against its definition ----
//
// The reference below is the plain definition of every answer: the
// sketch's Entries(), Predicate::Matches, and a double accumulation in
// entry order with eq. 5 per subset. The engine's compiled predicate,
// integer kernel and group table — over live sketches, frozen images,
// window views and the C ABI — must reproduce it bit for bit.

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void ExpectSame(const SubsetSumEstimate& got, const SubsetSumEstimate& want,
                const std::string& what) {
  EXPECT_EQ(Bits(got.estimate), Bits(want.estimate))
      << what << ": " << got.estimate << " vs " << want.estimate;
  EXPECT_EQ(Bits(got.variance), Bits(want.variance)) << what;
  EXPECT_EQ(got.items_in_sample, want.items_in_sample) << what;
}

SubsetSumEstimate ReferenceSum(const std::vector<SketchEntry>& entries,
                               int64_t min_count,
                               const std::function<bool(uint64_t)>& in) {
  SubsetSumEstimate out;
  for (const SketchEntry& e : entries) {
    if (in(e.item)) {
      out.estimate += static_cast<double>(e.count);
      ++out.items_in_sample;
    }
  }
  const double nmin = static_cast<double>(min_count);
  out.variance = nmin * nmin *
                 static_cast<double>(std::max<uint64_t>(1, out.items_in_sample));
  return out;
}

SubsetSumEstimate ReferenceSum(const UnbiasedSpaceSaving& sketch,
                               const AttributeTable& table,
                               const Predicate& where) {
  return ReferenceSum(sketch.Entries(), sketch.MinCount(),
                      [&](uint64_t item) { return where.Matches(table, item); });
}

// Group key -> estimate; items the table does not describe join no group.
std::map<uint64_t, SubsetSumEstimate> ReferenceGroupBy(
    const UnbiasedSpaceSaving& sketch, const AttributeTable& table,
    const Predicate& where, const std::function<uint64_t(uint64_t)>& key_of) {
  const std::vector<SketchEntry> entries = sketch.Entries();
  auto member = [&](uint64_t item) {
    return item < table.num_items() && where.Matches(table, item);
  };
  std::map<uint64_t, SubsetSumEstimate> out;
  for (const SketchEntry& e : entries) {
    if (!member(e.item) || out.count(key_of(e.item)) != 0) continue;
    const uint64_t key = key_of(e.item);
    out[key] = ReferenceSum(entries, sketch.MinCount(), [&](uint64_t item) {
      return member(item) && key_of(item) == key;
    });
  }
  return out;
}

template <typename Map>
void ExpectSameGroups(const Map& got,
                      const std::map<uint64_t, SubsetSumEstimate>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (const auto& [key, est] : want) {
    const auto it = got.find(static_cast<typename Map::key_type>(key));
    ASSERT_NE(it, got.end()) << what << " key " << key;
    ExpectSame(it->second, est, what + " key " + std::to_string(key));
  }
}

// 1 to 3 dimensions of 1 to 300 values, and one table in ten empty. One
// dimension in four spreads its values evenly up to 0xFFFFFFFE, so
// conditions on it compile to sorted lists and group keys are large.
AttributeTable RandomTable(Rng& rng) {
  const size_t dims = 1 + static_cast<size_t>(rng.NextBounded(3));
  std::vector<uint64_t> cardinality(dims);
  std::vector<uint32_t> stride(dims);
  for (size_t d = 0; d < dims; ++d) {
    cardinality[d] = 1 + rng.NextBounded(rng.NextBernoulli(0.5) ? 4 : 300);
    stride[d] = rng.NextBounded(4) == 0
                    ? static_cast<uint32_t>(0xFFFFFFFEu / cardinality[d])
                    : 1;
  }
  AttributeTable table(dims);
  const size_t items =
      rng.NextBernoulli(0.1) ? 0 : static_cast<size_t>(rng.NextBounded(200));
  std::vector<uint32_t> row(dims);
  for (size_t i = 0; i < items; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      row[d] = static_cast<uint32_t>(rng.NextBounded(cardinality[d])) * stride[d];
    }
    table.AddItem(row);
  }
  return table;
}

// Conditions mix values the table holds, values missing from it, values
// at and above the cardinality (0xFFFFFFFF included), WhereEq and WhereIn
// on one dimension; one predicate in eight has 64 conditions, most of
// them naming every value of their dimension, so the conjunction still
// matches items.
Predicate RandomPredicate(Rng& rng, const AttributeTable& table) {
  const size_t n = rng.NextBounded(8) == 0
                       ? 64
                       : static_cast<size_t>(rng.NextBounded(4));
  Predicate where;
  for (size_t c = 0; c < n; ++c) {
    const size_t dim = static_cast<size_t>(rng.NextBounded(table.num_dims()));
    const uint64_t card = table.DimCardinality(dim);
    auto value = [&]() -> uint32_t {
      switch (rng.NextBounded(5)) {
        case 0:
          return 0xFFFFFFFFu;
        case 1:
          return static_cast<uint32_t>(card);
        case 2:
          if (table.num_items() > 0) {
            return table.Get(rng.NextBounded(table.num_items()), dim);
          }
          return 0;
        default:
          return static_cast<uint32_t>(rng.NextBounded(card + 2));
      }
    };
    if (n == 64 && rng.NextBounded(8) != 0) {
      std::vector<uint32_t> all = {0xFFFFFFFFu};
      for (uint64_t item = 0; item < table.num_items(); ++item) {
        all.push_back(table.Get(item, dim));
      }
      where.WhereIn(dim, all);
    } else if (rng.NextBernoulli(0.4)) {
      where.WhereEq(dim, value());
    } else {
      std::vector<uint32_t> values(1 + rng.NextBounded(6));
      for (uint32_t& v : values) v = value();
      where.WhereIn(dim, values);
    }
  }
  return where;
}

// Up to 64 bins over items that run 40 past the table; one in ten empty.
UnbiasedSpaceSaving RandomSketch(Rng& rng, const AttributeTable& table,
                                 uint64_t seed) {
  UnbiasedSpaceSaving sketch(1 + rng.NextBounded(64), seed);
  const size_t rows =
      rng.NextBernoulli(0.1) ? 0 : static_cast<size_t>(rng.NextBounded(3000));
  const uint64_t universe = table.num_items() + 40;
  for (size_t r = 0; r < rows; ++r) {
    // Squared uniform: a skewed stream, so bins hold varied counts.
    const double u = rng.NextDouble();
    sketch.Update(static_cast<uint64_t>(u * u * static_cast<double>(universe)));
  }
  return sketch;
}

TEST(QueryKernelTest, CompiledPredicateAgreesWithMatches) {
  Rng rng(2301);
  for (int trial = 0; trial < 200; ++trial) {
    const AttributeTable table = RandomTable(rng);
    const Predicate where = RandomPredicate(rng, table);
    const CompiledPredicate compiled = where.Compile(table);
    for (uint64_t item = 0; item < table.num_items() + 40; ++item) {
      ASSERT_EQ(compiled.Matches(item), where.Matches(table, item))
          << "trial " << trial << " item " << item;
    }
    EXPECT_EQ(compiled.Matches(~uint64_t{0}), where.Matches(table, ~uint64_t{0}));
  }
}

TEST(QueryKernelTest, EngineAnswersMatchTheReferenceBitForBit) {
  Rng rng(2302);
  for (int trial = 0; trial < 150; ++trial) {
    const AttributeTable table = RandomTable(rng);
    const UnbiasedSpaceSaving sketch = RandomSketch(rng, table, 7 + trial);
    const std::string image = SerializeFrozen(sketch);
    std::optional<FrozenSketchSource> frozen = FrozenSketchSource::FromBlob(image);
    ASSERT_TRUE(frozen.has_value());
    const SketchQueryEngine live(&sketch, &table);
    const SketchQueryEngine replica(&*frozen, &table);
    const uint64_t universe = table.num_items() + 40;
    const size_t dims = table.num_dims();
    for (int q = 0; q < 4; ++q) {
      const Predicate where = RandomPredicate(rng, table);
      const std::string what =
          "trial " + std::to_string(trial) + " query " + std::to_string(q);
      const SubsetSumEstimate want = ReferenceSum(sketch, table, where);
      ExpectSame(live.Sum(where), want, what + " Sum");
      ExpectSame(replica.Sum(where), want, what + " frozen Sum");

      // The C ABI sums an explicit item set: the predicate's members.
      std::vector<uint64_t> members;
      for (uint64_t item = 0; item < universe; ++item) {
        if (where.Matches(table, item)) members.push_back(item);
      }
      dsketch_frozen_sum c_sum;
      ASSERT_EQ(dsketch_frozen_query_sum(image.data(), image.size(),
                                         members.data(), members.size(),
                                         &c_sum),
                1);
      ExpectSame({c_sum.estimate, c_sum.variance, c_sum.items_in_sample},
                 want, what + " capi sum");

      const size_t d1 = static_cast<size_t>(rng.NextBounded(dims));
      const size_t d2 = static_cast<size_t>(rng.NextBounded(dims));
      const auto key1 = [&](uint64_t item) {
        return uint64_t{table.Get(item, d1)};
      };
      const auto key2 = [&](uint64_t item) {
        return PackGroupKey(table.Get(item, d1), table.Get(item, d2));
      };
      const auto want1 = ReferenceGroupBy(sketch, table, where, key1);
      const auto want2 = ReferenceGroupBy(sketch, table, where, key2);
      ExpectSameGroups(live.GroupBy1(d1, where), want1, what + " GroupBy1");
      ExpectSameGroups(replica.GroupBy1(d1, where), want1,
                       what + " frozen GroupBy1");
      ExpectSameGroups(live.GroupBy2(d1, d2, where), want2, what + " GroupBy2");
      ExpectSameGroups(replica.GroupBy2(d1, d2, where), want2,
                       what + " frozen GroupBy2");
    }
  }
}

TEST(QueryKernelTest, GroupBy2KeepsTheAllOnesKey) {
  // PackGroupKey(0xFFFFFFFF, 0xFFFFFFFF) — the empty-slot key of the
  // library's own hash map — is a group like any other.
  AttributeTable table(3);
  for (uint32_t i = 0; i < 60; ++i) {
    const uint32_t a = i % 3 == 0 ? 0xFFFFFFFFu : i % 5;
    const uint32_t b = i % 3 == 0 ? 0xFFFFFFFFu : i % 7;
    table.AddItem({a, b, i % 4});
  }
  UnbiasedSpaceSaving sketch(32, 5);
  Rng rng(2303);
  for (int r = 0; r < 4000; ++r) sketch.Update(rng.NextBounded(70));
  const SketchQueryEngine live(&sketch, &table);
  const std::optional<FrozenSketchSource> frozen =
      FrozenSketchSource::FromBlob(SerializeFrozen(sketch));
  ASSERT_TRUE(frozen.has_value());
  const SketchQueryEngine replica(&*frozen, &table);
  const auto key = [&](uint64_t item) {
    return PackGroupKey(table.Get(item, 0), table.Get(item, 1));
  };
  for (const Predicate& where :
       {Predicate(), Predicate().WhereIn(2, {0, 1}), Predicate().WhereEq(2, 3)}) {
    const auto want = ReferenceGroupBy(sketch, table, where, key);
    ASSERT_EQ(want.count(~uint64_t{0}), 1u);
    ExpectSameGroups(live.GroupBy2(0, 1, where), want, "live");
    ExpectSameGroups(replica.GroupBy2(0, 1, where), want, "frozen");
  }
}

TEST(QueryKernelTest, SumWindowMatchesTheReference) {
  Rng rng(2304);
  AttributeTable table(2);
  for (uint32_t i = 0; i < 150; ++i) table.AddItem({i % 6, i % 11});
  ShardedSketchOptions shard;
  shard.num_shards = 2;
  shard.seed = 23;
  WindowedSketchOptions window;
  window.window_epochs = 4;
  window.epoch_capacity = 32;
  window.merged_capacity = 48;
  WindowedSketchSource source(shard, window);
  const SketchQueryEngine engine(&source, &table);
  for (uint64_t epoch = 0; epoch < 7; ++epoch) {
    source.Advance(epoch);
    std::vector<uint64_t> rows(200 + rng.NextBounded(400));
    for (uint64_t& item : rows) item = rng.NextBounded(190);
    source.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
    for (size_t last_k : {0, 1, 2, 9}) {
      for (int q = 0; q < 3; ++q) {
        const Predicate where = RandomPredicate(rng, table);
        const SubsetSumEstimate got = engine.SumWindow(last_k, where);
        ExpectSame(got, ReferenceSum(source.WindowView(last_k), table, where),
                   "epoch " + std::to_string(epoch) + " last_k " +
                       std::to_string(last_k));
      }
    }
  }
}

TEST(QueryKernelTest, ConditionsOnAnEmptyTableMatchNothing) {
  const AttributeTable empty(2);
  EXPECT_EQ(empty.DimCardinality(0), 0u);
  UnbiasedSpaceSaving sketch(8, 3);
  for (uint64_t i = 0; i < 50; ++i) sketch.Update(i % 5);
  const SketchQueryEngine engine(&sketch, &empty);
  const Predicate where = Predicate().WhereEq(1, 0);
  EXPECT_FALSE(where.Compile(empty).Matches(0));
  EXPECT_TRUE(Predicate().Compile(empty).Matches(0));
  ExpectSame(engine.Sum(where), ReferenceSum(sketch, empty, where), "sum");
  EXPECT_EQ(engine.Sum(where).items_in_sample, 0u);
  EXPECT_DOUBLE_EQ(engine.Sum(Predicate()).estimate, 50.0);
  EXPECT_TRUE(engine.GroupBy1(0).empty());
  EXPECT_TRUE(engine.GroupBy2(0, 1, where).empty());
}

TEST(QueryKernelTest, HostilePredicateCompilesWithinTheTable) {
  // 64 conditions of 2^16 values spread up to UINT32_MAX: each compiled
  // condition keeps only the values the table can hold.
  AttributeTable table(2);
  for (uint32_t i = 0; i < 1000; ++i) table.AddItem({i % 16, i % 300});
  Predicate where;
  for (size_t c = 0; c < 64; ++c) {
    std::vector<uint32_t> values(65536);
    for (uint32_t i = 0; i < values.size(); ++i) values[i] = i * 65537u;
    values[0] = 3;
    values[1] = static_cast<uint32_t>(c % 2 == 0 ? 5 : 7);
    where.WhereIn(c % 2, values);
  }
  const CompiledPredicate compiled = where.Compile(table);
  ASSERT_EQ(compiled.num_conditions(), 64u);
  for (size_t c = 0; c < 64; ++c) {
    const uint64_t card = table.DimCardinality(c % 2);
    EXPECT_LE(compiled.condition_bytes(c), 8 * ((card + 63) / 64)) << c;
    // Below the cardinality each condition names only 3 and 5 or 7.
    EXPECT_EQ(compiled.condition_bytes(c), 8u) << c;
  }
  size_t matched = 0;
  for (uint64_t item = 0; item < 1100; ++item) {
    ASSERT_EQ(compiled.Matches(item), where.Matches(table, item)) << item;
    matched += compiled.Matches(item) ? 1 : 0;
  }
  EXPECT_GT(matched, 0u);
}

TEST(QueryKernelTest, ValuesNearTheTopCostNoMoreThanTheRequest) {
  // The table holds values up to 0xFFFFFFFE, so no named value is dropped
  // for being past the cardinality: each condition's memory must follow
  // the values it names, not how large they are.
  AttributeTable table(1);
  for (uint32_t i = 0; i < 200; ++i) {
    table.AddItem({i % 2 == 0 ? 0xFFFFFFFEu - i : i});
  }
  ASSERT_EQ(table.DimCardinality(0), 0xFFFFFFFFu);
  std::vector<Predicate> alone(64);
  Predicate all;
  size_t named = 0;
  for (uint32_t c = 0; c < 64; ++c) {
    std::vector<uint32_t> values;
    switch (c % 3) {
      case 0:  // one large id
        values.push_back(0xFFFFFFFEu - 2 * c);
        break;
      case 1:  // a sparse pair, far apart
        values.push_back(c);
        values.push_back(0xFFFFFFFEu - 2 * c);
        break;
      default:  // a dense run just below the top
        for (uint32_t v = 0xFFFFFFFEu - 99; v <= 0xFFFFFFFEu; ++v) {
          values.push_back(v);
        }
    }
    named += values.size();
    alone[c].WhereIn(0, values);
    all.WhereIn(0, values);
  }
  const CompiledPredicate compiled = all.Compile(table);
  ASSERT_EQ(compiled.num_conditions(), 64u);
  size_t bytes = 0;
  for (size_t c = 0; c < 64; ++c) bytes += compiled.condition_bytes(c);
  EXPECT_LE(bytes, 8 * named);  // twice the request's 4 bytes per value
  for (size_t c = 0; c < 64; ++c) {
    const CompiledPredicate one = alone[c].Compile(table);
    EXPECT_LE(one.condition_bytes(0), c % 3 == 2 ? 16u : 8u) << c;
    size_t matched = 0;
    for (uint64_t item = 0; item < 210; ++item) {
      ASSERT_EQ(one.Matches(item), alone[c].Matches(table, item))
          << c << " " << item;
      matched += one.Matches(item) ? 1 : 0;
    }
    EXPECT_GT(matched, 0u) << c;
  }
  for (uint64_t item = 0; item < 210; ++item) {
    ASSERT_EQ(compiled.Matches(item), all.Matches(table, item)) << item;
  }
}

TEST(AttributeTableTest, CardinalityCoversTheLargestValue) {
  AttributeTable table(2);
  table.AddItem({3, 0xFFFFFFFFu});
  table.AddItem({9, 1});
  EXPECT_EQ(table.DimCardinality(0), 10u);
  EXPECT_EQ(table.DimCardinality(1), uint64_t{1} << 32);
}

TEST(BinWalkTest, TopKEdgesReadTheFirstBins) {
  UnbiasedSpaceSaving sketch(16, 9);
  for (uint64_t i = 0; i < 400; ++i) sketch.Update((i * i) % 23);
  const std::vector<SketchEntry> entries = sketch.Entries();
  ASSERT_EQ(entries.size(), sketch.size());
  const std::optional<FrozenSketchSource> frozen =
      FrozenSketchSource::FromBlob(SerializeFrozen(sketch));
  ASSERT_TRUE(frozen.has_value());
  const std::optional<UnbiasedSpaceSaving> thawed =
      ThawFrozen(frozen->frozen().bytes(), 1);
  ASSERT_TRUE(thawed.has_value());
  for (size_t k : {size_t{1}, sketch.size() - 1, sketch.size(),
                   sketch.size() + 1, size_t{1000}}) {
    const std::vector<SketchEntry> top = TopK(sketch, k);
    ASSERT_EQ(top.size(), std::min(k, entries.size())) << k;
    EXPECT_TRUE(std::equal(top.begin(), top.end(), entries.begin())) << k;
    EXPECT_EQ(FrozenTopK(frozen->frozen(), k), TopK(*thawed, k)) << k;
  }
  const UnbiasedSpaceSaving empty(8, 1);
  EXPECT_TRUE(TopK(empty, 1).empty());
  EXPECT_TRUE(TopK(empty, 5).empty());
  const std::optional<FrozenSketchSource> empty_image =
      FrozenSketchSource::FromBlob(SerializeFrozen(empty));
  ASSERT_TRUE(empty_image.has_value());
  EXPECT_TRUE(FrozenTopK(empty_image->frozen(), 3).empty());
}

TEST(BinWalkTest, ForEachEntryStopsWhenTheVisitorSaysSo) {
  UnbiasedSpaceSaving sketch(16, 9);
  for (uint64_t i = 0; i < 400; ++i) sketch.Update(i % 13);
  const std::vector<SketchEntry> entries = sketch.Entries();
  ASSERT_GE(entries.size(), 5u);
  std::vector<SketchEntry> seen;
  sketch.ForEachEntry([&](uint64_t item, int64_t count) {
    seen.push_back({item, count});
    return seen.size() < 3;
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(std::equal(seen.begin(), seen.end(), entries.begin()));

  const std::string image = SerializeFrozen(sketch);
  const std::optional<wire::FrozenView> view = wire::FrozenView::Vet(image);
  ASSERT_TRUE(view.has_value());
  size_t visits = 0;
  view->ForEachEntry([&](uint64_t, int64_t) { return ++visits < 4; });
  EXPECT_EQ(visits, 4u);

  // A visitor that never stops sees every bin, in Entries() order.
  seen.clear();
  sketch.ForEachEntry([&](uint64_t item, int64_t count) {
    seen.push_back({item, count});
    return true;
  });
  EXPECT_EQ(seen, entries);
}

}  // namespace
}  // namespace dsketch
