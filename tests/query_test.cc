// Tests for query/: attribute tables, predicates, the exact engine as
// ground truth, and the sketch engine's filtered sums and group-bys —
// the paper's motivating SELECT sum() WHERE ... GROUP BY ... workload.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "core/unbiased_space_saving.h"
#include "query/attribute_table.h"
#include "query/engine.h"
#include "query/exact_aggregator.h"
#include "query/predicate.h"
#include "query/sketch_source.h"
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

}  // namespace
}  // namespace dsketch
