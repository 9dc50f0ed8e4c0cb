// Ingestion-path throughput: the §6.7 cost claims (O(1) Space Saving
// updates, amortized O(1) Misra-Gries, O(log m) weighted updates) plus
// the two sweeps behind the batched/sharded ingestion pipeline:
//
//   * row_vs_batch   — per-row Update vs UpdateBatch across sketch sizes
//                      (4096 to 10^6 bins, plus 4*10^6 with --full=1) and
//                      workload shapes;
//   * batch_size     — UpdateBatch throughput as a function of the batch
//                      the caller hands over;
//   * shard_scaling  — ShardedSketch ingest throughput vs shard count
//                      (bounded by hardware_concurrency, recorded in the
//                      output's machine record for interpretation);
//   * micro          — per-sketch single-row update costs, merge cost,
//                      and query cost;
//   * shard_merge_us — ShardedSketch::Snapshot of 2, 4 and 32
//                      hash-partitioned 4096-bin shards into 4096 bins
//                      (the merge behind every fresh served query), Zipf
//                      1.1 over 1M items; median and min-max over 21
//                      merges, each fleet checked against MergeAll.
//
// Every rows/s figure (row_vs_batch, batch_size, shard_scaling and the
// update rows of micro) is the median and min-max over --reps runs; a
// delta smaller than that range is noise.
//
// Flags: --rows=N stream length, --reps=N runs behind each median and
// range (default 7), --json=PATH writes machine-readable baselines
// (recorded as BENCH_throughput.json by bench/record_baselines.sh).
// The 4*10^6-bin configurations run by default; pass --full=0
// --rows=2000000 --reps=1 for a quick run.
//
// --smoke replaces the sweeps with a CI correctness gate: UpdateBatch's
// one body at a cache-resident and a larger sketch, asserting batch
// ingestion is bit-identical to per-row updates and that throughput is
// sane (> 0), and a small shard_merge run whose fleet snapshots must
// equal MergeAll over their parts byte for byte, exiting nonzero
// otherwise.
//
// Every JSON output starts with the "machine" record bench_util.h writes
// (hardware threads, compiler) and a "params" record (rows, reps) so
// recorded baselines say what machine state produced them.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/deterministic_space_saving.h"
#include "core/merge.h"
#include "core/serialization.h"
#include "core/subset_sum.h"
#include "core/unbiased_space_saving.h"
#include "core/weighted_space_saving.h"
#include "frequency/count_min.h"
#include "frequency/misra_gries.h"
#include "sampling/bottom_k.h"
#include "sampling/sample_and_hold.h"
#include "shard/sharded_sketch.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/alias.h"
#include "util/random.h"
#include "util/span.h"

namespace dsketch {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median and range of rows/s (in millions) over `reps` runs of `fn`.
template <typename Fn>
bench::Spread SpreadMrows(size_t rows, int reps, Fn&& fn) {
  std::vector<double> mrows;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    fn();
    mrows.push_back(static_cast<double>(rows) / Seconds(t0) / 1e6);
  }
  return bench::SpreadOf(std::move(mrows));
}

struct Workload {
  const char* name;
  std::vector<uint64_t> rows;
};

void RowVsBatchSweep(const std::vector<Workload>& workloads,
                     const std::vector<size_t>& sizes, int reps,
                     bench::JsonSink& sink) {
  std::printf("\n-- row_vs_batch: per-row Update vs UpdateBatch "
              "(median Mrows/s, min-max) --\n");
  std::printf("%-10s %-9s %25s %25s %9s\n", "workload", "m", "row",
              "batch", "speedup");
  for (const Workload& w : workloads) {
    for (size_t m : sizes) {
      const bench::Spread row = SpreadMrows(w.rows.size(), reps, [&] {
        UnbiasedSpaceSaving s(m, 2);
        for (uint64_t x : w.rows) s.Update(x);
      });
      const bench::Spread batch = SpreadMrows(w.rows.size(), reps, [&] {
        UnbiasedSpaceSaving s(m, 2);
        s.UpdateBatch(w.rows);
      });
      const double speedup = batch.median / row.median;
      std::printf("%-10s %-9zu %8.1f (%6.1f-%6.1f) %8.1f (%6.1f-%6.1f) "
                  "%8.2fx\n",
                  w.name, m, row.median, row.min, row.max, batch.median,
                  batch.min, batch.max, speedup);
      if (sink.enabled()) {
        sink.BeginRecord("row_vs_batch");
        sink.Add("workload", w.name);
        sink.Add("m", static_cast<int64_t>(m));
        sink.Add("reps", static_cast<int64_t>(reps));
        sink.Add("row_mrows", row);
        sink.Add("batch_mrows", batch);
        sink.Add("speedup", speedup);
      }
    }
  }
}

void BatchSizeSweep(const Workload& w, size_t m, int reps,
                    bench::JsonSink& sink) {
  std::printf("\n-- batch_size: UpdateBatch chunk size (m=%zu, %s) --\n", m,
              w.name);
  std::printf("%-10s %12s %17s\n", "batch", "median Mr/s", "(min-max)");
  for (size_t batch : {size_t{64}, size_t{256}, size_t{1024}, size_t{8192},
                       size_t{65536}, w.rows.size()}) {
    const bench::Spread mrows = SpreadMrows(w.rows.size(), reps, [&] {
      UnbiasedSpaceSaving s(m, 2);
      Span<const uint64_t> all(w.rows);
      for (size_t pos = 0; pos < all.size(); pos += batch) {
        s.UpdateBatch(all.subspan(pos, batch));
      }
    });
    std::printf("%-10zu %12.1f  (%6.1f-%6.1f)\n", batch, mrows.median,
                mrows.min, mrows.max);
    if (sink.enabled()) {
      sink.BeginRecord("batch_size");
      sink.Add("workload", w.name);
      sink.Add("m", static_cast<int64_t>(m));
      sink.Add("batch_size", static_cast<int64_t>(batch));
      sink.Add("reps", static_cast<int64_t>(reps));
      sink.Add("mrows", mrows);
    }
  }
}

void ShardScalingSweep(const Workload& w, size_t shard_capacity, int reps,
                       bench::JsonSink& sink) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "\n-- shard_scaling: ShardedSketch ingest (%s, %u hardware threads;\n"
      "   scaling is bounded by the hardware thread count) --\n",
      w.name, hw);
  std::printf("%-8s %12s %17s %10s\n", "shards", "median Mr/s",
              "(min-max)", "vs 1shard");
  double base = 0;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const bench::Spread mrows = SpreadMrows(w.rows.size(), reps, [&] {
      ShardedSketchOptions opt;
      opt.num_shards = shards;
      opt.shard_capacity = shard_capacity;
      opt.queue_capacity = 1 << 16;
      opt.batch_size = 4096;
      opt.seed = 3;
      ShardedSpaceSaving sharded(opt);
      Span<const uint64_t> all(w.rows);
      constexpr size_t kIngest = 1 << 15;
      for (size_t pos = 0; pos < all.size(); pos += kIngest) {
        sharded.Ingest(all.subspan(pos, kIngest));
      }
      sharded.Flush();
    });
    if (shards == 1) base = mrows.median;
    std::printf("%-8zu %12.1f  (%6.1f-%6.1f) %9.2fx\n", shards, mrows.median,
                mrows.min, mrows.max, mrows.median / base);
    if (sink.enabled()) {
      sink.BeginRecord("shard_scaling");
      sink.Add("workload", w.name);
      sink.Add("shards", static_cast<int64_t>(shards));
      sink.Add("shard_capacity", static_cast<int64_t>(shard_capacity));
      sink.Add("reps", static_cast<int64_t>(reps));
      sink.Add("mrows", mrows);
      sink.Add("scaling_vs_1shard", mrows.median / base);
    }
  }
}

void MicroBenches(const Workload& w, int reps, bench::JsonSink& sink) {
  std::printf("\n-- micro: per-row update cost of every sketch --\n");
  std::printf("%-24s %-8s %12s %17s\n", "sketch", "m", "median Mr/s",
              "(min-max)");
  const std::vector<uint64_t>& rows = w.rows;
  // Times `fn` (one full pass over `rows`) `reps` times and reports the
  // median and range.
  auto report = [&](const char* name, size_t m, auto&& fn) {
    const bench::Spread mrows = SpreadMrows(rows.size(), reps, fn);
    std::printf("%-24s %-8zu %12.1f  (%6.1f-%6.1f)\n", name, m, mrows.median,
                mrows.min, mrows.max);
    if (sink.enabled()) {
      sink.BeginRecord("micro");
      sink.Add("name", name);
      sink.Add("m", static_cast<int64_t>(m));
      sink.Add("reps", static_cast<int64_t>(reps));
      sink.Add("mrows", mrows);
    }
  };
  for (size_t m : {size_t{100}, size_t{1000}, size_t{10000}}) {
    report("unbiased_update", m, [&] {
      UnbiasedSpaceSaving s(m, 2);
      for (uint64_t x : rows) s.Update(x);
    });
  }
  report("deterministic_update", 1000, [&] {
    DeterministicSpaceSaving s(1000, 3);
    for (uint64_t x : rows) s.Update(x);
  });
  report("misra_gries_update", 1000, [&] {
    MisraGries s(1000);
    for (uint64_t x : rows) s.Update(x);
  });
  report("weighted_update", 1000, [&] {
    WeightedSpaceSaving s(1000, 4);
    for (uint64_t x : rows) s.Update(x, 1.0);
  });
  report("weighted_update_batch", 1000, [&] {
    WeightedSpaceSaving s(1000, 4);
    s.UpdateBatch(rows, 1.0);
  });
  report("sample_and_hold_update", 1000, [&] {
    AdaptiveSampleAndHold s(1000, 5);
    for (uint64_t x : rows) s.Update(x);
  });
  report("bottom_k_update", 1000, [&] {
    BottomKSampler s(1000, 6);
    for (uint64_t x : rows) s.Update(x);
  });
  report("count_min_update", 1024, [&] {
    CountMin s(1024, 4, 7);
    for (uint64_t x : rows) s.Update(x);
  });

  std::printf("\n-- micro: merge and query cost --\n");
  for (size_t m : {size_t{1000}, size_t{10000}}) {
    UnbiasedSpaceSaving a(m, 8), b(m, 9);
    const size_t half = rows.size() / 2;
    a.UpdateBatch(Span<const uint64_t>(rows.data(), half));
    b.UpdateBatch(Span<const uint64_t>(rows.data() + half, half));
    const int merges = 20;
    uint64_t seed = 10;
    auto t0 = Clock::now();
    for (int i = 0; i < merges; ++i) {
      UnbiasedSpaceSaving merged = Merge(a, b, m, seed++);
      if (merged.TotalCount() < 0) std::abort();  // keep the work alive
    }
    double ms = Seconds(t0) * 1e3 / merges;
    std::printf("%-24s %-8zu %10.2f ms\n", "unbiased_merge", m, ms);
    if (sink.enabled()) {
      sink.BeginRecord("micro");
      sink.Add("name", "unbiased_merge_ms");
      sink.Add("m", static_cast<int64_t>(m));
      sink.Add("ms", ms);
    }

    const int queries = 200;
    t0 = Clock::now();
    double acc = 0;
    for (int i = 0; i < queries; ++i) {
      acc += EstimateSubsetSum(a, [](uint64_t item) {
               return item % 3 == 0;
             }).estimate;
    }
    double us = Seconds(t0) * 1e6 / queries;
    std::printf("%-24s %-8zu %10.2f us  (acc %.0f)\n", "subset_sum_query", m,
                us, acc);
    if (sink.enabled()) {
      sink.BeginRecord("micro");
      sink.Add("name", "subset_sum_query_us");
      sink.Add("m", static_cast<int64_t>(m));
      sink.Add("us", us);
    }
  }
}

// The service's fresh-query merge: ShardedSketch::Snapshot of a fleet of
// 4096-bin shards into 4096 bins, at 2, 4 and 32 shards. Zipf 1.1 over
// 1M items, ids scattered by a permutation. Each fleet's snapshot is
// also checked against MergeAll over its parts, byte for byte; returns
// the number of fleets whose bytes differ.
constexpr size_t kShardMergeBins = 4096;

int ShardMergeBench(size_t rows_n, int reps, bench::JsonSink& sink) {
  constexpr size_t kItems = 1000000;
  std::vector<double> weights(kItems);
  for (size_t r = 0; r < kItems; ++r) {
    weights[r] = std::pow(static_cast<double>(r + 1), -1.1);
  }
  AliasTable table(weights);
  std::vector<uint64_t> item_of_rank(kItems);
  for (size_t i = 0; i < kItems; ++i) item_of_rank[i] = i;
  Rng rng(11);
  rng.Shuffle(item_of_rank.data(), item_of_rank.size());
  std::vector<uint64_t> rows(rows_n);
  for (uint64_t& item : rows) item = item_of_rank[table.Sample(rng)];

  int mismatches = 0;
  std::printf("\n-- shard_merge: Snapshot of N x %zu bins -> %zu bins, "
              "%zu rows --\n",
              kShardMergeBins, kShardMergeBins, rows_n);
  for (size_t shards : {size_t{2}, size_t{4}, size_t{32}}) {
    ShardedSketchOptions opt;
    opt.num_shards = shards;
    opt.shard_capacity = kShardMergeBins;
    opt.seed = 12;
    ShardedSpaceSaving sharded(opt);
    sharded.Ingest(Span<const uint64_t>(rows.data(), rows.size()));

    const bool identical =
        Serialize(sharded.Snapshot(kShardMergeBins, 13)) ==
        Serialize(MergeAll(sharded.Parts(), kShardMergeBins, 13));
    if (!identical) ++mismatches;

    std::vector<double> us(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      auto t0 = Clock::now();
      UnbiasedSpaceSaving merged =
          sharded.Snapshot(kShardMergeBins, static_cast<uint64_t>(13 + r));
      us[static_cast<size_t>(r)] = Seconds(t0) * 1e6;
      if (merged.TotalCount() != static_cast<int64_t>(rows_n)) std::abort();
    }
    const bench::Spread spread = bench::SpreadOf(us);
    std::printf("shards=%-3zu %10.1f us  (min %.1f, max %.1f, %d merges)  "
                "equals MergeAll: %s\n",
                shards, spread.median, spread.min, spread.max, reps,
                identical ? "OK" : "FAILED");
    if (sink.enabled()) {
      sink.BeginRecord("micro");
      sink.Add("name", "shard_merge_us");
      sink.Add("shards", static_cast<int64_t>(shards));
      sink.Add("m", static_cast<int64_t>(kShardMergeBins));
      sink.Add("reps", static_cast<int64_t>(reps));
      sink.Add("median_us", spread.median);
      sink.Add("min_us", spread.min);
      sink.Add("max_us", spread.max);
    }
  }
  return mismatches;
}

// --smoke body: proves the ingest hot path end to end on a small stream.
// UpdateBatch documents bit-for-bit identity with per-row Update; 4096
// bins stay in cache, 65536 do not. Returns the failure count.
int SmokeCheck(const Workload& w) {
  int failures = 0;
  for (size_t m : {size_t{4096}, size_t{65536}}) {
    UnbiasedSpaceSaving per_row(m, 2);
    for (uint64_t x : w.rows) per_row.Update(x);

    UnbiasedSpaceSaving batched(m, 2);
    auto t0 = Clock::now();
    batched.UpdateBatch(w.rows);
    const double mrows =
        static_cast<double>(w.rows.size()) / Seconds(t0) / 1e6;

    const bool identical = per_row.Entries() == batched.Entries() &&
                           per_row.TotalCount() == batched.TotalCount();
    const bool sane_rate = mrows > 0.0;
    std::printf("smoke m=%-8zu batch %8.1f Mrows/s  bit-identity %s\n", m,
                mrows, identical ? "OK" : "FAILED");
    if (!identical) ++failures;
    if (!sane_rate) {
      std::printf("smoke m=%zu: implausible rate %f Mrows/s\n", m, mrows);
      ++failures;
    }
  }
  return failures;
}

}  // namespace
}  // namespace dsketch

int main(int argc, char** argv) {
  using namespace dsketch;
  bench::Banner("ingestion throughput: batched + sharded pipeline",
                "paper §6.7 cost claims; ROADMAP throughput/sharding items");
  const bool smoke = bench::FlagSet(argc, argv, "smoke");
  const int64_t rows =
      bench::FlagInt(argc, argv, "rows", smoke ? 1000000 : 8000000);
  const int reps = static_cast<int>(bench::FlagInt(argc, argv, "reps", 7));
  const bool full = bench::FlagInt(argc, argv, "full", 1) != 0;
  bench::JsonSink sink(argc, argv, "throughput");

  std::printf("%u hardware threads, %d runs per median\n",
              std::thread::hardware_concurrency(), reps);
  if (sink.enabled()) {
    sink.BeginRecord("params");
    sink.Add("rows", rows);
    sink.Add("reps", static_cast<int64_t>(reps));
  }

  std::printf("generating streams (%lld rows each)...\n",
              static_cast<long long>(rows));
  std::vector<Workload> workloads;
  {
    auto counts = ScaleCountsToTotal(
        ZipfCounts(static_cast<size_t>(rows) / 2, 1.05, 1000000), rows);
    Rng rng(1);
    workloads.push_back({"zipf", PermutedStream(counts, rng)});
  }
  if (smoke) {
    const int failures =
        SmokeCheck(workloads[0]) + ShardMergeBench(200000, 3, sink);
    std::printf("smoke: %s\n", failures == 0 ? "OK" : "FAILED");
    sink.Flush();
    return failures == 0 ? 0 : 1;
  }
  {
    auto counts = ScaleCountsToTotal(
        WeibullCounts(static_cast<size_t>(rows) / 4, 5e5, 0.3), rows);
    Rng rng(1);
    workloads.push_back({"weibull", PermutedStream(counts, rng)});
  }

  std::vector<size_t> sizes = {4096, 65536, 262144, 1000000};
  if (full) sizes.push_back(4000000);

  RowVsBatchSweep(workloads, sizes, reps, sink);
  BatchSizeSweep(workloads[0], full ? 4000000 : 1000000, reps, sink);
  ShardScalingSweep(workloads[0], 262144, reps, sink);
  MicroBenches(workloads[1], reps, sink);
  const int mismatches = ShardMergeBench(2000000, 21, sink);

  sink.Flush();
  return mismatches == 0 ? 0 : 1;
}
