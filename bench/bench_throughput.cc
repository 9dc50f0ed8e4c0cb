// Ingestion-path throughput: the §6.7 cost claims (O(1) Space Saving
// updates, amortized O(1) Misra-Gries, O(log m) weighted updates) plus
// the two sweeps behind the batched/sharded ingestion pipeline:
//
//   * row_vs_batch   — per-row Update vs UpdateBatch across sketch sizes
//                      and workload shapes (the batch path's software
//                      pipelining pays off once the sketch outgrows the
//                      cache hierarchy);
//   * batch_size     — UpdateBatch throughput as a function of the batch
//                      the caller hands over;
//   * shard_scaling  — ShardedSketch ingest throughput vs shard count
//                      (bounded by hardware_concurrency, recorded in the
//                      output's machine record for interpretation);
//   * micro          — per-sketch single-row update costs, merge cost,
//                      and query cost;
//   * shard_merge_us — one MergeShards of two hash-partitioned 4096-bin
//                      shards into 4096 bins (the merge behind every
//                      fresh served query), Zipf 1.1 over 1M items;
//                      median and min-max over kShardMergeReps merges.
//
// Flags: --rows=N stream length, --reps=N repetitions (max is reported),
// --json=PATH writes machine-readable baselines (recorded as
// BENCH_throughput.json by bench/record_baselines.sh). The
// multi-million-bin configurations run by default (they are where the
// batch pipeline pays off); pass --full=0 --rows=2000000 --reps=1 for a
// quick run.
//
// --smoke replaces the sweeps with a CI correctness gate: a small
// configuration covering both UpdateBatch bodies (plain and software-
// pipelined) that asserts batch ingestion is bit-identical to per-row
// updates and that throughput is sane (> 0), exiting nonzero otherwise.
//
// Every JSON output starts with the "machine" record bench_util.h writes
// (hardware threads, compiler) and a "params" record (allocator mode,
// probe ISA) so recorded baselines say what machine state produced them.

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
#include "util/flat_map.h"
#include "util/mmap_array.h"
#include "util/random.h"
#include "util/span.h"

namespace dsketch {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` `reps` times and returns the best rows/s (in millions).
template <typename Fn>
double BestMrows(size_t rows, int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    fn();
    double mrows = static_cast<double>(rows) / Seconds(t0) / 1e6;
    if (mrows > best) best = mrows;
  }
  return best;
}

struct Workload {
  const char* name;
  std::vector<uint64_t> rows;
};

void RowVsBatchSweep(const std::vector<Workload>& workloads,
                     const std::vector<size_t>& sizes, int reps,
                     bench::JsonSink& sink) {
  std::printf("\n-- row_vs_batch: per-row Update vs UpdateBatch --\n");
  std::printf("%-10s %-9s %12s %12s %9s\n", "workload", "m", "row Mrows/s",
              "batch Mr/s", "speedup");
  for (const Workload& w : workloads) {
    for (size_t m : sizes) {
      double row = BestMrows(w.rows.size(), reps, [&] {
        UnbiasedSpaceSaving s(m, 2);
        for (uint64_t x : w.rows) s.Update(x);
      });
      double batch = BestMrows(w.rows.size(), reps, [&] {
        UnbiasedSpaceSaving s(m, 2);
        s.UpdateBatch(w.rows);
      });
      std::printf("%-10s %-9zu %12.1f %12.1f %8.2fx\n", w.name, m, row,
                  batch, batch / row);
      if (sink.enabled()) {
        sink.BeginRecord("row_vs_batch");
        sink.Add("workload", w.name);
        sink.Add("m", static_cast<int64_t>(m));
        sink.Add("row_mrows", row);
        sink.Add("batch_mrows", batch);
        sink.Add("speedup", batch / row);
      }
    }
  }
}

void BatchSizeSweep(const Workload& w, size_t m, int reps,
                    bench::JsonSink& sink) {
  std::printf("\n-- batch_size: UpdateBatch chunk size (m=%zu, %s) --\n", m,
              w.name);
  std::printf("%-10s %12s\n", "batch", "Mrows/s");
  for (size_t batch : {size_t{64}, size_t{256}, size_t{1024}, size_t{8192},
                       size_t{65536}, w.rows.size()}) {
    double mrows = BestMrows(w.rows.size(), reps, [&] {
      UnbiasedSpaceSaving s(m, 2);
      Span<const uint64_t> all(w.rows);
      for (size_t pos = 0; pos < all.size(); pos += batch) {
        s.UpdateBatch(all.subspan(pos, batch));
      }
    });
    std::printf("%-10zu %12.1f\n", batch, mrows);
    if (sink.enabled()) {
      sink.BeginRecord("batch_size");
      sink.Add("workload", w.name);
      sink.Add("m", static_cast<int64_t>(m));
      sink.Add("batch_size", static_cast<int64_t>(batch));
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
  std::printf("%-8s %12s %10s\n", "shards", "Mrows/s", "vs 1shard");
  double base = 0;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    double mrows = BestMrows(w.rows.size(), reps, [&] {
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
    if (shards == 1) base = mrows;
    std::printf("%-8zu %12.1f %9.2fx\n", shards, mrows, mrows / base);
    if (sink.enabled()) {
      sink.BeginRecord("shard_scaling");
      sink.Add("workload", w.name);
      sink.Add("shards", static_cast<int64_t>(shards));
      sink.Add("shard_capacity", static_cast<int64_t>(shard_capacity));
      sink.Add("mrows", mrows);
      sink.Add("scaling_vs_1shard", mrows / base);
    }
  }
}

void MicroBenches(const Workload& w, int reps, bench::JsonSink& sink) {
  std::printf("\n-- micro: per-row update cost of every sketch --\n");
  std::printf("%-24s %-8s %12s\n", "sketch", "m", "Mrows/s");
  auto report = [&](const char* name, size_t m, double mrows) {
    std::printf("%-24s %-8zu %12.1f\n", name, m, mrows);
    if (sink.enabled()) {
      sink.BeginRecord("micro");
      sink.Add("name", name);
      sink.Add("m", static_cast<int64_t>(m));
      sink.Add("mrows", mrows);
    }
  };
  const std::vector<uint64_t>& rows = w.rows;
  for (size_t m : {size_t{100}, size_t{1000}, size_t{10000}}) {
    report("unbiased_update", m, BestMrows(rows.size(), reps, [&] {
             UnbiasedSpaceSaving s(m, 2);
             for (uint64_t x : rows) s.Update(x);
           }));
  }
  report("deterministic_update", 1000, BestMrows(rows.size(), reps, [&] {
           DeterministicSpaceSaving s(1000, 3);
           for (uint64_t x : rows) s.Update(x);
         }));
  report("misra_gries_update", 1000, BestMrows(rows.size(), reps, [&] {
           MisraGries s(1000);
           for (uint64_t x : rows) s.Update(x);
         }));
  report("weighted_update", 1000, BestMrows(rows.size(), reps, [&] {
           WeightedSpaceSaving s(1000, 4);
           for (uint64_t x : rows) s.Update(x, 1.0);
         }));
  report("weighted_update_batch", 1000, BestMrows(rows.size(), reps, [&] {
           WeightedSpaceSaving s(1000, 4);
           s.UpdateBatch(rows, 1.0);
         }));
  report("sample_and_hold_update", 1000, BestMrows(rows.size(), reps, [&] {
           AdaptiveSampleAndHold s(1000, 5);
           for (uint64_t x : rows) s.Update(x);
         }));
  report("bottom_k_update", 1000, BestMrows(rows.size(), reps, [&] {
           BottomKSampler s(1000, 6);
           for (uint64_t x : rows) s.Update(x);
         }));
  report("count_min_update", 1024, BestMrows(rows.size(), reps, [&] {
           CountMin s(1024, 4, 7);
           for (uint64_t x : rows) s.Update(x);
         }));

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

// The shape of the service's fresh-query merge: two shards of 4096 bins,
// hash-partitioned by ShardedSketch, merged into 4096 bins. The stream is
// 2M rows of Zipf 1.1 over 1M items, ids scattered by a permutation.
constexpr int kShardMergeReps = 21;

void ShardMergeBench(bench::JsonSink& sink) {
  constexpr size_t kItems = 1000000;
  constexpr size_t kRows = 2000000;
  constexpr size_t kShards = 2;
  constexpr size_t kBins = 4096;
  std::vector<double> weights(kItems);
  for (size_t r = 0; r < kItems; ++r) {
    weights[r] = std::pow(static_cast<double>(r + 1), -1.1);
  }
  AliasTable table(weights);
  std::vector<uint64_t> item_of_rank(kItems);
  for (size_t i = 0; i < kItems; ++i) item_of_rank[i] = i;
  Rng rng(11);
  rng.Shuffle(item_of_rank.data(), item_of_rank.size());
  std::vector<uint64_t> rows(kRows);
  for (uint64_t& item : rows) item = item_of_rank[table.Sample(rng)];

  ShardedSketchOptions opt;
  opt.num_shards = kShards;
  opt.shard_capacity = kBins;
  opt.seed = 12;
  ShardedSpaceSaving sharded(opt);
  sharded.Ingest(Span<const uint64_t>(rows.data(), rows.size()));
  sharded.Flush();
  std::vector<const UnbiasedSpaceSaving*> parts;
  for (size_t i = 0; i < kShards; ++i) parts.push_back(&sharded.shard(i));

  std::vector<double> us(kShardMergeReps);
  for (int r = 0; r < kShardMergeReps; ++r) {
    auto t0 = Clock::now();
    UnbiasedSpaceSaving merged =
        MergeShards(parts, kBins, static_cast<uint64_t>(13 + r));
    us[static_cast<size_t>(r)] = Seconds(t0) * 1e6;
    if (merged.TotalCount() != static_cast<int64_t>(kRows)) std::abort();
  }
  std::sort(us.begin(), us.end());
  const double median = us[us.size() / 2];
  std::printf("\n-- shard_merge: MergeShards %zu x %zu -> %zu bins --\n",
              kShards, kBins, kBins);
  std::printf("%-24s %10.1f us  (min %.1f, max %.1f, %d merges)\n",
              "shard_merge_us", median, us.front(), us.back(),
              kShardMergeReps);
  if (sink.enabled()) {
    sink.BeginRecord("micro");
    sink.Add("name", "shard_merge_us");
    sink.Add("shards", static_cast<int64_t>(kShards));
    sink.Add("m", static_cast<int64_t>(kBins));
    sink.Add("reps", static_cast<int64_t>(kShardMergeReps));
    sink.Add("median_us", median);
    sink.Add("min_us", us.front());
    sink.Add("max_us", us.back());
  }
}

// --smoke body: proves the ingest hot path end to end on a small stream.
// UpdateBatch documents bit-for-bit identity with per-row Update; m is
// chosen to cover both batch bodies (plain below the pipelining
// threshold, software-pipelined above it). Returns the failure count.
int SmokeCheck(const Workload& w) {
  int failures = 0;
  // 65536 bins is the smallest sketch that takes the pipelined
  // UpdateBatch body; 4096 exercises the plain loop.
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
  std::printf("smoke: %s\n", failures == 0 ? "OK" : "FAILED");
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
  const int reps = static_cast<int>(bench::FlagInt(argc, argv, "reps", 2));
  const bool full = bench::FlagInt(argc, argv, "full", 1) != 0;
  bench::JsonSink sink(argc, argv, "throughput");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("ingest config: alloc=%s (mmap %savailable), probe=%s, "
              "%u hardware threads\n",
              AllocModeName(GlobalAllocMode()),
              MmapAllocSupported() ? "" : "un", FlatMapProbeIsa(), hw);
  if (sink.enabled()) {
    sink.BeginRecord("params");
    sink.Add("rows", rows);
    sink.Add("reps", static_cast<int64_t>(reps));
    sink.Add("alloc_mode", AllocModeName(GlobalAllocMode()));
    sink.Add("mmap_supported",
             static_cast<int64_t>(MmapAllocSupported() ? 1 : 0));
    sink.Add("probe_isa", FlatMapProbeIsa());
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
    const int failures = SmokeCheck(workloads[0]);
    sink.Flush();
    return failures == 0 ? 0 : 1;
  }
  {
    auto counts = ScaleCountsToTotal(
        WeibullCounts(static_cast<size_t>(rows) / 4, 5e5, 0.3), rows);
    Rng rng(1);
    workloads.push_back({"weibull", PermutedStream(counts, rng)});
  }

  std::vector<size_t> sizes = {10000, 100000, 1000000};
  if (full) sizes.push_back(4000000);

  RowVsBatchSweep(workloads, sizes, reps, sink);
  BatchSizeSweep(workloads[0], full ? 4000000 : 1000000, reps, sink);
  ShardScalingSweep(workloads[0], 262144, reps, sink);
  MicroBenches(workloads[1], reps, sink);
  ShardMergeBench(sink);

  sink.Flush();
  return 0;
}
