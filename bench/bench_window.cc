// Windowed sketching throughput: what the epoch ring costs to feed,
// advance, and query as the ring grows.
//
// Sweeps ring sizes and measures, per configuration:
//   * ingest throughput — epoch-stamped rows streamed through
//     UpdateBatch with row-count auto-advance (the hot path);
//   * advance cost — closing an epoch, with and without the decayed
//     accumulator (decay mode adds the closed epoch's entries to the
//     forward-decay accumulator at their forward weight; an empty epoch
//     adds nothing);
//   * window-query latency, cached vs uncached — QueryWindow (the
//     hierarchical merge cache: O(log W) cached partials per query)
//     against QueryWindowUncached (the from-scratch W-way pairwise
//     re-merge) over last_k in {1, W/2, W}. The two are bit-identical
//     in results; the sweep shows what the cache buys as W grows. The
//     first cached query of each last_k builds the cache, so it is
//     recorded apart (query_*_cold_us) from the mean of the warm rest
//     (query_*_us).
// Each configuration runs 5 times on a fresh ring; every window_throughput
// figure is the median, and --json also records its min and max.
//
// A fleet row then drives the query-side source the service's window
// scope uses (WindowedSketchSource, 1 and 4 shards, W=64, 1024 bins per
// epoch, ring full): each rep ingests one 8192-row batch (one epoch per
// 8 batches), then times the in-place ring refresh (MergedRing on the
// dirty source) and the last_k 1, 8 and 0 views, against a from-scratch
// epoch-aligned merge of the same fleet state. Reps whose batch opened a
// new epoch are reported apart ("advance": each view rebuilds its
// closed-span sums) from the rest ("steady": each view patches the open
// epoch into them). Each time is the median and min-max over the reps.
//
// Records baselines with --json=PATH (record_baselines.sh →
// BENCH_window.json). --smoke runs a tiny W=64 configuration and exits
// nonzero unless the cached full-window query, averaged over all its
// queries cold one included, is at least as fast as the uncached path
// (and their results match exactly) — the CI guard
// against the big-ring query cliff regressing — or unless the fleet's
// refreshed ring serializes to the same bytes as a fresh source's full
// merge of the same rows, or a fleet view differs from the merged
// ring's uncached window at k in {1, 8, 0}. Every run also fails if a
// decay-on ring's QueryDecayed() total strays more than 1e-9 (relative)
// from the analytic decayed mass of the rows it saw.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/windowed_source.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"
#include "util/span.h"
#include "window/window_wire.h"
#include "window/windowed_sketch.h"

namespace dsketch {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fresh-ring runs behind each window_throughput row.
constexpr int kThroughputReps = 5;

// The fleet row (see the header). Returns the smoke failure count: the
// refreshed ring must serialize exactly as a fresh source's full merge,
// and each view must equal the merged ring's uncached window.
int FleetBench(const std::vector<uint64_t>& stream, bool smoke,
               bench::JsonSink& json) {
  constexpr size_t kEpochs = 64;
  constexpr size_t kBins = 1024;
  constexpr size_t kBatch = 8192;
  constexpr size_t kBatchesPerEpoch = 8;
  // Rep r opens a new epoch when r is a multiple of kBatchesPerEpoch, so
  // either count leaves both phases at least one rep.
  const int64_t reps = smoke ? 5 : 32;
  if (stream.size() < kBatch) {
    std::printf("\n-- window fleet: skipped, the stream has %zu rows and a "
                "batch needs %zu --\n",
                stream.size(), kBatch);
    return 0;
  }
  int failures = 0;
  std::printf("\n-- window fleet: WindowedSketchSource, W=%zu, %zu bins/epoch, "
              "%zu-row batches, %lld reps (median [min-max] us) --\n",
              kEpochs, kBins, kBatch, static_cast<long long>(reps));
  std::printf("%-7s %-8s %22s %22s %22s %22s %22s\n", "shards", "phase",
              "refresh_us", "view_last1_us", "view_last8_us", "view_full_us",
              "full_merge_us");
  for (size_t shards : {size_t{1}, size_t{4}}) {
    ShardedSketchOptions shard;
    shard.num_shards = shards;
    shard.seed = 81;
    WindowedSketchOptions window;
    window.window_epochs = kEpochs;
    window.epoch_capacity = kBins;
    window.merged_capacity = 4096;
    WindowedSketchSource live(shard, window);
    // Fed the same rows but merged once, at the end: a full merge.
    WindowedSketchSource mirror(shard, window);

    size_t pos = 0;
    auto feed = [&](size_t batch) {
      if (pos + kBatch > stream.size()) pos = 0;
      const Span<const uint64_t> rows(stream.data() + pos, kBatch);
      pos += kBatch;
      const uint64_t epoch = batch / kBatchesPerEpoch;
      live.Advance(epoch);
      live.Ingest(rows);
      if (smoke) {
        mirror.Advance(epoch);
        mirror.Ingest(rows);
      }
    };
    size_t batch = 0;
    for (; batch < kEpochs * kBatchesPerEpoch; ++batch) feed(batch);
    (void)live.View();  // the ready barrier: one full merge

    // Per phase (0 steady, 1 advance): refresh, last_k 1, 8, 0, remerge.
    constexpr size_t kColumns = 5;
    std::vector<double> times[2][kColumns];
    int64_t sink = 0;
    auto time_us = [](auto&& fn) {
      const Clock::time_point start = Clock::now();
      fn();
      return SecondsSince(start) * 1e6;
    };
    for (int64_t r = 0; r < reps; ++r, ++batch) {
      const int phase = batch % kBatchesPerEpoch == 0 ? 1 : 0;
      std::vector<double>* col = times[phase];
      feed(batch);
      live.Flush();  // the drain is ingest's cost, not the refresh's
      col[0].push_back(time_us([&] { (void)live.MergedRing(); }));
      auto view_us = [&](size_t last_k) {
        return time_us([&] { sink += live.WindowView(last_k).TotalCount(); });
      };
      col[1].push_back(view_us(1));
      col[2].push_back(view_us(8));
      col[3].push_back(view_us(0));
      const std::vector<const WindowedSpaceSaving*> parts =
          live.sharded().Parts();
      col[4].push_back(time_us([&] {
        WindowedSpaceSaving ring = MergeShards(parts, kBins, 7);
        ring.AdvanceTo(live.current_epoch());
        sink += static_cast<int64_t>(ring.TotalRows());
      }));
    }
    if (sink == -1) std::printf("?");  // keep the work live

    const char* phase_names[] = {"steady", "advance"};
    const char* names[] = {"refresh_us", "view_last1_us", "view_last8_us",
                           "view_full_us", "full_merge_us"};
    for (int phase = 0; phase < 2; ++phase) {
      std::printf("%-7zu %-8s", shards, phase_names[phase]);
      bench::Spread spreads[kColumns];
      for (size_t i = 0; i < kColumns; ++i) {
        spreads[i] = bench::SpreadOf(times[phase][i]);
        std::printf(" %8.1f [%5.0f-%5.0f]", spreads[i].median, spreads[i].min,
                    spreads[i].max);
      }
      std::printf("\n");
      if (json.enabled()) {
        json.BeginRecord("window_fleet");
        json.Add("shards", static_cast<int64_t>(shards));
        json.Add("phase", phase_names[phase]);
        json.Add("window_epochs", static_cast<int64_t>(kEpochs));
        json.Add("epoch_bins", static_cast<int64_t>(kBins));
        json.Add("batch_rows", static_cast<int64_t>(kBatch));
        json.Add("batches_per_epoch", static_cast<int64_t>(kBatchesPerEpoch));
        json.Add("reps", static_cast<int64_t>(times[phase][0].size()));
        for (size_t i = 0; i < kColumns; ++i) {
          const std::string name = names[i];
          json.Add(name + "_median", spreads[i].median);
          json.Add(name + "_min", spreads[i].min);
          json.Add(name + "_max", spreads[i].max);
        }
      }
    }
    if (!smoke) continue;
    if (SerializeWindowed(live.MergedRing()) !=
        SerializeWindowed(mirror.MergedRing())) {
      std::printf("FAIL: refreshed ring != full merge at %zu shards\n",
                  shards);
      ++failures;
    }
    for (size_t last_k : {size_t{1}, size_t{8}, size_t{0}}) {
      if (live.WindowView(last_k).Entries() !=
          live.MergedRing()
              .QueryWindowUncached(last_k, window.merged_capacity,
                                   live.MergeSeed())
              .Entries()) {
        std::printf("FAIL: view last_k=%zu != uncached window at %zu shards\n",
                    last_k, shards);
        ++failures;
      }
    }
  }
  std::printf(
      "(refresh re-merges only the epochs that can still change and keeps\n"
      " the merge tree below them; a steady view patches the open epoch into\n"
      " memoized closed-span sums, the first view after an advance rebuilds\n"
      " them; full_merge_us is the from-scratch epoch-aligned merge of the\n"
      " same fleet state)\n");
  return failures;
}

int Run(int argc, char** argv) {
  const bool smoke = bench::FlagSet(argc, argv, "smoke");
  const int64_t rows =
      bench::FlagInt(argc, argv, "rows", smoke ? 400000 : 4000000);
  const int64_t m = bench::FlagInt(argc, argv, "bins", 4096);
  const int64_t items = bench::FlagInt(argc, argv, "items", 100000);
  const double zipf = bench::FlagDouble(argc, argv, "zipf", 1.1);
  const int64_t queries =
      bench::FlagInt(argc, argv, "queries", smoke ? 16 : 50);
  bench::JsonSink json(argc, argv, "window");

  bench::Banner("Windowed sketching: advance/query cost across ring sizes",
                "src/window epoch ring (ROADMAP sliding-window workload)");

  auto counts = ScaleCountsToTotal(
      ZipfCounts(static_cast<size_t>(items), zipf, 1000000), rows);
  Rng rng(31);
  std::vector<uint64_t> stream = PermutedStream(counts, rng);

  if (json.enabled()) {
    json.BeginRecord("params");
    json.Add("rows", static_cast<int64_t>(stream.size()));
    json.Add("items", items);
    json.Add("bins", m);
    json.Add("zipf", zipf);
    json.Add("queries", queries);
  }

  std::printf("\n%d fresh rings per row; median, ingest also [min-max]\n",
              kThroughputReps);
  std::printf("%-8s %-7s %20s %14s %12s %12s %12s %14s\n", "ring_W",
              "decay", "ingest_mrows_s", "advance_us", "q_last1_us",
              "q_half_us", "q_full_us", "q_full_raw_us");

  int failures = 0;
  const std::vector<int64_t> ring_sizes =
      smoke ? std::vector<int64_t>{64}
            : std::vector<int64_t>{4, 16, 64, 256};
  for (int64_t W : ring_sizes) {
    for (int decay = 0; decay <= 1; ++decay) {
      WindowedSketchOptions opt;
      opt.window_epochs = static_cast<size_t>(W);
      opt.epoch_capacity = static_cast<size_t>(m);
      opt.merged_capacity = static_cast<size_t>(m);
      // 2W epochs over the stream: every slot sees real traffic and
      // half the epochs fall off the ring.
      opt.rows_per_epoch = stream.size() / static_cast<size_t>(2 * W) + 1;
      opt.half_life_epochs = decay == 1 ? static_cast<double>(W) / 4.0 : 0.0;
      opt.seed = 71;

      // One column per recorded figure, one value per rep; each rep runs
      // on a fresh ring.
      enum Column {
        kIngest, kAdvance, kQ1, kQHalf, kQFull, kQ1Cold, kQHalfCold,
        kQFullCold, kQ1Raw, kQHalfRaw, kQFullRaw, kQFullAll, kNumColumns
      };
      std::vector<double> cols[kNumColumns];
      for (int rep = 0; rep < kThroughputReps; ++rep) {
        WindowedSpaceSaving sketch(opt);

        Clock::time_point start = Clock::now();
        sketch.UpdateBatch(Span<const uint64_t>(stream.data(), stream.size()));
        const double ingest_s = SecondsSince(start);

        // Isolated advance cost: close epochs beyond the stream (empty
        // epochs still pay ring rotation; with decay they pay the
        // accumulator scale + fold).
        const int kAdvances = 64;
        start = Clock::now();
        for (int i = 0; i < kAdvances; ++i) sketch.Advance();
        const double advance_s = SecondsSince(start);

        // Decayed mass is preserved exactly by the accumulator: epoch e's
        // rows count 2^-(T - e)/half_life as of the open epoch T.
        if (decay == 1) {
          const double T = static_cast<double>(sketch.CurrentEpoch());
          double truth = 0.0;
          for (size_t e = 0; e * opt.rows_per_epoch < stream.size(); ++e) {
            const size_t in_epoch = std::min<size_t>(
                opt.rows_per_epoch, stream.size() - e * opt.rows_per_epoch);
            truth += static_cast<double>(in_epoch) *
                     std::exp2(-(T - static_cast<double>(e)) /
                               opt.half_life_epochs);
          }
          const double total = sketch.QueryDecayed().TotalWeight();
          if (!(std::fabs(total - truth) <= 1e-9 * truth)) {
            std::printf(
                "FAIL: decayed total %.17g != analytic %.17g at W=%lld\n",
                total, truth, static_cast<long long>(W));
            ++failures;
          }
        }

        // The first cached query of each last_k is cold: it builds the
        // merge-tree nodes the later ones reuse (at W=256 it costs over
        // ten warm queries), so it is timed on its own and the warm mean
        // leaves it out. `all` is the mean over every query, cold one
        // included.
        struct QueryTimes {
          double cold = 0, warm = 0, all = 0;
        };
        auto time_query = [&](size_t last_k, bool cached, int64_t reps) {
          const Clock::time_point q = Clock::now();
          Clock::time_point first_done = q;
          int64_t sink = 0;
          for (int64_t i = 0; i < reps; ++i) {
            const uint64_t seed = opt.seed + static_cast<uint64_t>(i);
            sink += (cached ? sketch.QueryWindow(last_k,
                                                 static_cast<size_t>(m), seed)
                            : sketch.QueryWindowUncached(
                                  last_k, static_cast<size_t>(m), seed))
                        .TotalCount();
            if (i == 0) first_done = Clock::now();
          }
          const Clock::time_point done = Clock::now();
          if (sink == -1) std::printf("?");  // keep the merges live
          QueryTimes t;
          t.cold = std::chrono::duration<double>(first_done - q).count();
          const double rest =
              std::chrono::duration<double>(done - first_done).count();
          t.all = (t.cold + rest) / static_cast<double>(reps);
          t.warm = reps > 1 ? rest / static_cast<double>(reps - 1) : t.cold;
          return t;
        };
        // Uncached re-merges are the expensive reference path: a few reps
        // bound the sweep's wall clock without blurring the comparison.
        const int64_t raw_reps = std::max<int64_t>(1, queries / 8);
        const size_t half = static_cast<size_t>(W) / 2;
        const size_t full = static_cast<size_t>(W);
        const QueryTimes q1 = time_query(1, /*cached=*/true, queries);
        const QueryTimes qh = time_query(half, /*cached=*/true, queries);
        const QueryTimes qw = time_query(full, /*cached=*/true, queries);

        cols[kIngest].push_back(static_cast<double>(stream.size()) /
                                ingest_s / 1e6);
        cols[kAdvance].push_back(advance_s / kAdvances * 1e6);
        cols[kQ1].push_back(q1.warm * 1e6);
        cols[kQHalf].push_back(qh.warm * 1e6);
        cols[kQFull].push_back(qw.warm * 1e6);
        cols[kQ1Cold].push_back(q1.cold * 1e6);
        cols[kQHalfCold].push_back(qh.cold * 1e6);
        cols[kQFullCold].push_back(qw.cold * 1e6);
        cols[kQFullAll].push_back(qw.all * 1e6);
        cols[kQ1Raw].push_back(
            time_query(1, /*cached=*/false, raw_reps).all * 1e6);
        cols[kQHalfRaw].push_back(
            time_query(half, /*cached=*/false, raw_reps).all * 1e6);
        cols[kQFullRaw].push_back(
            time_query(full, /*cached=*/false, raw_reps).all * 1e6);

        // The cache must be an optimization, never a semantic change:
        // cached and uncached answers are bit-identical on the same state.
        if (rep == 0 &&
            sketch.QueryWindow(full, static_cast<size_t>(m), opt.seed)
                    .Entries() !=
                sketch.QueryWindowUncached(full, static_cast<size_t>(m),
                                           opt.seed)
                    .Entries()) {
          std::printf("FAIL: cached != uncached QueryWindow at W=%lld\n",
                      static_cast<long long>(W));
          ++failures;
        }
      }

      bench::Spread spread[kNumColumns];
      for (int c = 0; c < kNumColumns; ++c) spread[c] = bench::SpreadOf(cols[c]);
      std::printf(
          "%-8lld %-7s %6.2f [%5.2f-%5.2f] %14.2f %12.1f %12.1f %12.1f "
          "%14.1f\n",
          static_cast<long long>(W), decay ? "on" : "off",
          spread[kIngest].median, spread[kIngest].min, spread[kIngest].max,
          spread[kAdvance].median, spread[kQ1].median, spread[kQHalf].median,
          spread[kQFull].median, spread[kQFullRaw].median);
      if (json.enabled()) {
        json.BeginRecord("window_throughput");
        json.Add("window_epochs", W);
        json.Add("decay", static_cast<int64_t>(decay));
        json.Add("rows", static_cast<int64_t>(stream.size()));
        json.Add("bins", m);
        json.Add("rows_per_epoch", static_cast<int64_t>(opt.rows_per_epoch));
        json.Add("reps", static_cast<int64_t>(kThroughputReps));
        json.Add("ingest_mrows_per_s", spread[kIngest]);
        json.Add("advance_us", spread[kAdvance]);
        json.Add("query_last1_us", spread[kQ1]);
        json.Add("query_half_us", spread[kQHalf]);
        json.Add("query_full_us", spread[kQFull]);
        json.Add("query_last1_cold_us", spread[kQ1Cold]);
        json.Add("query_half_cold_us", spread[kQHalfCold]);
        json.Add("query_full_cold_us", spread[kQFullCold]);
        json.Add("query_last1_uncached_us", spread[kQ1Raw]);
        json.Add("query_half_uncached_us", spread[kQHalfRaw]);
        json.Add("query_full_uncached_us", spread[kQFullRaw]);
      }
      if (smoke && spread[kQFullAll].median > spread[kQFullRaw].median) {
        std::printf(
            "FAIL: cached query_full (%.1f us) slower than uncached "
            "(%.1f us) at W=%lld\n",
            spread[kQFullAll].median, spread[kQFullRaw].median,
            static_cast<long long>(W));
        ++failures;
      }
    }
  }

  std::printf(
      "\n(ingest pays the flat UpdateBatch cost plus one ring rotation per\n"
      " epoch; decay adds each closed epoch to the accumulator. Cached\n"
      " queries assemble O(log W) merge-tree partials; the q_*_us columns\n"
      " are warm means, without each last_k's first, cold query (--json\n"
      " records it as query_*_cold_us); q_full_raw_us is the from-scratch\n"
      " W-way re-merge the cache replaces)\n");

  failures += FleetBench(stream, smoke, json);
  if (smoke) {
    std::printf("smoke: %s\n", failures == 0 ? "OK" : "FAILED");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dsketch

int main(int argc, char** argv) { return dsketch::Run(argc, argv); }
