// Figure 10: %RRMSE per epoch on the pathological sorted stream,
// Deterministic vs Unbiased Space Saving — plus the time-aware variants
// the ROADMAP's "More workloads" item asks for, measured end-to-end on
// the same epoch workload:
//
//   * decayed  — DecayedSpaceSaving with per-epoch timestamps; per-epoch
//     decayed sums vs the analytically decayed truth.
//   * sliding window — the first-class WindowedSketch epoch ring
//     (src/window): window queries merge the last W ring slots with the
//     unbiased reduction; the newest epoch's sum is estimated from each
//     window merge. The pre-subsystem hand-merged construction
//     (per-epoch sketches + MergeAll) runs alongside as a cross-check —
//     with the ring's seed schedule the two are estimate-identical, and
//     the bench aborts loudly if they ever diverge. The window_rrmse
//     column reads ~0 by construction, not by accident: the merge's
//     pairwise reduction collapses bins in canonical (count, item)
//     order, and on this sorted stream item ids ascend with the epoch
//     while the early epochs' bins all tie on count. So the collapses
//     pair neighbouring labels of one epoch (each keeps that epoch's
//     mass exactly), older epochs first, and only the few pairs that
//     straddle an epoch boundary move mass between epochs — the newest
//     epoch's sum comes through the window merge intact until its
//     counts grow apart (epochs 9–10).
//   * bursty / all-distinct — the remaining §6.3 pathological arrival
//     patterns: periodic bursts of one hot item separated by runs of
//     fresh distinct items, and the pure all-distinct stream. Scored as
//     %RRMSE of the burst item's count, the fresh-item mass, and a 10%
//     distinct-item subset, USS vs DSS.
//
// The paper's headline (Fig. 10): the deterministic sketch estimates 0
// for the first nine epochs and the full total for the last, giving
// ~100% error everywhere (50x USS on the late epochs); Unbiased Space
// Saving degrades only on the tiny first epochs where overestimation is
// possible. Records baselines with --json=PATH (record_baselines.sh).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/decayed_space_saving.h"
#include "core/deterministic_space_saving.h"
#include "core/merge.h"
#include "core/subset_sum.h"
#include "core/unbiased_space_saving.h"
#include "epoch_common.h"
#include "stats/summary.h"
#include "stream/generators.h"
#include "util/logging.h"
#include "util/span.h"
#include "window/windowed_sketch.h"

namespace dsketch {
namespace {

// Sum of DSS entries matching `pred` (the deterministic sketch has no
// estimator object; its subset estimate is the plain entry sum).
template <typename Pred>
double DssSubsetSum(const DeterministicSpaceSaving& dss, Pred pred) {
  double sum = 0.0;
  for (const SketchEntry& e : dss.Entries()) {
    if (pred(e.item)) sum += static_cast<double>(e.count);
  }
  return sum;
}

// §6.3 bursty + all-distinct patterns: USS vs DSS %RRMSE on the subsets
// that characterize each stream.
void RunPathological(int64_t m, int64_t trials, int64_t burst_length,
                     int64_t quiet_length, int64_t periods,
                     int64_t distinct_rows, bench::JsonSink& json) {
  // Bursty: item 0 bursts `burst_length` rows per period, separated by
  // `quiet_length` fresh distinct items (ids from 1 on).
  const std::vector<uint64_t> bursty =
      BurstyStream(/*burst_item=*/0, burst_length, quiet_length, periods,
                   /*fresh_start_id=*/1);
  const double burst_truth =
      static_cast<double>(burst_length) * static_cast<double>(periods);
  // Half the fresh items (even ids): a proper subset, so neither sketch
  // gets it for free from total preservation (the full fresh mass is the
  // burst item's complement and would be exact by construction).
  const int64_t n_fresh = quiet_length * periods;
  const double fresh_truth = static_cast<double>(n_fresh / 2);
  // All-distinct: every row a fresh item; scored on the 10% subset
  // item % 10 == 0.
  const std::vector<uint64_t> distinct = DistinctStream(distinct_rows);
  const double distinct_truth = static_cast<double>((distinct_rows + 9) / 10);

  ErrorAccumulator uss_burst, dss_burst, uss_fresh, dss_fresh;
  ErrorAccumulator uss_distinct, dss_distinct;
  auto is_burst = [](uint64_t item) { return item == 0; };
  auto is_fresh = [](uint64_t item) { return item != 0 && item % 2 == 0; };
  auto in_tenth = [](uint64_t item) { return item % 10 == 0; };
  for (int64_t t = 0; t < trials; ++t) {
    UnbiasedSpaceSaving uss(static_cast<size_t>(m),
                            static_cast<uint64_t>(220000 + t));
    DeterministicSpaceSaving dss(static_cast<size_t>(m),
                                 static_cast<uint64_t>(230000 + t));
    uss.UpdateBatch(bursty);
    dss.UpdateBatch(bursty);
    uss_burst.Add(EstimateSubsetSum(uss, is_burst).estimate, burst_truth);
    dss_burst.Add(DssSubsetSum(dss, is_burst), burst_truth);
    uss_fresh.Add(EstimateSubsetSum(uss, is_fresh).estimate, fresh_truth);
    dss_fresh.Add(DssSubsetSum(dss, is_fresh), fresh_truth);

    UnbiasedSpaceSaving uss_d(static_cast<size_t>(m),
                              static_cast<uint64_t>(240000 + t));
    DeterministicSpaceSaving dss_d(static_cast<size_t>(m),
                                   static_cast<uint64_t>(250000 + t));
    uss_d.UpdateBatch(distinct);
    dss_d.UpdateBatch(distinct);
    uss_distinct.Add(EstimateSubsetSum(uss_d, in_tenth).estimate,
                     distinct_truth);
    dss_distinct.Add(DssSubsetSum(dss_d, in_tenth), distinct_truth);
  }

  struct RowOut {
    const char* workload;
    const char* subset;
    double truth;
    double uss;
    double dss;
  };
  const RowOut rows[] = {
      {"bursty", "burst_item", burst_truth, 100.0 * uss_burst.rrmse(),
       100.0 * dss_burst.rrmse()},
      {"bursty", "fresh_half", fresh_truth, 100.0 * uss_fresh.rrmse(),
       100.0 * dss_fresh.rrmse()},
      {"all_distinct", "ten_pct", distinct_truth,
       100.0 * uss_distinct.rrmse(), 100.0 * dss_distinct.rrmse()},
  };
  std::printf("\n%-13s %-12s %12s %14s %14s\n", "workload", "subset",
              "true_count", "uss_pct_rrmse", "dss_pct_rrmse");
  for (const RowOut& r : rows) {
    std::printf("%-13s %-12s %12.0f %14.2f %14.2f\n", r.workload, r.subset,
                r.truth, r.uss, r.dss);
    if (json.enabled()) {
      json.BeginRecord("pathological_rrmse");
      json.Add("workload", std::string(r.workload));
      json.Add("subset", std::string(r.subset));
      json.Add("true_count", r.truth);
      json.Add("uss_pct_rrmse", r.uss);
      json.Add("dss_pct_rrmse", r.dss);
    }
  }
}

void Run(int argc, char** argv) {
  const int64_t items = bench::FlagInt(argc, argv, "items", 20000);
  const int64_t total = bench::FlagInt(argc, argv, "rows", 2000000);
  const int64_t m = bench::FlagInt(argc, argv, "bins", 1000);
  const int64_t trials = bench::FlagInt(argc, argv, "trials", 40);
  const int epochs = static_cast<int>(bench::FlagInt(argc, argv, "epochs", 10));
  const double half_life = bench::FlagDouble(argc, argv, "half_life", 3.0);
  const int window = static_cast<int>(bench::FlagInt(argc, argv, "window", 3));
  const int64_t burst_length = bench::FlagInt(argc, argv, "burst_length", 2000);
  const int64_t quiet_length = bench::FlagInt(argc, argv, "quiet_length", 2000);
  const int64_t periods = bench::FlagInt(argc, argv, "periods", 10);
  const int64_t distinct_rows =
      bench::FlagInt(argc, argv, "distinct_rows", 100000);
  bench::JsonSink json(argc, argv, "fig10_epoch_rrmse");

  bench::Banner(
      "Figure 10: %RRMSE per epoch — DSS vs USS, decayed, sliding window",
      "paper Fig. 10 + §6.3-style epoch workloads (decayed / windowed)");

  bench::EpochSetup setup = bench::MakeEpochSetup(items, total, epochs);
  const size_t n_epochs = static_cast<size_t>(epochs);

  // Epoch boundaries in the sorted stream (items ascend, so each epoch
  // is one contiguous run of rows).
  std::vector<size_t> epoch_begin(n_epochs + 1, setup.rows.size());
  epoch_begin[0] = 0;
  for (size_t i = 0, e = 0; i < setup.rows.size(); ++i) {
    size_t row_epoch = static_cast<size_t>(bench::EpochOf(setup, setup.rows[i]));
    while (e < row_epoch) epoch_begin[++e] = i;
  }

  // Decayed truth as of query time T = last epoch: each epoch's rows
  // carry timestamp = epoch index and decay by 2^-(T-e)/half_life.
  const double query_time = static_cast<double>(epochs - 1);
  std::vector<double> decayed_truth(n_epochs);
  for (size_t e = 0; e < n_epochs; ++e) {
    decayed_truth[e] =
        setup.epoch_truth[e] *
        std::exp2(-(query_time - static_cast<double>(e)) / half_life);
  }

  std::vector<ErrorAccumulator> uss_err(n_epochs), dss_err(n_epochs);
  std::vector<ErrorAccumulator> decayed_err(n_epochs), window_err(n_epochs);
  int64_t window_cross_checks = 0;
  for (int64_t t = 0; t < trials; ++t) {
    UnbiasedSpaceSaving uss(static_cast<size_t>(m),
                            static_cast<uint64_t>(170000 + t));
    DeterministicSpaceSaving dss(static_cast<size_t>(m),
                                 static_cast<uint64_t>(180000 + t));
    DecayedSpaceSaving decayed(static_cast<size_t>(m), half_life,
                               static_cast<uint64_t>(190000 + t));
    // The first-class epoch ring, seeded so that epoch e's sketch gets
    // seed 200000 + t*100 + e — the exact per-epoch seeds the
    // hand-merged construction below uses, making the two paths
    // estimate-identical.
    WindowedSketchOptions wopt;
    wopt.window_epochs = static_cast<size_t>(window);
    wopt.epoch_capacity = static_cast<size_t>(m);
    wopt.merged_capacity = static_cast<size_t>(m);
    wopt.seed = static_cast<uint64_t>(200000 + t * 100);
    WindowedSpaceSaving windowed(wopt);
    // The pre-subsystem cross-check path: one mergeable sketch per
    // epoch, windows built by hand with MergeAll.
    std::vector<UnbiasedSpaceSaving> epoch_sketches;
    epoch_sketches.reserve(n_epochs);
    for (size_t e = 0; e < n_epochs; ++e) {
      epoch_sketches.emplace_back(
          static_cast<size_t>(m),
          static_cast<uint64_t>(200000 + t * 100 + static_cast<int64_t>(e)));
    }

    for (uint64_t item : setup.rows) {
      uss.Update(item);
      dss.Update(item);
    }
    for (size_t e = 0; e < n_epochs; ++e) {
      Span<const uint64_t> chunk(setup.rows.data() + epoch_begin[e],
                                 epoch_begin[e + 1] - epoch_begin[e]);
      decayed.UpdateBatch(chunk, static_cast<double>(e));
      epoch_sketches[e].UpdateBatch(chunk);
    }

    std::vector<double> uss_est(n_epochs, 0.0), dss_est(n_epochs, 0.0);
    std::vector<double> decayed_est(n_epochs, 0.0);
    for (const SketchEntry& e : uss.Entries()) {
      uss_est[static_cast<size_t>(bench::EpochOf(setup, e.item))] +=
          static_cast<double>(e.count);
    }
    for (const SketchEntry& e : dss.Entries()) {
      dss_est[static_cast<size_t>(bench::EpochOf(setup, e.item))] +=
          static_cast<double>(e.count);
    }
    for (const WeightedEntry& e : decayed.DecayedEntries(query_time)) {
      decayed_est[static_cast<size_t>(bench::EpochOf(setup, e.item))] +=
          e.weight;
    }
    for (size_t e = 0; e < n_epochs; ++e) {
      uss_err[e].Add(uss_est[e], setup.epoch_truth[e]);
      dss_err[e].Add(dss_est[e], setup.epoch_truth[e]);
      decayed_err[e].Add(decayed_est[e], decayed_truth[e]);
    }

    // Sliding window ending at each epoch e, answered by the epoch
    // ring: feed the epoch's rows, query the last-W window, advance.
    // The hand-merged MergeAll construction runs beside it with the
    // same merge seed; the two must agree to the last bin.
    for (size_t e = 0; e < n_epochs; ++e) {
      Span<const uint64_t> chunk(setup.rows.data() + epoch_begin[e],
                                 epoch_begin[e + 1] - epoch_begin[e]);
      windowed.UpdateBatch(chunk);
      const uint64_t merge_seed =
          static_cast<uint64_t>(210000 + t * 100 + static_cast<int64_t>(e));
      UnbiasedSpaceSaving merged = windowed.QueryWindow(
          static_cast<size_t>(window), static_cast<size_t>(m), merge_seed);

      std::vector<const UnbiasedSpaceSaving*> win;
      size_t lo = e + 1 >= static_cast<size_t>(window)
                      ? e + 1 - static_cast<size_t>(window)
                      : 0;
      for (size_t w = lo; w <= e; ++w) win.push_back(&epoch_sketches[w]);
      UnbiasedSpaceSaving hand_merged =
          MergeAll(win, static_cast<size_t>(m), merge_seed);

      double newest = 0.0;
      for (const SketchEntry& entry : merged.Entries()) {
        if (static_cast<size_t>(bench::EpochOf(setup, entry.item)) == e) {
          newest += static_cast<double>(entry.count);
        }
      }
      double hand_newest = 0.0;
      for (const SketchEntry& entry : hand_merged.Entries()) {
        if (static_cast<size_t>(bench::EpochOf(setup, entry.item)) == e) {
          hand_newest += static_cast<double>(entry.count);
        }
      }
      DSKETCH_CHECK(merged.TotalCount() == hand_merged.TotalCount());
      DSKETCH_CHECK(newest == hand_newest);
      ++window_cross_checks;

      window_err[e].Add(newest, setup.epoch_truth[e]);
      if (e + 1 < n_epochs) windowed.Advance();
    }
  }

  if (json.enabled()) {
    json.BeginRecord("params");
    json.Add("items", items);
    json.Add("rows", total);
    json.Add("bins", m);
    json.Add("trials", trials);
    json.Add("epochs", static_cast<int64_t>(epochs));
    json.Add("half_life", half_life);
    json.Add("window", static_cast<int64_t>(window));
    json.Add("window_cross_checks", window_cross_checks);
    json.Add("burst_length", burst_length);
    json.Add("quiet_length", quiet_length);
    json.Add("periods", periods);
    json.Add("distinct_rows", distinct_rows);
  }

  std::printf("\n%-7s %14s %14s %14s %14s %14s\n", "epoch", "true_count",
              "uss_pct_rrmse", "dss_pct_rrmse", "decayed_rrmse",
              "window_rrmse");
  for (size_t e = 0; e < n_epochs; ++e) {
    double u = 100.0 * uss_err[e].rrmse();
    double d = 100.0 * dss_err[e].rrmse();
    double dec = 100.0 * decayed_err[e].rrmse();
    double win = 100.0 * window_err[e].rrmse();
    std::printf("%-7zu %14.0f %14.2f %14.2f %14.2f %14.2f\n", e + 1,
                setup.epoch_truth[e], u, d, dec, win);
    if (json.enabled()) {
      json.BeginRecord("epoch_rrmse");
      json.Add("epoch", static_cast<int64_t>(e + 1));
      json.Add("true_count", setup.epoch_truth[e]);
      json.Add("uss_pct_rrmse", u);
      json.Add("dss_pct_rrmse", d);
      json.BeginRecord("decayed_rrmse");
      json.Add("epoch", static_cast<int64_t>(e + 1));
      json.Add("true_decayed", decayed_truth[e]);
      json.Add("pct_rrmse", dec);
      json.BeginRecord("window_rrmse");
      json.Add("window_end", static_cast<int64_t>(e + 1));
      json.Add("true_count", setup.epoch_truth[e]);
      json.Add("pct_rrmse", win);
    }
  }
  RunPathological(m, trials, burst_length, quiet_length, periods,
                  distinct_rows, json);

  std::printf(
      "\n(%lld WindowedSketch window queries cross-checked exactly against\n"
      " the hand-merged per-epoch construction)\n",
      static_cast<long long>(window_cross_checks));
  std::printf(
      "\n(paper: DSS ~100%% error on epochs 1-9 and ~50x USS on 9-10;\n"
      " USS only loses on epochs worth <0.002%% of the total. The decayed\n"
      " sketch is scored against the analytically decayed truth; the\n"
      " window merge is scored on the newest epoch of each %d-epoch\n"
      " window, answered by the src/window epoch ring.\n"
      " Bursty/all-distinct are the remaining §6.3 pathological\n"
      " patterns: USS keeps the hot burst item and stays unbiased on the\n"
      " fresh-item mass, while the all-distinct stream is worst-case for\n"
      " both — every bin holds count 1 and subset estimates ride on the\n"
      " sampled labels alone)\n",
      window);
}

}  // namespace
}  // namespace dsketch

int main(int argc, char** argv) {
  dsketch::Run(argc, argv);
  return 0;
}
