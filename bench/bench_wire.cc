// Wire-format benchmark: encode/decode throughput and bytes-per-entry
// for wire v1 (fixed 16 B/entry) vs v2 (varint/delta) across sketch
// capacities, on the Zipf(1.1) workload the v2 layout targets (small
// item ids, long near-minimum count tail), plus the frozen image (kind
// 8): its size premium over v2, freeze throughput, and the
// restore-to-first-answer latency cliff — v2 must decode O(n) entries
// before the first query, the frozen image answers after an O(1) vet.
// Records machine-readable baselines with --json=PATH (see
// bench/record_baselines.sh).
//
// Flags: --zipf_s=1.1 --max_cap=65536 --reps=0 (0 = auto-scale so each
// timed loop processes a few million entries); --smoke runs the frozen
// bit-identity assertions instead (CI gate: frozen SUM / TOPK / GROUPBY
// answers must equal the thawed sketch's, bit for bit).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "core/frequent_items.h"
#include "core/serialization.h"
#include "core/subset_sum.h"
#include "core/unbiased_space_saving.h"
#include "query/attribute_table.h"
#include "query/engine.h"
#include "query/frozen_source.h"
#include "query/predicate.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/span.h"
#include "wire/frozen.h"

namespace dsketch {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Builds a full sketch over a Zipf(s) stream with ~2x capacity distinct
// items, so every bin is labeled (the worst case for v2's delta tail).
UnbiasedSpaceSaving BuildSketch(size_t capacity, double s) {
  std::vector<int64_t> counts =
      ZipfCounts(2 * capacity, s, static_cast<int64_t>(8 * capacity));
  std::vector<uint64_t> stream = SortedStream(counts, /*ascending=*/false);
  UnbiasedSpaceSaving sketch(capacity, 7);
  sketch.UpdateBatch(Span<const uint64_t>(stream.data(), stream.size()));
  return sketch;
}

struct OpStats {
  double mb_per_s = 0.0;
  double entries_per_s = 0.0;
};

template <typename Fn>
OpStats Time(int64_t reps, size_t bytes, size_t entries, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  for (int64_t r = 0; r < reps; ++r) fn();
  const double secs = SecondsSince(start);
  OpStats out;
  if (secs > 0.0) {
    out.mb_per_s = static_cast<double>(bytes) * static_cast<double>(reps) /
                   secs / 1e6;
    out.entries_per_s = static_cast<double>(entries) *
                        static_cast<double>(reps) / secs;
  }
  return out;
}

// CI gate (--smoke): frozen answers must be bit-identical to the thawed
// sketch's across the whole query surface. The reference is the THAWED
// image (freeze -> thaw round trip), which is also what a replica's
// peers compute — the canonical entry order makes the two paths traverse
// identical sequences. Exits non-zero on the first mismatch.
int RunSmoke(double s) {
  const size_t capacity = 4096;
  UnbiasedSpaceSaving sketch = BuildSketch(capacity, s);
  const std::string image = SerializeFrozen(sketch);

  std::optional<UnbiasedSpaceSaving> thawed = ThawFrozen(image, 3);
  if (!thawed.has_value()) {
    std::fprintf(stderr, "smoke: FAILED — freeze -> thaw round trip\n");
    return 1;
  }
  std::optional<FrozenSketchSource> source =
      FrozenSketchSource::FromBlob(image);
  if (!source.has_value() || !source->Validate()) {
    std::fprintf(stderr, "smoke: FAILED — frozen image vet/validate\n");
    return 1;
  }

  // Attribute table covering every tracked item: dim0 = item % 7,
  // dim1 = item % 3 — enough structure for selective predicates and
  // multi-group group-bys.
  uint64_t max_item = 0;
  for (const SketchEntry& e : thawed->Entries()) {
    max_item = std::max(max_item, e.item);
  }
  AttributeTable attrs(2);
  for (uint64_t i = 0; i <= max_item; ++i) {
    attrs.AddItem({static_cast<uint32_t>(i % 7),
                   static_cast<uint32_t>(i % 3)});
  }
  SketchQueryEngine frozen_engine(&*source, &attrs);
  SketchQueryEngine thawed_engine(&*thawed, &attrs);

  auto fail = [](const char* what) {
    std::fprintf(stderr, "smoke: FAILED — frozen %s != thawed %s\n", what,
                 what);
    return 1;
  };
  auto same = [](const SubsetSumEstimate& a, const SubsetSumEstimate& b) {
    return a.estimate == b.estimate && a.variance == b.variance &&
           a.items_in_sample == b.items_in_sample;
  };

  // SUM: unfiltered plus every dim0 selectivity.
  if (!same(frozen_engine.Sum(Predicate()), thawed_engine.Sum(Predicate()))) {
    return fail("SUM (match-all)");
  }
  for (uint32_t v = 0; v < 7; ++v) {
    Predicate where;
    where.WhereEq(0, v);
    if (!same(frozen_engine.Sum(where), thawed_engine.Sum(where))) {
      return fail("SUM (filtered)");
    }
  }

  // TOPK at several k, off the image's native order.
  for (size_t k : {size_t{1}, size_t{10}, size_t{257}, sketch.size()}) {
    std::vector<SketchEntry> frozen_top = FrozenTopK(source->frozen(), k);
    std::vector<SketchEntry> thawed_top = TopK(*thawed, k);
    if (frozen_top.size() != thawed_top.size()) return fail("TOPK size");
    for (size_t i = 0; i < frozen_top.size(); ++i) {
      if (frozen_top[i].item != thawed_top[i].item ||
          frozen_top[i].count != thawed_top[i].count) {
        return fail("TOPK entries");
      }
    }
  }

  // GROUPBY: 1-way on each dim and the 2-way cross, filtered and not.
  Predicate filter;
  filter.WhereIn(1, {0, 2});
  for (const Predicate* where : {&filter, static_cast<Predicate*>(nullptr)}) {
    const Predicate& pred = where != nullptr ? *where : Predicate();
    for (size_t dim = 0; dim < 2; ++dim) {
      auto frozen_groups = frozen_engine.GroupBy1(dim, pred);
      auto thawed_groups = thawed_engine.GroupBy1(dim, pred);
      if (frozen_groups.size() != thawed_groups.size()) {
        return fail("GROUPBY group count");
      }
      for (const auto& [key, est] : frozen_groups) {
        auto it = thawed_groups.find(key);
        if (it == thawed_groups.end() || !same(est, it->second)) {
          return fail("GROUPBY estimates");
        }
      }
    }
    auto frozen2 = frozen_engine.GroupBy2(0, 1, pred);
    auto thawed2 = thawed_engine.GroupBy2(0, 1, pred);
    if (frozen2.size() != thawed2.size()) return fail("GROUPBY2 group count");
    for (const auto& [key, est] : frozen2) {
      auto it = thawed2.find(key);
      if (it == thawed2.end() || !same(est, it->second)) {
        return fail("GROUPBY2 estimates");
      }
    }
  }

  // Point estimates through the hash index, including untracked items.
  for (const SketchEntry& e : thawed->Entries()) {
    if (source->frozen().EstimateCount(e.item) !=
        thawed->EstimateCount(e.item)) {
      return fail("EstimateCount (tracked)");
    }
  }
  for (uint64_t probe = max_item + 1; probe < max_item + 100; ++probe) {
    if (source->frozen().EstimateCount(probe) != 0) {
      return fail("EstimateCount (untracked)");
    }
  }

  std::printf(
      "smoke: OK — frozen SUM/TOPK/GROUPBY bit-identical to thawed over "
      "%zu entries (%zu image bytes)\n",
      sketch.size(), image.size());
  return 0;
}

void Run(int argc, char** argv) {
  const double s = bench::FlagDouble(argc, argv, "zipf_s", 1.1);
  const int64_t max_cap = bench::FlagInt(argc, argv, "max_cap", 65536);
  const int64_t reps_flag = bench::FlagInt(argc, argv, "reps", 0);
  bench::JsonSink json(argc, argv, "wire");

  bench::Banner("Wire format: v1 (fixed-width) vs v2 (varint/delta)",
                "paper §5.5 (sketches shipped over the network)");
  std::printf("\n%-9s %9s %9s %7s | %-9s %11s %11s\n", "capacity",
              "v1_B/ent", "v2_B/ent", "v2/v1", "op", "v1_MB/s", "v2_MB/s");

  for (size_t capacity = 1024; capacity <= static_cast<size_t>(max_cap);
       capacity *= 4) {
    UnbiasedSpaceSaving sketch = BuildSketch(capacity, s);
    const size_t entries = sketch.size();
    const std::string v1 = SerializeV1(sketch);
    const std::string v2 = Serialize(sketch);
    const double v1_per_entry =
        static_cast<double>(v1.size()) / static_cast<double>(entries);
    const double v2_per_entry =
        static_cast<double>(v2.size()) / static_cast<double>(entries);
    const double ratio =
        static_cast<double>(v2.size()) / static_cast<double>(v1.size());

    const int64_t reps =
        reps_flag > 0 ? reps_flag
                      : std::max<int64_t>(3, 2000000 / static_cast<int64_t>(
                                                           capacity));
    size_t sink = 0;  // keeps the timed loops observable
    OpStats enc_v1 = Time(reps, v1.size(), entries,
                          [&] { sink += SerializeV1(sketch).size(); });
    OpStats enc_v2 = Time(reps, v2.size(), entries,
                          [&] { sink += Serialize(sketch).size(); });
    OpStats dec_v1 = Time(reps, v1.size(), entries, [&] {
      sink += DeserializeUnbiased(v1, 3).has_value() ? 1 : 0;
    });
    OpStats dec_v2 = Time(reps, v2.size(), entries, [&] {
      sink += DeserializeUnbiased(v2, 3).has_value() ? 1 : 0;
    });

    std::printf("%-9zu %9.2f %9.2f %6.0f%% | %-9s %11.1f %11.1f\n", capacity,
                v1_per_entry, v2_per_entry, 100.0 * ratio, "encode",
                enc_v1.mb_per_s, enc_v2.mb_per_s);
    std::printf("%-9s %9s %9s %7s | %-9s %11.1f %11.1f\n", "", "", "", "",
                "decode", dec_v1.mb_per_s, dec_v2.mb_per_s);
    if (sink == 0) std::printf("(unreachable)\n");

    // Frozen image: size premium over v2, freeze throughput, and the
    // restore-to-first-answer cliff. "Restore" for v2 is the full O(n)
    // decode; for the frozen image it is the O(1) vet — both are then
    // charged one point query so each path ends at the same first
    // answer.
    const std::string frozen = SerializeFrozen(sketch);
    const double frozen_per_entry =
        static_cast<double>(frozen.size()) / static_cast<double>(entries);
    const double frozen_over_v2 =
        static_cast<double>(frozen.size()) / static_cast<double>(v2.size());
    OpStats freeze = Time(reps, frozen.size(), entries,
                          [&] { sink += SerializeFrozen(sketch).size(); });

    const uint64_t probe = sketch.Entries().front().item;
    auto start = std::chrono::steady_clock::now();
    for (int64_t r = 0; r < reps; ++r) {
      std::optional<UnbiasedSpaceSaving> restored = DeserializeUnbiased(v2, 3);
      sink += static_cast<size_t>(restored->EstimateCount(probe));
    }
    const double v2_restore_us = SecondsSince(start) / reps * 1e6;

    // The frozen path is ns-scale: run many more reps to get a stable
    // per-op figure.
    const int64_t frozen_reps = std::max<int64_t>(reps * 64, 100000);
    start = std::chrono::steady_clock::now();
    for (int64_t r = 0; r < frozen_reps; ++r) {
      std::optional<wire::FrozenView> view = wire::FrozenView::Vet(frozen);
      sink += static_cast<size_t>(view->EstimateCount(probe));
    }
    const double frozen_restore_us = SecondsSince(start) / frozen_reps * 1e6;
    const double restore_speedup =
        frozen_restore_us > 0.0 ? v2_restore_us / frozen_restore_us : 0.0;

    std::printf(
        "%-9s frozen: %5.1f B/ent (%3.0f%% of v2) | freeze %7.1f MB/s | "
        "restore-to-first-answer %9.1f us (v2) vs %6.2f us (frozen) = "
        "%.0fx\n",
        "", frozen_per_entry, 100.0 * frozen_over_v2, freeze.mb_per_s,
        v2_restore_us, frozen_restore_us, restore_speedup);

    if (json.enabled()) {
      json.BeginRecord("frozen");
      json.Add("capacity", static_cast<int64_t>(capacity));
      json.Add("entries", static_cast<int64_t>(entries));
      json.Add("frozen_bytes", static_cast<int64_t>(frozen.size()));
      json.Add("frozen_bytes_per_entry", frozen_per_entry);
      json.Add("frozen_over_v2", frozen_over_v2);
      json.Add("freeze_mb_per_s", freeze.mb_per_s);
      json.Add("v2_restore_us", v2_restore_us);
      json.Add("frozen_restore_us", frozen_restore_us);
      json.Add("restore_speedup", restore_speedup);
    }

    if (json.enabled()) {
      json.BeginRecord("size");
      json.Add("capacity", static_cast<int64_t>(capacity));
      json.Add("entries", static_cast<int64_t>(entries));
      json.Add("zipf_s", s);
      json.Add("v1_bytes", static_cast<int64_t>(v1.size()));
      json.Add("v2_bytes", static_cast<int64_t>(v2.size()));
      json.Add("v1_bytes_per_entry", v1_per_entry);
      json.Add("v2_bytes_per_entry", v2_per_entry);
      json.Add("v2_over_v1", ratio);
      for (const auto& [op, st_v1, st_v2] :
           {std::tuple<const char*, OpStats, OpStats>{"encode", enc_v1,
                                                      enc_v2},
            std::tuple<const char*, OpStats, OpStats>{"decode", dec_v1,
                                                      dec_v2}}) {
        json.BeginRecord("throughput");
        json.Add("capacity", static_cast<int64_t>(capacity));
        json.Add("op", std::string(op));
        json.Add("reps", reps);
        json.Add("v1_mb_per_s", st_v1.mb_per_s);
        json.Add("v1_entries_per_s", st_v1.entries_per_s);
        json.Add("v2_mb_per_s", st_v2.mb_per_s);
        json.Add("v2_entries_per_s", st_v2.entries_per_s);
      }
    }
  }

  std::printf(
      "\n(v2 targets the entry lists the distributed merge ships: varint\n"
      " items + delta-encoded descending counts; weights stay fixed64)\n");
}

}  // namespace
}  // namespace dsketch

int main(int argc, char** argv) {
  if (dsketch::bench::FlagSet(argc, argv, "smoke")) {
    const double s = dsketch::bench::FlagDouble(argc, argv, "zipf_s", 1.1);
    return dsketch::RunSmoke(s);
  }
  dsketch::Run(argc, argv);
  return 0;
}
