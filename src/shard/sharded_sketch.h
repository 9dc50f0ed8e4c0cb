// Sharded concurrent front-end for the Space Saving family.
//
// One ingest thread partitions rows by item hash across N shards; each
// shard owns a core-local sketch and a bounded, mutex-guarded inbox that
// a dedicated worker (or a waiting producer, when the worker is idle)
// drains in enqueue order with the batched UpdateBatch path; the worker
// sleeps while the inbox is empty, so an idle fleet uses no CPU.
// Because the hash partition sends every distinct item to exactly
// one shard, and the §4/§5.3 merge is unbiased for arbitrary splits of
// the stream (Theorem 2), Snapshot() — merge of the per-shard sketches —
// gives unbiased subset-sum estimates over the full stream, and every
// downstream estimator (subset sums, CIs, top-k, the query engine) works
// on it unchanged. The partition also means no two shards hold the same
// label, so Snapshot() reads each shard's bins in place and skips the
// merge's label combine (PartLabels::kDisjoint); only an absorbed remote
// can repeat a label, and with one present the combine runs. Either way
// the merged bytes equal MergeAll over Parts().
//
// Determinism: with a fixed options.seed, the partition, the per-shard
// streams (single producer preserves order within a shard), the per-shard
// sketches, and the snapshot merge are all independent of thread timing,
// so runs are reproducible despite the concurrency.
//
// Threading contract: one thread calls Ingest/IngestSerialized/Flush/
// Parts/Snapshot (single producer); the destructor stops and joins the
// workers. Parts() and Snapshot() flush first; shard() is safe only
// after a Flush with no concurrent Ingest: Flush observes every row
// applied under the shard's inbox mutex, which orders the drains'
// sketch writes before the producer's reads, and no drain runs again
// until the next Ingest.
//
// Replication: SerializeSnapshot() ships the merged state as wire-format
// bytes and IngestSerialized() absorbs a peer's bytes (any supported
// wire version) as an extra shard, so sharded fleets exchange state as
// byte payloads — the primitive the streaming-service layer replicates
// with.

#ifndef DSKETCH_SHARD_SHARDED_SKETCH_H_
#define DSKETCH_SHARD_SHARDED_SKETCH_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/merge.h"
#include "core/serialization.h"
#include "core/unbiased_space_saving.h"
#include "core/weighted_space_saving.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flat_map.h"
#include "util/logging.h"
#include "util/span.h"

namespace dsketch {

// Shard-layer telemetry (obs/metrics.h), shared by every fleet in the
// process and keyed by shard index: a counts, weighted, and windowed
// fleet with the same shard count aggregate into the same per-shard
// series. Handles are registered at fleet construction and cached in
// the Shard, so the ingest/worker paths only touch relaxed atomics.
namespace shard_metrics {

inline obs::Counter& RowsIngested(size_t shard_index) {
  return obs::MetricsRegistry::Global().GetCounter(
      "dsketch_shard_rows_ingested_total{shard=\"" +
      std::to_string(shard_index) + "\"}");
}

inline obs::Gauge& QueueDepthHighwater(size_t shard_index) {
  return obs::MetricsRegistry::Global().GetGauge(
      "dsketch_shard_queue_depth_highwater{shard=\"" +
      std::to_string(shard_index) + "\"}");
}

}  // namespace shard_metrics

/// Unbiased merge of a fleet's parts: MergeAll (core/merge.h), one final
/// pairwise-PPS reduction over all entries. Takes pointers so callers
/// merge sketches they cannot or need not copy, e.g. ShardedSketch's
/// absorbed remote snapshots. `labels` is the fleet's part_labels().
UnbiasedSpaceSaving MergeShards(
    const std::vector<const UnbiasedSpaceSaving*>& shards, size_t capacity,
    uint64_t seed, PartLabels labels = PartLabels::kMayRepeat);

/// Weighted form: the weighted MergeAll, which preserves the total
/// weight.
WeightedSpaceSaving MergeShards(
    const std::vector<const WeightedSpaceSaving*>& shards, size_t capacity,
    uint64_t seed, PartLabels labels = PartLabels::kMayRepeat);

/// Row type a shard inbox carries for sketch type `S`, and how the
/// partitioner extracts the routing label from one row. Integer-count
/// sketches ship bare item labels; weighted sketches ship (item, weight)
/// entries so every row keeps its real-valued weight through the inbox.
template <typename S>
struct ShardRow {
  using Type = uint64_t;
  static uint64_t ItemOf(uint64_t row) { return row; }
};

template <>
struct ShardRow<WeightedSpaceSaving> {
  using Type = WeightedEntry;
  static uint64_t ItemOf(const WeightedEntry& row) { return row.item; }
};

/// Tuning knobs for ShardedSketch.
struct ShardedSketchOptions {
  size_t num_shards = 4;          ///< worker threads / core-local sketches
  size_t shard_capacity = 4096;   ///< bins per shard sketch
  size_t queue_capacity = 65536;  ///< rows a shard holds before Ingest waits
  size_t batch_size = 1024;       ///< rows per UpdateBatch call in a drain
  uint64_t seed = 1;              ///< shard i seeds its sketch with seed+i
};

/// Concurrent sharded front-end over sketch type `S`. `S` must provide
/// S(capacity, seed), UpdateBatch(Span<const ShardRow<S>::Type>), a
/// MergeShards(const std::vector<const S*>&, capacity, seed, PartLabels)
/// overload, and a SketchWire<S> specialization for snapshot
/// replication.
template <typename S>
class ShardedSketch {
 public:
  /// What one enqueued row looks like for this sketch type.
  using Row = typename ShardRow<S>::Type;

  /// Builds the shard sketch for partition `i` (lets sketch types whose
  /// constructor is not (capacity, seed) — e.g. the windowed epoch ring —
  /// ride the same front-end).
  using ShardFactory = std::function<S(size_t)>;

  explicit ShardedSketch(const ShardedSketchOptions& options)
      : ShardedSketch(options, [&options](size_t i) {
          return S(options.shard_capacity, options.seed + i);
        }) {}

  ShardedSketch(const ShardedSketchOptions& options,
                const ShardFactory& factory)
      : options_(options) {
    DSKETCH_CHECK(options.num_shards > 0);
    DSKETCH_CHECK(options.shard_capacity > 0);
    DSKETCH_CHECK(options.queue_capacity > 0);
    DSKETCH_CHECK(options.batch_size > 0);
    shards_.reserve(options.num_shards);
    staging_.resize(options.num_shards);
    for (size_t i = 0; i < options.num_shards; ++i) {
      shards_.push_back(
          std::make_unique<Shard>(i, factory, options.queue_capacity));
    }
    for (auto& shard : shards_) {
      shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(*s); });
    }
  }

  ~ShardedSketch() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->inbox_mu);
      shard->stop = true;
      shard->work.notify_one();
    }
    for (auto& shard : shards_) shard->worker.join();
  }

  ShardedSketch(const ShardedSketch&) = delete;
  ShardedSketch& operator=(const ShardedSketch&) = delete;

  /// Routes `rows` to their shards and enqueues them (waiting while a
  /// destination inbox is full). Single producer.
  void Ingest(Span<const Row> items) {
    obs::ScopedSpan span("shard_enqueue", obs::TraceLayer::kShard);
    span.Annotate("rows", items.size());
    for (const Row& row : items) {
      staging_[ShardOf(ShardRow<S>::ItemOf(row))].push_back(row);
    }
    for (size_t s = 0; s < staging_.size(); ++s) {
      std::vector<Row>& rows = staging_[s];
      if (rows.empty()) continue;
      Shard& shard = *shards_[s];
      std::unique_lock<std::mutex> lock(shard.inbox_mu);
      for (size_t done = 0;;) {
        const size_t n = std::min(rows.size() - done,
                                  options_.queue_capacity - shard.inbox.size());
        shard.inbox.insert(shard.inbox.end(), rows.begin() + done,
                           rows.begin() + done + n);
        shard.enqueued += n;
        done += n;
        if (done == rows.size()) break;
        shard.work.notify_one();
        WaitUntil(shard, lock, [&] {
          return shard.inbox.size() < options_.queue_capacity;
        });
      }
      // Queue-pressure high-water mark: rows enqueued but not yet
      // applied, sampled once per shard per Ingest (not per row).
      shard.queue_highwater->RaiseTo(
          static_cast<int64_t>(shard.enqueued - shard.applied));
      lock.unlock();
      shard.work.notify_one();
      rows.clear();
    }
  }

  /// Blocks until every enqueued row has been applied to its shard sketch.
  void Flush() {
    obs::ScopedSpan span("shard_drain", obs::TraceLayer::kShard);
    for (auto& shard : shards_) {
      std::unique_lock<std::mutex> lock(shard->inbox_mu);
      WaitUntil(*shard, lock,
                [&] { return shard->applied == shard->enqueued; });
    }
  }

  /// Flushes, then returns every part of the fleet's state: the shard
  /// sketches in partition order, then the absorbed remotes in
  /// absorption order. After Flush no drain runs, so the parts are read
  /// in place; the pointers stay valid until the next Ingest or
  /// IngestSerialized.
  std::vector<const S*> Parts() {
    Flush();
    std::vector<const S*> parts;
    parts.reserve(shards_.size() + remotes_.size());
    for (auto& shard : shards_) parts.push_back(&shard->sketch);
    for (const S& remote : remotes_) parts.push_back(&remote);
    return parts;
  }

  /// Whether the fleet's parts can share a label. The local shards
  /// cannot: ShardOf routes every label to one shard, and a sketch holds
  /// a label at most once. Only an absorbed remote can repeat a label,
  /// so merges skip the label combine until the first IngestSerialized.
  PartLabels part_labels() const {
    return remotes_.empty() ? PartLabels::kDisjoint : PartLabels::kMayRepeat;
  }

  /// Flushes, then merges the per-shard sketches into one sketch with
  /// `capacity` bins. Estimates from the result are unbiased (Theorem 2);
  /// deterministic given the ingested stream and seeds, and equal byte
  /// for byte to MergeAll over Parts().
  S Snapshot(size_t capacity, uint64_t seed = 1) {
    // Parts() flushes, nesting its shard_drain span under this one.
    obs::ScopedSpan span("snapshot_merge", obs::TraceLayer::kShard);
    span.Annotate("shards", shards_.size());
    return MergeShards(Parts(), capacity, seed, part_labels());
  }

  /// Flushes, then sums the shards' and absorbed remotes' totals: equal
  /// to Snapshot(...).TotalCount() for any capacity and seed (the
  /// pairwise reduction preserves the total), without merging.
  int64_t TotalCount() {
    int64_t total = 0;
    for (const S* part : Parts()) total += part->TotalCount();
    return total;
  }

  /// Serializes Snapshot(capacity, seed) with the current wire format —
  /// the replication payload a peer absorbs with IngestSerialized().
  std::string SerializeSnapshot(size_t capacity, uint64_t seed = 1) {
    return SketchWire<S>::Serialize(Snapshot(capacity, seed));
  }

  /// Absorbs a serialized sketch (any supported wire version — e.g. a
  /// peer's SerializeSnapshot or a v1 blob from an old writer) into this
  /// sketch's state: the decoded sketch joins the shard set, and
  /// Snapshot() merges it with the locally ingested rows under the same
  /// unbiased reduction. Call from the producer thread only. Returns
  /// false (leaving the state untouched) on malformed bytes, and on
  /// a decoded sketch that `admit(const S&)` refuses.
  template <typename Admit>
  bool IngestSerialized(std::string_view bytes, Admit admit) {
    std::optional<S> restored = SketchWire<S>::Deserialize(
        bytes, options_.seed + num_shards() + remotes_.size());
    if (!restored.has_value() || !admit(*restored)) return false;
    remotes_.push_back(std::move(*restored));
    return true;
  }

  bool IngestSerialized(std::string_view bytes) {
    return IngestSerialized(bytes, [](const S&) { return true; });
  }

  /// Sketches absorbed via IngestSerialized so far.
  size_t num_absorbed() const { return remotes_.size(); }

  /// Rows handed to Ingest so far (rows inside absorbed serialized
  /// sketches are not included; see num_absorbed()).
  int64_t RowsIngested() const {
    int64_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->inbox_mu);
      total += static_cast<int64_t>(shard->enqueued);
    }
    return total;
  }

  /// Number of shards.
  size_t num_shards() const { return shards_.size(); }

  /// The shard sketch fed by partition `i`. Call only after Flush() with
  /// no concurrent Ingest.
  const S& shard(size_t i) const { return shards_[i]->sketch; }

  /// The shard partition `item` routes to (exposed for tests).
  size_t ShardOf(uint64_t item) const {
    // High mixed bits, scaled: independent of the low bits FlatMap homes
    // on, so shard-local hash tables stay uniformly filled.
    const uint64_t h = FlatMap<uint32_t>::MixedHash(item) >> 32;
    return static_cast<size_t>((h * shards_.size()) >> 32);
  }

 private:
  struct Shard {
    Shard(size_t i, const ShardFactory& factory, size_t queue_capacity)
        : sketch(factory(i)),
          taken(queue_capacity),
          inbox(queue_capacity),
          rows_metric(&shard_metrics::RowsIngested(i)),
          queue_highwater(&shard_metrics::QueueDepthHighwater(i)) {
      // Zero-filled up front, so the footprint never grows with lag.
      taken.clear();
      inbox.clear();
    }

    // Written only by the thread that set `busy` (the worker or the
    // producer), while it drains outside the lock.
    S sketch;
    std::vector<Row> taken;  // the drained inbox; ping-pongs with `inbox`

    // Guards the members below. On its own cache line: a waiting
    // producer locks it in a loop while a drain writes the sketch.
    alignas(64) mutable std::mutex inbox_mu;
    std::condition_variable work;  // inbox non-empty, or stop
    std::vector<Row> inbox;
    uint64_t enqueued = 0;
    uint64_t applied = 0;
    bool busy = false;  // a drain is applying `taken` to `sketch`
    bool stop = false;

    // Telemetry handles, registered once and bumped lock-free.
    obs::Counter* rows_metric;
    obs::Gauge* queue_highwater;
    std::thread worker;
  };

  // Applies the whole inbox to the sketch in batch_size UpdateBatch
  // chunks, outside the lock; needs `lock` held, !busy and a non-empty
  // inbox, and relocks. The swap keeps both buffers' size: no allocation.
  void Drain(Shard& shard, std::unique_lock<std::mutex>& lock) {
    shard.inbox.swap(shard.taken);
    shard.busy = true;
    lock.unlock();
    const size_t n = shard.taken.size();
    for (size_t pos = 0; pos < n; pos += options_.batch_size) {
      shard.sketch.UpdateBatch(Span<const Row>(
          shard.taken.data() + pos, std::min(options_.batch_size, n - pos)));
    }
    shard.taken.clear();
    shard.rows_metric->Inc(n);  // per drain, not per row
    lock.lock();
    shard.applied += n;
    shard.busy = false;
  }

  // The producer's wait (full inbox, Flush): while `done` is false, drain
  // the inbox itself if the worker is idle, else yield — the worker is
  // mid-drain, so the wait is bounded. Spinning rather than sleeping
  // keeps a query after fresh rows from paying two thread wake-ups.
  template <typename Done>
  void WaitUntil(Shard& shard, std::unique_lock<std::mutex>& lock,
                 Done done) {
    while (!done()) {
      if (!shard.busy) {
        Drain(shard, lock);
        continue;
      }
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  }

  void WorkerLoop(Shard& shard) {
    std::unique_lock<std::mutex> lock(shard.inbox_mu);
    while (true) {
      shard.work.wait(lock, [&] {
        return shard.stop || (!shard.busy && !shard.inbox.empty());
      });
      if (shard.inbox.empty()) return;  // stopped, nothing left
      Drain(shard, lock);
    }
  }

  ShardedSketchOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::vector<Row>> staging_;  // per-shard routing buffers
  std::vector<S> remotes_;  // sketches absorbed via IngestSerialized
};

/// The concurrent front-end for the paper's primary sketch.
using ShardedSpaceSaving = ShardedSketch<UnbiasedSpaceSaving>;

/// The concurrent front-end for real-valued (item, weight) rows — the
/// §5.3 weighted generalization behind the service layer's weighted
/// ingest path.
using ShardedWeightedSpaceSaving = ShardedSketch<WeightedSpaceSaving>;

}  // namespace dsketch

#endif  // DSKETCH_SHARD_SHARDED_SKETCH_H_
