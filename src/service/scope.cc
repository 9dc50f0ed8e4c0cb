#include "service/scope.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/frequent_items.h"
#include "core/serialization.h"
#include "query/engine.h"
#include "query/windowed_source.h"
#include "service/server.h"
#include "shard/sharded_sketch.h"
#include "wire/codec.h"

namespace dsketch {

namespace {

// Offsets separating the weighted and windowed fleets' seeds from counts'.
constexpr uint64_t kWeightedSeedOffset = 7777;
constexpr uint64_t kWindowSeedOffset = 8888;

ShardedSketchOptions OffsetSeed(ShardedSketchOptions shard, uint64_t offset) {
  shard.seed += offset;
  return shard;
}

// The engine needs a table; without one the server allows no conditions.
const AttributeTable& TableOrEmpty(const AttributeTable* attrs) {
  static const AttributeTable* const empty = new AttributeTable(1);
  return attrs != nullptr ? *attrs : *empty;
}

// SubsetSumEstimate and WeightedSubsetSum answer alike on the wire.
template <typename Estimate>
QuerySumResponse SumResponse(const Estimate& est) {
  return {est.estimate, est.variance, est.items_in_sample};
}

// QUERY_GROUPBY over an engine, in key order (its maps are unordered).
void GroupByOn(const SketchQueryEngine& engine,
               const QueryGroupByRequest& req, const Predicate& where,
               QueryGroupByResponse* out) {
  auto add_all = [out](const auto& groups) {
    for (const auto& [key, est] : groups) {
      out->groups.push_back(
          {key, est.estimate, est.variance, est.items_in_sample});
    }
  };
  const size_t dim1 = static_cast<size_t>(req.dim1);
  if (req.has_dim2) {
    add_all(engine.GroupBy2(dim1, static_cast<size_t>(req.dim2), where));
  } else {
    add_all(engine.GroupBy1(dim1, where));
  }
  std::sort(out->groups.begin(), out->groups.end(),
            [](const GroupRow& a, const GroupRow& b) { return a.key < b.key; });
}

// Unit rows in a ShardedSketchSource, queried through the engine.
class CountsScope : public Scope {
 public:
  CountsScope(const SketchServerOptions& options, const AttributeTable* attrs)
      : source_(options.shard, options.merged_capacity, options.seed),
        engine_(&source_, &TableOrEmpty(attrs)) {}

  Status Ingest(const IngestBatchRequest& req) override {
    if (!source_.Ingest(
            Span<const uint64_t>(req.items.data(), req.items.size()))) {
      return Status::kTooLarge;  // the total count would pass INT64_MAX
    }
    rows_ += req.items.size();
    return Status::kOk;
  }
  Status Sum(const QuerySumRequest&, const Predicate& where,
             QuerySumResponse* out) override {
    *out = SumResponse(engine_.Sum(where));
    return Status::kOk;
  }
  // View() flushes the fleet whenever rows are pending.
  Status TopK(const QueryTopKRequest& req, QueryTopKResponse* out) override {
    out->counts = dsketch::TopK(source_.View(), static_cast<size_t>(req.k));
    return Status::kOk;
  }
  Status GroupBy(const QueryGroupByRequest& req, const Predicate& where,
                 QueryGroupByResponse* out) override {
    GroupByOn(engine_, req, where, out);
    return Status::kOk;
  }
  Status Snapshot(bool frozen, std::string* blob,
                  SnapshotFormat* format) override {
    if (frozen) *format = SnapshotFormat::kFrozen;
    *blob = frozen ? SerializeFrozen(source_.View()) : source_.SaveSnapshot();
    return Status::kOk;
  }
  Status Restore(std::string_view blob, uint64_t* num_absorbed) override {
    if (!source_.RestoreSnapshot(blob)) return Status::kBadState;
    *num_absorbed = source_.sharded().num_absorbed();
    return Status::kOk;
  }
  void FillStats(StatsResponse* out) override {
    out->rows_ingested = rows_;
    // Exact without building the merged view; still a Flush barrier.
    out->total_count = source_.sharded().TotalCount();
  }
  ShardedSketchSource* source() override { return &source_; }

 private:
  ShardedSketchSource source_;
  SketchQueryEngine engine_;
  uint64_t rows_ = 0;
};

// (item, weight) rows, queried on a merged view re-merged only after the
// fleet changed (like ShardedSketchSource's cache). No frozen form.
class WeightedScope : public Scope {
 public:
  WeightedScope(const SketchServerOptions& options, const AttributeTable* attrs)
      : fleet_(OffsetSeed(options.shard, kWeightedSeedOffset)),
        attrs_(TableOrEmpty(attrs)),
        merged_capacity_(options.merged_capacity),
        merge_seed_(options.seed + kWeightedSeedOffset),
        view_(options.merged_capacity, options.seed) {}

  Status Ingest(const IngestBatchRequest& req) override {
    double batch = 0.0;
    for (double weight : req.weights) batch += weight;
    // An infinite sum fails this too.
    if (!(batch <= kMaxWeightedTotal - total_)) return Status::kTooLarge;
    std::vector<WeightedEntry> rows;
    rows.reserve(req.items.size());
    for (size_t i = 0; i < req.items.size(); ++i) {
      rows.push_back({req.items[i], req.weights[i]});
    }
    fleet_.Ingest(Span<const WeightedEntry>(rows.data(), rows.size()));
    dirty_ = true;
    rows_ += rows.size();
    total_ += batch;
    return Status::kOk;
  }
  // Real weights are order-sensitive, so this keeps the weighted sketch's
  // own double accumulation in entry order; only the filter is compiled.
  Status Sum(const QuerySumRequest&, const Predicate& where,
             QuerySumResponse* out) override {
    const CompiledPredicate match = where.Compile(attrs_);
    *out = SumResponse(EstimateSubsetSum(
        View(), [&match](uint64_t item) { return match.Matches(item); }));
    return Status::kOk;
  }
  Status TopK(const QueryTopKRequest& req, QueryTopKResponse* out) override {
    out->weighted = View().Entries();
    out->weighted.resize(std::min<size_t>(out->weighted.size(), req.k));
    return Status::kOk;
  }
  Status Snapshot(bool frozen, std::string* blob, SnapshotFormat*) override {
    if (frozen) return Status::kUnsupported;
    *blob = SketchWire<WeightedSpaceSaving>::Serialize(View());
    return Status::kOk;
  }
  Status Restore(std::string_view blob, uint64_t* num_absorbed) override {
    double absorbed = 0.0;
    if (!fleet_.IngestSerialized(blob, [&](const WeightedSpaceSaving& s) {
          absorbed = s.TotalWeight();
          return absorbed <= kMaxWeightedTotal - total_;
        })) {
      return Status::kBadState;
    }
    dirty_ = true;
    total_ += absorbed;
    *num_absorbed = fleet_.num_absorbed();
    return Status::kOk;
  }
  void FillStats(StatsResponse* out) override {
    out->weighted_rows_ingested = rows_;
    out->total_weight = View().TotalWeight();
  }

 private:
  const WeightedSpaceSaving& View() {
    if (dirty_) {
      view_ = fleet_.Snapshot(merged_capacity_, merge_seed_);
      dirty_ = false;
    }
    return view_;
  }

  ShardedWeightedSpaceSaving fleet_;
  const AttributeTable& attrs_;
  size_t merged_capacity_;
  uint64_t merge_seed_;
  WeightedSpaceSaving view_;
  bool dirty_ = false;
  uint64_t rows_ = 0;
  double total_ = 0.0;  // weight ingested plus absorbed, <= the cap
};

// Epoch-stamped rows in a WindowedSketchSource; queries read the newest
// last_k epochs, SNAPSHOT/RESTORE move the whole ring. No frozen form.
class WindowScope : public Scope {
 public:
  WindowScope(const SketchServerOptions& options, const AttributeTable* attrs)
      : source_(OffsetSeed(options.shard, kWindowSeedOffset),
                RingOptions(options)),
        engine_(&source_, &TableOrEmpty(attrs)) {}

  Status Ingest(const IngestBatchRequest& req) override {
    // Checked before the epoch advances: a refused batch changes nothing.
    if (req.items.size() > static_cast<uint64_t>(INT64_MAX - total_)) {
      return Status::kTooLarge;
    }
    std::vector<EpochRow> rows;
    rows.reserve(req.items.size());
    for (uint64_t item : req.items) rows.push_back({item, req.epoch});
    source_.Advance(req.epoch);  // an empty batch still advances the ring
    source_.IngestEpoch(Span<const EpochRow>(rows.data(), rows.size()));
    rows_ += rows.size();
    total_ += static_cast<int64_t>(rows.size());
    return Status::kOk;
  }
  Status Sum(const QuerySumRequest& req, const Predicate& where,
             QuerySumResponse* out) override {
    *out = SumResponse(
        engine_.SumWindow(static_cast<size_t>(req.last_k), where));
    return Status::kOk;
  }
  // WindowView's merge flushes the fleet whenever the view is dirty.
  Status TopK(const QueryTopKRequest& req, QueryTopKResponse* out) override {
    out->counts =
        dsketch::TopK(source_.WindowView(static_cast<size_t>(req.last_k)),
                      static_cast<size_t>(req.k));
    return Status::kOk;
  }
  Status Snapshot(bool frozen, std::string* blob, SnapshotFormat*) override {
    if (frozen) return Status::kUnsupported;
    *blob = source_.SaveSnapshot();
    return Status::kOk;
  }
  Status Restore(std::string_view blob, uint64_t* num_absorbed) override {
    // Sums the slots' own totals: the header's total_rows does not bound
    // them, and two slots of 2^62 rows already pass INT64_MAX.
    int64_t absorbed = 0;
    if (!source_.RestoreSnapshot(blob, [&](const WindowedSpaceSaving& ring) {
          for (const auto& slot : ring.slots()) {
            const int64_t rows = slot.sketch.TotalCount();
            if (rows > INT64_MAX - total_ - absorbed) return false;
            absorbed += rows;
          }
          return true;
        })) {
      return Status::kBadState;
    }
    total_ += absorbed;
    *num_absorbed = source_.sharded().num_absorbed();
    return Status::kOk;
  }
  void FillStats(StatsResponse* out) override {
    out->windowed_rows_ingested = rows_;
    out->window_epoch = source_.current_epoch();
  }
  // Saturates at kMaxEpochStamp: the clock stops instead of CHECKing.
  void TickEpochs(uint64_t ticks) override {
    const uint64_t current = source_.current_epoch();
    source_.Advance(ticks > kMaxEpochStamp - current ? kMaxEpochStamp
                                                     : current + ticks);
  }

 private:
  // Every scope's query view is sized by the server's merged_capacity.
  static WindowedSketchOptions RingOptions(const SketchServerOptions& options) {
    WindowedSketchOptions ring = options.window;
    ring.merged_capacity = options.merged_capacity;
    return ring;
  }

  WindowedSketchSource source_;
  SketchQueryEngine engine_;
  uint64_t rows_ = 0;
  // Rows ingested plus every absorbed ring's slot totals, <= INT64_MAX:
  // no epoch merge or window view can sum past it.
  int64_t total_ = 0;
};

// A replica's image: zero-decode reads, totals off the image header, and
// SNAPSHOT re-serves the image byte for byte, frozen flag or not.
class FrozenScope : public Scope {
 public:
  FrozenScope(FrozenSketchSource* image, const AttributeTable* attrs)
      : image_(image), engine_(image, &TableOrEmpty(attrs)) {}

  Status Sum(const QuerySumRequest&, const Predicate& where,
             QuerySumResponse* out) override {
    *out = SumResponse(engine_.Sum(where));
    return Status::kOk;
  }
  // The image stores entries in descending order: no decode or sort.
  Status TopK(const QueryTopKRequest& req, QueryTopKResponse* out) override {
    out->counts = FrozenTopK(image_->frozen(), static_cast<size_t>(req.k));
    return Status::kOk;
  }
  Status GroupBy(const QueryGroupByRequest& req, const Predicate& where,
                 QueryGroupByResponse* out) override {
    GroupByOn(engine_, req, where, out);
    return Status::kOk;
  }
  Status Snapshot(bool, std::string* blob, SnapshotFormat* format) override {
    *blob = image_->SaveSnapshot();
    *format = SnapshotFormat::kFrozen;
    return Status::kOk;
  }
  void FillStats(StatsResponse* out) override {
    out->total_count = image_->frozen().total_count();
  }

 private:
  FrozenSketchSource* image_;
  SketchQueryEngine engine_;
};

template <typename S>
std::unique_ptr<Scope> MakeScope(const SketchServerOptions& options,
                                 const AttributeTable* attrs) {
  return std::make_unique<S>(options, attrs);
}

}  // namespace

const std::array<ScopeFactory, kNumQueryScopes> kWriterScopes = {
    &MakeScope<CountsScope>, &MakeScope<WeightedScope>,
    &MakeScope<WindowScope>};

std::unique_ptr<Scope> MakeFrozenScope(FrozenSketchSource* image,
                                       const AttributeTable* attrs) {
  return std::make_unique<FrozenScope>(image, attrs);
}

}  // namespace dsketch
