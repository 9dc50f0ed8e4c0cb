// Input generation and the exact model: every workload's request stream
// is built here from --seed, before any server process starts, and every
// request that has an exact answer carries it.

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "bench.h"
#include "util/alias.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {

using dsketch::AttributeTable;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kIngestZipf:
      return "ingest_zipf";
    case Workload::kQueryCached:
      return "query_cached";
    case Workload::kMixedFresh:
      return "mixed_fresh";
    case Workload::kWindowSliding:
      return "window_sliding";
  }
  return "unknown";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

dsketch::SketchServerOptions ServerOptions(Workload w) {
  dsketch::SketchServerOptions options;
  // The window workload runs one shard so the serve thread, the counts
  // fleet every server builds, the window fleet, and the load generator
  // fit in four cores.
  options.shard.num_shards = w == Workload::kWindowSliding ? 1 : 2;
  options.shard.shard_capacity = kBins;
  options.merged_capacity = kBins;
  options.window.window_epochs = kWindowEpochs;
  options.window.epoch_capacity = kEpochBins;
  return options;
}

namespace {

// SplitMix64 finalizer: independent sub-seeds per input stream.
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

enum : uint64_t { kTagAttrs = 1, kTagStream = 2, kTagRanks = 3, kTagPreds = 4 };

// Zipf(kZipfExponent) draws over kItems ranks, mapped to item ids by a
// seeded permutation so heavy items are scattered over the id space.
class ZipfStream {
 public:
  explicit ZipfStream(uint64_t seed)
      : rng_(SubSeed(seed, kTagStream)), table_(Weights()) {
    item_of_rank_.resize(kItems);
    for (size_t i = 0; i < kItems; ++i) item_of_rank_[i] = static_cast<uint32_t>(i);
    dsketch::Rng perm(SubSeed(seed, kTagRanks));
    for (size_t i = kItems - 1; i > 0; --i) {
      std::swap(item_of_rank_[i], item_of_rank_[perm.NextBounded(i + 1)]);
    }
  }

  std::vector<uint64_t> Batch(size_t rows) {
    std::vector<uint64_t> out(rows);
    for (uint64_t& item : out) item = item_of_rank_[table_.Sample(rng_)];
    return out;
  }

 private:
  static std::vector<double> Weights() {
    std::vector<double> w(kItems);
    for (size_t r = 0; r < kItems; ++r) {
      w[r] = std::pow(static_cast<double>(r + 1), -kZipfExponent);
    }
    return w;
  }

  dsketch::Rng rng_;
  dsketch::AliasTable table_;
  std::vector<uint32_t> item_of_rank_;
};

// Exact per-item and per-attribute-value counts of the counts scope, with
// an incrementally maintained top-(kTrueTop + 1) so TOPK checks stay O(1)
// per row.
class ExactModel {
 public:
  explicit ExactModel(const AttributeTable& attrs)
      : attrs_(attrs), counts_(kItems, 0) {}

  void Add(const std::vector<uint64_t>& items) {
    for (uint64_t item : items) {
      const int64_t c = ++counts_[item];
      ++by_value_[attrs_.Get(item, 0)];
      ++total_;
      if (c > top_floor_) RaiseTop(item, c);
    }
  }

  int64_t total() const { return total_; }

  int64_t Filtered(const std::vector<uint32_t>& values) const {
    int64_t sum = 0;
    for (uint32_t v : values) sum += by_value_[v];
    return sum;
  }

  // Items whose count is strictly above the (kTrueTop + 1)-th largest:
  // the true top kTrueTop, minus any tied at the boundary.
  std::vector<uint64_t> TrueTop() const {
    std::vector<std::pair<int64_t, uint64_t>> top = top_;
    std::sort(top.rbegin(), top.rend());
    const int64_t floor = top.size() > kTrueTop ? top[kTrueTop].first : 0;
    std::vector<uint64_t> out;
    for (size_t i = 0; i < top.size() && i < kTrueTop; ++i) {
      if (top[i].first > floor) out.push_back(top[i].second);
    }
    return out;
  }

 private:
  void RaiseTop(uint64_t item, int64_t count) {
    auto it = std::find_if(top_.begin(), top_.end(),
                           [item](const auto& e) { return e.second == item; });
    if (it != top_.end()) {
      it->first = count;
    } else if (top_.size() <= kTrueTop) {
      top_.push_back({count, item});
    } else {
      *std::min_element(top_.begin(), top_.end()) = {count, item};
    }
    if (top_.size() > kTrueTop) {
      top_floor_ = std::min_element(top_.begin(), top_.end())->first;
    }
  }

  const AttributeTable& attrs_;
  std::vector<int64_t> counts_;
  std::array<int64_t, kAttrValues> by_value_{};
  int64_t total_ = 0;
  std::vector<std::pair<int64_t, uint64_t>> top_;
  int64_t top_floor_ = 0;
};

// Exact per-epoch, per-attribute-value counts of the window scope.
class WindowModel {
 public:
  explicit WindowModel(const AttributeTable& attrs) : attrs_(attrs) {}

  void Add(const std::vector<uint64_t>& items, uint64_t epoch) {
    if (by_epoch_.size() <= epoch) by_epoch_.resize(epoch + 1);
    for (uint64_t item : items) ++by_epoch_[epoch][attrs_.Get(item, 0)];
    current_ = std::max(current_, epoch);
  }

  // Rows of the newest min(last_k, W) epochs (0 = the full window),
  // restricted to `values` when non-null.
  int64_t Rows(uint64_t last_k, const std::vector<uint32_t>* values) const {
    const uint64_t k = last_k == 0 || last_k > kWindowEpochs ? kWindowEpochs
                                                              : last_k;
    int64_t sum = 0;
    for (uint64_t e = current_ + 1 > k ? current_ + 1 - k : 0; e <= current_;
         ++e) {
      if (e >= by_epoch_.size()) continue;
      if (values == nullptr) {
        for (int64_t c : by_epoch_[e]) sum += c;
      } else {
        for (uint32_t v : *values) sum += by_epoch_[e][v];
      }
    }
    return sum;
  }

 private:
  const AttributeTable& attrs_;
  std::vector<std::array<int64_t, kAttrValues>> by_epoch_;
  uint64_t current_ = 0;
};

// Phase sizes at scale 1; BuildScript multiplies the counts by `scale`.
constexpr size_t kBatchRows = 8192;
constexpr size_t kPreloadBatches = 256;         // ingest_zipf, mixed_fresh
constexpr size_t kCachedPreloadBatches = 1024;  // query_cached
constexpr size_t kIngestPoolBatches = 256;      // ingest_zipf, sent
constexpr size_t kIngestRounds = 12;            //   this many times
constexpr size_t kBarrierEvery = 16;            // batches per STATS barrier
constexpr size_t kCachedRequests = 16384;       // query_cached
constexpr size_t kSnapshotEvery = 64;           //   one SNAPSHOT per
constexpr size_t kFreshCycles = 1024;           // mixed_fresh
constexpr size_t kFreshRows = 1024;
constexpr size_t kFreshTopKEvery = 16;
constexpr size_t kBatchesPerEpoch = 8;          // window_sliding
constexpr size_t kWindowTimedBatches = 64;
constexpr uint64_t kWindowLastK[] = {1, 8, 0};

class ScriptBuilder {
 public:
  ScriptBuilder(Script* script, const AttributeTable& attrs)
      : s_(*script), model_(attrs), window_(attrs) {}

  // Encodes one ingest batch; the returned payload index can be sent
  // again (ingest_zipf re-sends a pool).
  uint32_t EncodeIngest(const std::vector<uint64_t>& items, bool windowed,
                        uint64_t epoch) {
    dsketch::IngestBatchRequest msg;
    msg.items = items;
    msg.windowed = windowed;
    msg.epoch = epoch;
    return Encode(dsketch::EncodeIngestBatchRequest(next_id_, msg));
  }

  void SendIngest(std::vector<Request>* phase, uint32_t payload,
                  const std::vector<uint64_t>& items, bool windowed,
                  uint64_t epoch) {
    Request r = Make(payload, Op::kIngest);
    r.rows = static_cast<uint32_t>(items.size());
    r.windowed = windowed;
    r.epoch = epoch;
    if (windowed) {
      window_.Add(items, epoch);
    } else {
      model_.Add(items);
    }
    phase->push_back(r);
  }

  void Ingest(std::vector<Request>* phase, const std::vector<uint64_t>& items,
              bool windowed = false, uint64_t epoch = 0) {
    SendIngest(phase, EncodeIngest(items, windowed, epoch), items, windowed,
               epoch);
  }

  void Stats(std::vector<Request>* phase) {
    Request r = Make(Encode(dsketch::EncodeStatsRequest(next_id_)), Op::kStats);
    r.exact = model_.total();
    phase->push_back(r);
  }

  // pred < 0: unfiltered.
  void Sum(std::vector<Request>* phase, int pred) {
    dsketch::QuerySumRequest msg;
    if (pred >= 0) msg.where.WhereIn(0, s_.predicates[pred]);
    Request r = Make(Encode(dsketch::EncodeQuerySumRequest(next_id_, msg)),
                     Op::kSum);
    r.filtered = pred >= 0;
    r.exact = pred >= 0 ? model_.Filtered(s_.predicates[pred]) : model_.total();
    phase->push_back(r);
  }

  void WindowSum(std::vector<Request>* phase, uint64_t last_k, int pred) {
    dsketch::QuerySumRequest msg;
    msg.scope = dsketch::QueryScope::kWindow;
    msg.last_k = last_k;
    if (pred >= 0) msg.where.WhereIn(0, s_.predicates[pred]);
    Request r = Make(Encode(dsketch::EncodeQuerySumRequest(next_id_, msg)),
                     Op::kWindowSum);
    r.last_k = last_k;
    r.filtered = pred >= 0;
    r.exact = window_.Rows(last_k, pred >= 0 ? &s_.predicates[pred] : nullptr);
    phase->push_back(r);
  }

  void TopK(std::vector<Request>* phase) {
    dsketch::QueryTopKRequest msg;
    msg.k = kTopK;
    Request r = Make(Encode(dsketch::EncodeQueryTopKRequest(next_id_, msg)),
                     Op::kTopK);
    std::vector<uint64_t> top = model_.TrueTop();
    if (s_.tops.empty() || s_.tops.back() != top) s_.tops.push_back(top);
    r.top = static_cast<uint32_t>(s_.tops.size() - 1);
    phase->push_back(r);
  }

  void GroupBy(std::vector<Request>* phase) {
    dsketch::QueryGroupByRequest msg;
    Request r = Make(Encode(dsketch::EncodeQueryGroupByRequest(next_id_, msg)),
                     Op::kGroupBy);
    r.exact = model_.total();
    phase->push_back(r);
  }

  void Snapshot(std::vector<Request>* phase) {
    dsketch::SnapshotRequest msg;
    phase->push_back(Make(
        Encode(dsketch::EncodeSnapshotRequest(next_id_, msg)), Op::kSnapshot));
  }

  // The untimed exact checks every counts workload ends with.
  void VerifyCounts() {
    Stats(&s_.verify);
    Sum(&s_.verify, -1);
    for (size_t p = 0; p < kPredicates; ++p) {
      Sum(&s_.verify, static_cast<int>(p));
    }
    TopK(&s_.verify);
    GroupBy(&s_.verify);
  }

 private:
  uint32_t Encode(std::string payload) {
    s_.payloads.push_back(std::move(payload));
    payload_ids_.push_back(next_id_++);
    return static_cast<uint32_t>(s_.payloads.size() - 1);
  }

  Request Make(uint32_t payload, Op op) const {
    Request r;
    r.payload = payload;
    r.id = payload_ids_[payload];
    r.op = op;
    return r;
  }

  Script& s_;
  ExactModel model_;
  WindowModel window_;
  std::vector<uint64_t> payload_ids_;
  uint64_t next_id_ = 1;
};

std::vector<std::vector<uint32_t>> BuildPredicates(uint64_t seed) {
  dsketch::Rng rng(SubSeed(seed, kTagPreds));
  std::vector<std::vector<uint32_t>> out;
  std::vector<uint32_t> masks;
  while (out.size() < kPredicates) {
    // Sizes cycle 1..8 so every seed filters with the same selectivity
    // mix; only the chosen values depend on the seed.
    const size_t n = 1 + out.size() % 8;
    uint32_t mask = 0;
    while (static_cast<size_t>(__builtin_popcount(mask)) < n) {
      mask |= 1u << rng.NextBounded(kAttrValues);
    }
    if (std::find(masks.begin(), masks.end(), mask) != masks.end()) continue;
    masks.push_back(mask);
    std::vector<uint32_t> values;
    for (uint32_t v = 0; v < kAttrValues; ++v) {
      if (mask & (1u << v)) values.push_back(v);
    }
    out.push_back(std::move(values));
  }
  return out;
}

size_t Scaled(size_t n, double scale, size_t min) {
  return std::max(min, static_cast<size_t>(std::llround(n * scale)));
}

}  // namespace

AttributeTable BuildAttributes(uint64_t seed) {
  AttributeTable attrs(1);
  dsketch::Rng rng(SubSeed(seed, kTagAttrs));
  for (size_t i = 0; i < kItems; ++i) {
    attrs.AddItem({static_cast<uint32_t>(rng.NextBounded(kAttrValues))});
  }
  return attrs;
}

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Script BuildScript(Workload w, uint64_t seed, double scale,
                   const AttributeTable& attrs) {
  DSKETCH_CHECK(scale > 0.0 && scale <= 1.0);
  Script s;
  s.workload = w;
  s.predicates = BuildPredicates(seed);
  ScriptBuilder b(&s, attrs);
  ZipfStream stream(seed);
  const size_t batch_rows = Scaled(kBatchRows, scale, 256);

  switch (w) {
    case Workload::kIngestZipf: {
      // A preload first, so set-up is more than a process launch and the
      // timed rows land in full shard sketches.
      b.Stats(&s.setup);  // server up
      for (size_t i = 0, n = Scaled(kPreloadBatches, scale, 8); i < n; ++i) {
        b.Ingest(&s.setup, stream.Batch(batch_rows));
      }
      b.Stats(&s.setup);
      const size_t pool_n =
          Scaled(kIngestPoolBatches, scale, kBarrierEvery) / kBarrierEvery *
          kBarrierEvery;
      std::vector<std::vector<uint64_t>> pool(pool_n);
      std::vector<uint32_t> payloads(pool_n);
      for (size_t i = 0; i < pool_n; ++i) {
        pool[i] = stream.Batch(batch_rows);
        payloads[i] = b.EncodeIngest(pool[i], false, 0);
      }
      const size_t rounds = Scaled(kIngestRounds, scale, 2);
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < pool_n; ++i) {
          b.SendIngest(&s.timed, payloads[i], pool[i], false, 0);
          if ((i + 1) % kBarrierEvery == 0) b.Stats(&s.timed);
        }
      }
      b.VerifyCounts();
      break;
    }
    case Workload::kQueryCached: {
      b.Stats(&s.setup);  // server up
      for (size_t i = 0, n = Scaled(kCachedPreloadBatches, scale, 8); i < n;
           ++i) {
        b.Ingest(&s.setup, stream.Batch(batch_rows));
      }
      b.Stats(&s.setup);
      size_t pred = 0;
      for (size_t j = 0, n = Scaled(kCachedRequests, scale, 256); j < n; ++j) {
        if (j % kSnapshotEvery == kSnapshotEvery - 1) {
          b.Snapshot(&s.timed);
          continue;
        }
        switch (j % 4) {
          case 0:
            b.Sum(&s.timed, -1);
            break;
          case 1:
            b.Sum(&s.timed, static_cast<int>(pred++ % kPredicates));
            break;
          case 2:
            b.TopK(&s.timed);
            break;
          default:
            b.GroupBy(&s.timed);
            break;
        }
      }
      b.VerifyCounts();
      break;
    }
    case Workload::kMixedFresh: {
      b.Stats(&s.setup);  // server up
      for (size_t i = 0, n = Scaled(kPreloadBatches, scale, 8); i < n; ++i) {
        b.Ingest(&s.setup, stream.Batch(batch_rows));
      }
      b.Stats(&s.setup);
      for (size_t c = 0, n = Scaled(kFreshCycles, scale, 64); c < n; ++c) {
        b.Ingest(&s.timed, stream.Batch(kFreshRows));
        b.Sum(&s.timed, static_cast<int>(c % kPredicates));
        if (c % kFreshTopKEvery == kFreshTopKEvery - 1) b.TopK(&s.timed);
      }
      b.Stats(&s.timed);  // the ingest-rate barrier
      b.VerifyCounts();
      break;
    }
    case Workload::kWindowSliding: {
      // Set-up fills the ring: W epochs of kBatchesPerEpoch batches.
      b.Stats(&s.setup);  // server up
      uint64_t epoch = 0;
      for (size_t i = 0; i < kWindowEpochs * kBatchesPerEpoch; ++i) {
        epoch = i / kBatchesPerEpoch;
        b.Ingest(&s.setup, stream.Batch(batch_rows), true, epoch);
      }
      b.WindowSum(&s.setup, 0, -1);  // ready barrier (drains the fleet)
      for (size_t i = 0, n = Scaled(kWindowTimedBatches, scale, 24); i < n;
           ++i) {
        epoch = kWindowEpochs + i / kBatchesPerEpoch;
        b.Ingest(&s.timed, stream.Batch(batch_rows), true, epoch);
        for (uint64_t k : kWindowLastK) b.WindowSum(&s.timed, k, -1);
      }
      b.Stats(&s.verify);  // the counts scope saw no rows
      for (uint64_t k : {uint64_t{0}, uint64_t{8}}) {
        for (size_t p = 0; p < kPredicates; ++p) {
          b.WindowSum(&s.verify, k, static_cast<int>(p));
        }
      }
      break;
    }
  }

  uint64_t h = kFnvOffset;
  for (const auto* phase : {&s.setup, &s.timed, &s.verify}) {
    for (const Request& r : *phase) h = Fnv1a(h, s.payloads[r.payload]);
  }
  s.digest = h;
  for (const Request& r : s.setup) s.setup_rows += r.rows;
  for (const Request& r : s.timed) s.timed_rows += r.rows;
  return s;
}

}  // namespace perfbench
