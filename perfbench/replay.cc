// The traced run's replay: the same generated requests, in-process,
// through each layer's public calls, every call timed from here.
//
// Counts scope (ingest_zipf, query_cached, mixed_fresh): one in-process
// SketchServer. An ingest request goes through the calls the server
// makes for it — DecodeIngestBatchRequest, then Ingest on the server's
// own ShardedSketchSource — and the Flush right after it is timed as the
// shard drain. For any other request the shard Flush and the view merge
// it would pay are lifted out in front of SketchServer::HandleRequest
// and timed as their own layers; right after HandleRequest, the request's
// query call (SketchQueryEngine::Sum / GroupBy1, TopK, Serialize) and its
// Encode*Response run again on the same, now warm, view. The handle time
// of a request is drain + merge + HandleRequest; its layer time is drain
// + merge + query call + encode. Both come from one execution.
//
// Window scope (window_sliding): the server keeps its window source
// private, so each request goes to an in-process server (HandleRequest)
// and to a shadow WindowedSketchSource built with the server's options
// (IngestEpoch, MergedRing, WindowView, SumWindow), interleaved. After
// an ingest both wait, untimed, for the shard workers to apply the rows,
// so no timing depends on worker scheduling.
//
// Probes: a layer the workload's own requests never reach (the window
// ring on a counts workload, a merge on query_cached) is timed on the
// workload's own rows and reported as a probe.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "bench.h"
#include "core/frequent_items.h"
#include "core/serialization.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/sketch_source.h"
#include "query/windowed_source.h"
#include "service/frame.h"
#include "shard/sharded_sketch.h"
#include "window/windowed_sketch.h"
#include "wire/varint.h"

namespace perfbench {

using dsketch::AttributeTable;
using dsketch::Predicate;
using dsketch::SketchQueryEngine;
using dsketch::Span;
using dsketch::UnbiasedSpaceSaving;

namespace {

template <typename F>
double TimeUs(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return MicrosBetween(t0, Clock::now());
}

// Samples of every timed layer call.
struct Samples {
  std::vector<double> decode_ns_per_row, enqueue_ns_per_row, drain_us,
      merge_us, sum_us, groupby_us, topk_us, encode_us, wire_encode_us,
      window_ingest_ns_per_row, ring_merge_us, view_us;
  double frame_bytes = 0, frame_rows = 0;
  double snapshot_bytes = 0;
  double node_hits = 0, node_misses = 0;
  std::vector<uint64_t> shard0_rows;
  // Per timed non-ingest request, in script order.
  std::vector<double> handle_us, layers_us;
};

// A decoded request. Only the ingest body decode is a timed layer.
struct Decoded {
  dsketch::IngestBatchRequest ingest;
  Predicate pred;
  bool filtered = false;
};

Decoded DecodePayload(const std::string& payload, Samples* s) {
  Decoded d;
  dsketch::wire::VarintReader reader(payload);
  dsketch::RequestHeader header;
  DSKETCH_CHECK(dsketch::DecodeRequestHeader(reader, &header));
  if (header.opcode == dsketch::Opcode::kIngestBatch) {
    const double us = TimeUs(
        [&] { DSKETCH_CHECK(DecodeIngestBatchRequest(reader, &d.ingest)); });
    if (s != nullptr && !d.ingest.items.empty()) {
      s->decode_ns_per_row.push_back(us * 1e3 / d.ingest.items.size());
      s->frame_bytes += payload.size() + dsketch::kFrameHeaderBytes;
      s->frame_rows += d.ingest.items.size();
    }
  } else if (header.opcode == dsketch::Opcode::kQuerySum) {
    dsketch::QuerySumRequest sum;
    DSKETCH_CHECK(DecodeQuerySumRequest(reader, &sum));
    for (const auto& c : sum.where.conditions) d.pred.WhereIn(c.dim, c.values);
    d.filtered = !sum.where.conditions.empty();
  }
  return d;
}

double NodeHits() {
  return static_cast<double>(dsketch::window_metrics::NodeCacheHits().Value());
}
double NodeMisses() {
  return static_cast<double>(
      dsketch::window_metrics::NodeCacheMisses().Value());
}

// Rows every shard worker of this process has applied (the per-shard
// series aggregate every fleet).
class RowsApplied {
 public:
  explicit RowsApplied(size_t shards) {
    for (size_t i = 0; i < shards; ++i) {
      counters_.push_back(&dsketch::shard_metrics::RowsIngested(i));
    }
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const dsketch::obs::Counter* c : counters_) total += c->Value();
    return total;
  }

 private:
  std::vector<const dsketch::obs::Counter*> counters_;
};

// --- counts scope ----------------------------------------------------------

// The counts scope's layers over a ShardedSketchSource — the server's own
// (replay) or a private one (probe).
class CountsPipeline {
 public:
  CountsPipeline(dsketch::ShardedSketchSource* source,
                 const AttributeTable& attrs)
      : source_(*source), engine_(source, &attrs) {}

  void Ingest(const std::vector<uint64_t>& items, Samples* s) {
    const Span<const uint64_t> rows(items.data(), items.size());
    s->enqueue_ns_per_row.push_back(
        TimeUs([&] { source_.Ingest(rows); }) * 1e3 / items.size());
    s->drain_us.push_back(TimeUs([&] { source_.Flush(); }));
    for (uint64_t item : items) {
      if (s->shard0_rows.size() < kCoreRows &&
          source_.sharded().ShardOf(item) == 0) {
        s->shard0_rows.push_back(item);
      }
    }
    dirty_ = true;
  }

  // One non-ingest request. `handle`, when set, is the server's
  // HandleRequest for it, run after the drain and merge were lifted out.
  // Returns {handle time, layer time}.
  std::pair<double, double> Query(Op op, const Decoded& d, uint64_t id,
                                  const std::function<void()>& handle,
                                  Samples* s) {
    double prepare = TimeUs([&] { source_.Flush(); });
    if (dirty_) {
      const double merge = TimeUs([&] { source_.View(); });
      s->merge_us.push_back(merge);
      prepare += merge;
      dirty_ = false;
    }
    const double handle_us = handle ? TimeUs(handle) : 0.0;
    const UnbiasedSpaceSaving& view = source_.View();
    std::string rsp;
    double call = 0, encode = 0;
    switch (op) {
      case Op::kStats: {
        dsketch::StatsResponse m;
        call = TimeUs([&] { m.total_count = view.TotalCount(); });
        encode = TimeUs([&] { rsp = EncodeStatsResponse(id, m); });
        break;
      }
      case Op::kSum: {
        dsketch::SubsetSumEstimate est;
        call = TimeUs([&] { est = engine_.Sum(d.pred); });
        if (d.filtered) s->sum_us.push_back(call);
        const dsketch::QuerySumResponse m{est.estimate, est.variance,
                                          est.items_in_sample};
        encode = TimeUs([&] { rsp = EncodeQuerySumResponse(id, m); });
        break;
      }
      case Op::kTopK: {
        dsketch::QueryTopKResponse m;
        call = TimeUs([&] { m.counts = dsketch::TopK(view, kTopK); });
        s->topk_us.push_back(call);
        encode = TimeUs([&] { rsp = EncodeQueryTopKResponse(id, m); });
        break;
      }
      case Op::kGroupBy: {
        std::unordered_map<uint32_t, dsketch::SubsetSumEstimate> groups;
        call = TimeUs([&] { groups = engine_.GroupBy1(0); });
        s->groupby_us.push_back(call);
        dsketch::QueryGroupByResponse m;
        for (const auto& [key, est] : groups) {
          m.groups.push_back(
              {key, est.estimate, est.variance, est.items_in_sample});
        }
        encode = TimeUs([&] { rsp = EncodeQueryGroupByResponse(id, m); });
        break;
      }
      case Op::kSnapshot: {
        dsketch::SnapshotResponse m;
        call = TimeUs([&] { m.blob = dsketch::Serialize(view); });
        s->wire_encode_us.push_back(call);
        s->snapshot_bytes = static_cast<double>(m.blob.size());
        encode = TimeUs([&] { rsp = EncodeSnapshotResponse(id, m); });
        break;
      }
      case Op::kIngest:
      case Op::kWindowSum:
        DSKETCH_CHECK(false);
    }
    s->encode_us.push_back(encode);
    return {prepare + handle_us, prepare + call + encode};
  }

  // Rows kept for the single-thread core.update_ns_per_row measurement.
  static constexpr size_t kCoreRows = size_t{4} << 20;

 private:
  dsketch::ShardedSketchSource& source_;
  SketchQueryEngine engine_;
  bool dirty_ = false;
};

// The replay of a counts workload on one in-process server.
Samples CountsReplay(const Script& s, const AttributeTable& attrs) {
  dsketch::SketchServer server(ServerOptions(s.workload), &attrs);
  CountsPipeline counts(&server.source(), attrs);
  PlaceThreads(getpid());
  Samples out, setup;
  for (const auto* phase : {&s.setup, &s.timed}) {
    const bool timed = phase == &s.timed;
    for (const Request& r : *phase) {
      const std::string& payload = s.payloads[r.payload];
      const Decoded d = DecodePayload(payload, &out);
      if (r.op == Op::kIngest) {
        counts.Ingest(d.ingest.items, &out);
        continue;
      }
      // Query-layer samples come from the timed phase only.
      const auto [handle, layers] = counts.Query(
          r.op, d, r.id, [&] { server.HandleRequest(payload); },
          timed ? &out : &setup);
      if (timed) {
        out.handle_us.push_back(handle);
        out.layers_us.push_back(layers);
      }
    }
  }
  return out;
}

// --- window scope ----------------------------------------------------------

// The window scope's layers as the server composes them.
class WindowPipeline {
 public:
  WindowPipeline(const dsketch::SketchServerOptions& options,
                 const AttributeTable& attrs)
      : source_(ShardOptions(options), RingOptions(options)),
        engine_(&source_, &attrs) {}

  void Ingest(const std::vector<uint64_t>& items, uint64_t epoch,
              Samples* s) {
    std::vector<dsketch::EpochRow> rows;
    rows.reserve(items.size());
    for (uint64_t item : items) rows.push_back({item, epoch});
    const double us = TimeUs([&] {
      source_.Advance(epoch);
      source_.IngestEpoch(
          Span<const dsketch::EpochRow>(rows.data(), rows.size()));
    });
    s->window_ingest_ns_per_row.push_back(us * 1e3 / items.size());
    s->drain_us.push_back(TimeUs([&] { source_.Flush(); }));
    dirty_ = true;
  }

  // One window SUM; returns the summed layer time.
  double Sum(uint64_t last_k, const Decoded& d, uint64_t id, Samples* s) {
    double us = 0;
    if (dirty_) {
      const double t = TimeUs([&] { source_.MergedRing(); });
      s->ring_merge_us.push_back(t);
      us += t;
      dirty_ = false;
    }
    const double view = TimeUs([&] { source_.WindowView(last_k); });
    s->view_us.push_back(view);
    dsketch::SubsetSumEstimate est;
    const double sum =
        TimeUs([&] { est = engine_.SumWindow(last_k, d.pred); });
    if (d.filtered) s->sum_us.push_back(sum);
    const dsketch::QuerySumResponse m{est.estimate, est.variance,
                                      est.items_in_sample};
    std::string rsp;
    const double enc = TimeUs([&] { rsp = EncodeQuerySumResponse(id, m); });
    s->encode_us.push_back(enc);
    return us + view + sum + enc;
  }

 private:
  // The server's window fleet: its shard seed offset, and window merges
  // at the server's merged capacity.
  static dsketch::ShardedSketchOptions ShardOptions(
      const dsketch::SketchServerOptions& options) {
    dsketch::ShardedSketchOptions shard = options.shard;
    shard.seed += 8888;
    return shard;
  }
  static dsketch::WindowedSketchOptions RingOptions(
      const dsketch::SketchServerOptions& options) {
    dsketch::WindowedSketchOptions window = options.window;
    window.merged_capacity = options.merged_capacity;
    return window;
  }

  dsketch::WindowedSketchSource source_;
  SketchQueryEngine engine_;
  bool dirty_ = true;
};

// The replay of window_sliding: an in-process server and the shadow
// pipeline side by side, request by request, so a slow stretch of the
// machine hits both alike. Which of the two goes first alternates.
Samples WindowReplay(const Script& s, const AttributeTable& attrs) {
  const dsketch::SketchServerOptions options = ServerOptions(s.workload);
  dsketch::SketchServer server(options, &attrs);
  WindowPipeline window(options, attrs);
  // The server's window fleet is private: its progress is read off the
  // shard row counters, which both fleets feed (a sleep without them).
  const RowsApplied applied(options.shard.num_shards);
  const uint64_t applied0 = applied.Value();
  uint64_t handed = 0;
  Samples out, setup;
  const double hits0 = NodeHits(), misses0 = NodeMisses();
  bool handle_first = true;
  for (const auto* phase : {&s.setup, &s.timed}) {
    const bool timed = phase == &s.timed;
    // The server builds its window fleet on the first windowed row.
    PlaceThreads(getpid());
    for (const Request& r : *phase) {
      const std::string& payload = s.payloads[r.payload];
      const Decoded d = DecodePayload(payload, &out);
      if (r.op == Op::kIngest) {
        server.HandleRequest(payload);
        window.Ingest(d.ingest.items, r.epoch, &out);
        handed += 2 * uint64_t{r.rows};
        if (MetricsRecorded()) {
          while (applied.Value() - applied0 < handed) std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        continue;
      }
      if (r.op != Op::kWindowSum) continue;
      double handle = 0, layers = 0;
      auto run_handle = [&] {
        handle = TimeUs([&] { server.HandleRequest(payload); });
      };
      auto run_layers = [&] {
        layers = window.Sum(r.last_k, d, r.id, timed ? &out : &setup);
      };
      if (handle_first) {
        run_handle();
        run_layers();
      } else {
        run_layers();
        run_handle();
      }
      handle_first = !handle_first;
      if (timed) {
        out.handle_us.push_back(handle);
        out.layers_us.push_back(layers);
      }
    }
  }
  // Both sources did the same merges, so the shared counters keep the
  // ratio of either.
  out.node_hits = NodeHits() - hits0;
  out.node_misses = NodeMisses() - misses0;
  return out;
}

// --- probes ----------------------------------------------------------------

// Every ingest batch of the script (set-up and timed), decoded.
std::vector<std::vector<uint64_t>> IngestBatches(const Script& s,
                                                 size_t limit) {
  std::vector<std::vector<uint64_t>> out;
  for (const auto* phase : {&s.setup, &s.timed}) {
    for (const Request& r : *phase) {
      if (out.size() >= limit) return out;
      if (r.op == Op::kIngest) {
        out.push_back(DecodePayload(s.payloads[r.payload], nullptr).ingest.items);
      }
    }
  }
  return out;
}

// Counts layers on the workload's own rows: ingest them, then run every
// counts query after each of the last batches.
Samples CountsProbe(const Script& s, const AttributeTable& attrs) {
  const dsketch::SketchServerOptions options = ServerOptions(s.workload);
  dsketch::ShardedSketchSource source(options.shard, options.merged_capacity,
                                      options.seed);
  CountsPipeline counts(&source, attrs);
  PlaceThreads(getpid());
  Samples out;
  const std::vector<std::vector<uint64_t>> batches = IngestBatches(s, 512);
  const size_t queried = std::min<size_t>(64, batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    counts.Ingest(batches[i], &out);
    if (i + queried < batches.size()) continue;
    Decoded d;
    d.pred.WhereIn(0, s.predicates[i % kPredicates]);
    d.filtered = true;
    for (Op op : {Op::kSum, Op::kTopK, Op::kGroupBy, Op::kSnapshot}) {
      counts.Query(op, d, 1, nullptr, &out);
    }
  }
  return out;
}

// Window layers on the workload's own rows: fill a W-epoch ring, then
// slide it, querying last_k in {1, 8, 0} after every batch.
Samples WindowProbe(const Script& s, const AttributeTable& attrs) {
  constexpr size_t kBatchesPerEpoch = 8, kSlidingBatches = 8;
  constexpr size_t kFill = kWindowEpochs * kBatchesPerEpoch;
  WindowPipeline window(ServerOptions(s.workload), attrs);
  PlaceThreads(getpid());
  Samples out;
  const std::vector<std::vector<uint64_t>> batches =
      IngestBatches(s, kFill + kSlidingBatches);
  const double hits0 = NodeHits(), misses0 = NodeMisses();
  const Decoded d;
  for (size_t i = 0; i < kFill + kSlidingBatches && !batches.empty(); ++i) {
    window.Ingest(batches[i % batches.size()], i / kBatchesPerEpoch, &out);
    if (i < kFill) continue;
    for (uint64_t k : {uint64_t{1}, uint64_t{8}, uint64_t{0}}) {
      window.Sum(k, d, 1, &out);
    }
  }
  out.node_hits = NodeHits() - hits0;
  out.node_misses = NodeMisses() - misses0;
  return out;
}

// Single-thread UnbiasedSpaceSaving::UpdateBatch over one shard's rows,
// in the batch size the shard workers drain.
double CoreUpdateNsPerRow(const std::vector<uint64_t>& rows,
                          const dsketch::SketchServerOptions& options) {
  if (rows.empty()) return 0;
  UnbiasedSpaceSaving sketch(options.shard.shard_capacity, options.shard.seed);
  const size_t batch = options.shard.batch_size;
  const double us = TimeUs([&] {
    for (size_t pos = 0; pos < rows.size(); pos += batch) {
      const size_t n = std::min(batch, rows.size() - pos);
      sketch.UpdateBatch(Span<const uint64_t>(rows.data() + pos, n));
    }
  });
  return us * 1e3 / rows.size();
}

// One obs::ScopedSpan open/close inside an open request trace, the way
// every layer span inside HandleRequest runs.
double SpanNs() {
  constexpr size_t kSpans = 200000;
  std::vector<double> per_span;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    {
      dsketch::obs::ScopedTrace root("perfbench");
      for (size_t i = 0; i < kSpans; ++i) {
        dsketch::obs::ScopedSpan span("span", dsketch::obs::TraceLayer::kQuery);
      }
    }
    per_span.push_back(MicrosBetween(t0, Clock::now()) * 1e3 / kSpans);
    dsketch::obs::FlushPendingTrace();
  }
  return Median(per_span);
}

double TimerNs() {
  constexpr size_t kReads = 1000000;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last = t0;
  for (size_t i = 0; i < kReads; ++i) last = Clock::now();
  return MicrosBetween(t0, last) * 1e3 / kReads;
}

// One-sided sign test: the layer time exceeds the handle time in
// significantly more than half the paired requests (z = 3.29, p < 0.001).
bool LayersExceedHandle(const std::vector<double>& handle,
                        const std::vector<double>& layers) {
  size_t over = 0;
  for (size_t i = 0; i < handle.size(); ++i) over += layers[i] > handle[i];
  const double n = static_cast<double>(handle.size());
  return static_cast<double>(over) > n / 2 + 3.29 * std::sqrt(n) / 2;
}

}  // namespace

ReplayResult Replay(const Script& s, const AttributeTable& attrs,
                    double client_p50_us) {
  // Placed like a pass: this thread, client and serve thread in one, on
  // CPU 0; each replay and probe moves its shard workers off CPU 0 with
  // PlaceThreads once its fleets exist.
  const ClientCpuScope client_cpu;
  const dsketch::SketchServerOptions options = ServerOptions(s.workload);
  const bool window_workload = s.workload == Workload::kWindowSliding;
  const Samples main =
      window_workload ? WindowReplay(s, attrs) : CountsReplay(s, attrs);
  const bool counts_gap =
      main.merge_us.empty() || main.groupby_us.empty() ||
      main.wire_encode_us.empty() || main.sum_us.empty() ||
      main.topk_us.empty() || main.enqueue_ns_per_row.empty();
  const Samples counts_probe = counts_gap ? CountsProbe(s, attrs) : Samples();
  const Samples window_probe =
      window_workload ? Samples() : WindowProbe(s, attrs);
  const Samples& window = window_workload ? main : window_probe;

  ReplayResult out;
  auto& m = out.metrics;
  // Median of the workload's own samples, else of the probe's.
  auto pick = [&](const char* name, const char* unit,
                  std::vector<double> Samples::*field, const Samples& probe) {
    if (!(main.*field).empty()) {
      m[name] = {Median(main.*field), unit, "replay"};
    } else if (!(probe.*field).empty()) {
      m[name] = {Median(probe.*field), unit, "probe"};
    }
  };
  pick("service.decode_ns_per_row", "ns/row", &Samples::decode_ns_per_row,
       counts_probe);
  pick("service.encode_us", "us", &Samples::encode_us, counts_probe);
  pick("shard.enqueue_ns_per_row", "ns/row", &Samples::enqueue_ns_per_row,
       counts_probe);
  pick("shard.drain_us", "us", &Samples::drain_us, counts_probe);
  pick("shard.merge_us", "us", &Samples::merge_us, counts_probe);
  pick("query.sum_us", "us", &Samples::sum_us, counts_probe);
  pick("query.groupby_us", "us", &Samples::groupby_us, counts_probe);
  pick("query.topk_us", "us", &Samples::topk_us, counts_probe);
  pick("wire.encode_us", "us", &Samples::wire_encode_us, counts_probe);
  pick("window.ingest_ns_per_row", "ns/row", &Samples::window_ingest_ns_per_row,
       window_probe);
  pick("window.ring_merge_us", "us", &Samples::ring_merge_us, window_probe);
  pick("window.view_us", "us", &Samples::view_us, window_probe);
  const char* window_source = window_workload ? "replay" : "probe";
  if (MetricsRecorded()) {
    const double lookups = window.node_hits + window.node_misses;
    m["window.node_cache_hit_ratio"] = {
        lookups > 0 ? window.node_hits / lookups : 0.0, "ratio", window_source};
  }
  const Samples& frames = main.frame_rows > 0 ? main : counts_probe;
  m["service.frame_bytes_per_row"] = {frames.frame_bytes / frames.frame_rows,
                                      "B/row", "replay"};
  const Samples& snap = main.snapshot_bytes > 0 ? main : counts_probe;
  m["wire.snapshot_bytes"] = {snap.snapshot_bytes, "B",
                              &snap == &main ? "replay" : "probe"};
  const Samples& core = !main.shard0_rows.empty() ? main : counts_probe;
  m["core.update_ns_per_row"] = {CoreUpdateNsPerRow(core.shard0_rows, options),
                                 "ns/row", &core == &main ? "replay" : "probe"};
  m["obs.span_ns"] = {SpanNs(), "ns", "probe"};

  // Reconciliation: layers <= handle, paired per request.
  Reconciliation& rec = out.reconciliation;
  rec.requests = main.handle_us.size();
  rec.layers_us = Median(main.layers_us);
  rec.handle_us = Median(main.handle_us);
  std::vector<double> remainder;
  for (size_t i = 0; i < main.handle_us.size() && i < main.layers_us.size();
       ++i) {
    remainder.push_back(main.handle_us[i] - main.layers_us[i]);
  }
  rec.unexplained_us = Median(remainder);
  rec.client_p50_us = client_p50_us;
  rec.timer_ns = TimerNs();
  rec.layers_ok = rec.requests > 0 &&
                  main.layers_us.size() == rec.requests &&
                  !LayersExceedHandle(main.handle_us, main.layers_us);
  m["service.handle_us"] = {rec.handle_us, "us", "replay"};
  m["service.transport_us"] = {client_p50_us - rec.handle_us, "us", "replay"};
  m["service.unexplained_us"] = {rec.unexplained_us, "us", "replay"};
  return out;
}

}  // namespace perfbench
