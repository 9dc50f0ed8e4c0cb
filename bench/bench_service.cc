// Service-layer round-trip throughput: what the framed protocol costs on
// top of the raw ingest/query paths. One server thread, one client, an
// in-memory duplex carrying byte-identical frames to a socket:
//
//   * ingest    — rows/s through framed INGEST_BATCH at several batch
//     sizes, vs the same rows pushed straight into a ShardedSketchSource
//     (the no-protocol upper bound).
//   * queries   — round-trips/s for QUERY_SUM (empty and filtered
//     predicate), QUERY_TOPK, and QUERY_GROUPBY against live state.
//   * snapshot  — SNAPSHOT/RESTORE hop: blob bytes and replication
//     round-trip time.
//
// Records baselines with --json=PATH (bench/record_baselines.sh ->
// BENCH_service.json).

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/attribute_table.h"
#include "query/sketch_source.h"
#include "service/client.h"
#include "service/server.h"
#include "service/transport.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"

namespace dsketch {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The server records per-opcode latency histograms into the global
// metrics registry; benches read them back as snapshot deltas so the
// tail percentiles cover exactly the timed loop. All-zero under
// -DDSKETCH_NO_METRICS (the params record says metrics="off").
obs::HistogramSnapshot LatencySnapshot(const char* opcode) {
  const obs::Histogram* h = obs::MetricsRegistry::Global().FindHistogram(
      std::string("dsketch_service_request_latency_us{opcode=\"") + opcode +
      "\"}");
  return h != nullptr ? h->Snapshot() : obs::HistogramSnapshot{};
}

// Returns false when a query round trip failed (the smoke test's gate).
bool Run(int argc, char** argv) {
  const int64_t rows_n = bench::FlagInt(argc, argv, "rows", 2000000);
  const int64_t items = bench::FlagInt(argc, argv, "items", 100000);
  const int64_t shards = bench::FlagInt(argc, argv, "shards", 2);
  const int64_t capacity = bench::FlagInt(argc, argv, "bins", 4096);
  const int64_t query_iters = bench::FlagInt(argc, argv, "query_iters", 2000);
  bench::JsonSink json(argc, argv, "service");

  bench::Banner("Service layer: framed ingest/query round-trip throughput",
                "streaming-service deployment of the paper's sketches");

  auto counts = ScaleCountsToTotal(
      ZipfCounts(static_cast<size_t>(items), 1.1, 2000), rows_n);
  Rng rng(11);
  auto rows = PermutedStream(counts, rng);
  AttributeTable attrs(1);
  for (int64_t i = 0; i < items; ++i) {
    attrs.AddItem({static_cast<uint32_t>(i % 16)});
  }

  if (json.enabled()) {
    json.BeginRecord("params");
    json.Add("rows", static_cast<int64_t>(rows.size()));
    json.Add("items", items);
    json.Add("shards", shards);
    json.Add("bins", capacity);
    json.Add("metrics", std::string(obs::MetricsBuildMode()));
  }

  SketchServerOptions options;
  options.shard.num_shards = static_cast<size_t>(shards);
  options.shard.shard_capacity = static_cast<size_t>(capacity);
  options.merged_capacity = static_cast<size_t>(capacity);

  // --- ingest: framed vs direct ---------------------------------------
  std::printf("\n%-12s %14s %16s %14s\n", "batch_rows", "framed_Mrows_s",
              "direct_Mrows_s", "protocol_cost");
  for (int64_t batch : {1024, 8192, 65536}) {
    // Framed path: client -> frames -> server -> sharded source.
    double framed_s;
    {
      InMemoryDuplex duplex;
      SketchServer server(options, &attrs);
      std::thread serve([&] { server.Serve(duplex.server()); });
      SketchClient client(duplex.client());
      auto start = Clock::now();
      for (size_t pos = 0; pos < rows.size();
           pos += static_cast<size_t>(batch)) {
        size_t len =
            std::min(static_cast<size_t>(batch), rows.size() - pos);
        client.IngestBatch(Span<const uint64_t>(rows.data() + pos, len));
      }
      client.Stats();  // forces a flush so all rows are applied
      framed_s = SecondsSince(start);
      client.Shutdown();
      serve.join();
    }
    // Direct path: same batches straight into the source.
    double direct_s;
    {
      ShardedSketchSource source(options.shard,
                                 static_cast<size_t>(capacity), 1);
      auto start = Clock::now();
      for (size_t pos = 0; pos < rows.size();
           pos += static_cast<size_t>(batch)) {
        size_t len =
            std::min(static_cast<size_t>(batch), rows.size() - pos);
        source.Ingest(Span<const uint64_t>(rows.data() + pos, len));
      }
      source.Flush();
      direct_s = SecondsSince(start);
    }
    const double framed_rate = static_cast<double>(rows.size()) / framed_s / 1e6;
    const double direct_rate = static_cast<double>(rows.size()) / direct_s / 1e6;
    std::printf("%-12lld %14.2f %16.2f %13.1f%%\n",
                static_cast<long long>(batch), framed_rate, direct_rate,
                100.0 * (direct_rate - framed_rate) / direct_rate);
    if (json.enabled()) {
      json.BeginRecord("ingest");
      json.Add("batch_rows", batch);
      json.Add("framed_mrows_per_s", framed_rate);
      json.Add("direct_mrows_per_s", direct_rate);
    }
  }

  // --- queries over live state ----------------------------------------
  InMemoryDuplex duplex;
  SketchServer server(options, &attrs);
  std::thread serve([&] { server.Serve(duplex.server()); });
  SketchClient client(duplex.client());
  for (size_t pos = 0; pos < rows.size(); pos += 65536) {
    size_t len = std::min<size_t>(65536, rows.size() - pos);
    client.IngestBatch(Span<const uint64_t>(rows.data() + pos, len));
  }

  struct QueryCase {
    const char* name;
    const char* opcode;  // latency-histogram label on the server side
    std::function<bool()> run;
  };
  PredicateSpec filtered = PredicateSpec().WhereIn(0, {1, 5, 9});
  std::vector<QueryCase> cases;
  cases.push_back(
      {"sum_all", "query_sum", [&] { return client.QuerySum().has_value(); }});
  cases.push_back({"sum_filtered", "query_sum",
                   [&] { return client.QuerySum(filtered).has_value(); }});
  cases.push_back({"topk_100", "query_topk",
                   [&] { return client.QueryTopK(100).has_value(); }});
  cases.push_back({"groupby_dim0", "query_groupby",
                   [&] { return client.QueryGroupBy(0).has_value(); }});

  std::printf("\n%-14s %14s %14s %8s %8s %8s\n", "query", "round_trips_s",
              "us_per_query", "p50_us", "p95_us", "p99_us");
  bool ok = true;
  for (const QueryCase& c : cases) {
    c.run();  // warm the merged snapshot cache
    const obs::HistogramSnapshot before = LatencySnapshot(c.opcode);
    auto start = Clock::now();
    for (int64_t i = 0; i < query_iters; ++i) {
      if (!c.run()) {
        std::fprintf(stderr, "%s: round trip failed\n", c.name);
        ok = false;
        break;
      }
    }
    double elapsed = SecondsSince(start);
    double qps = static_cast<double>(query_iters) / elapsed;
    // Server-side handler latency for just this loop's requests — the
    // gap against us_per_query (wall clock) is framing + transport.
    const obs::HistogramSnapshot lat = LatencySnapshot(c.opcode).Since(before);
    const double p50 = lat.Percentile(50);
    const double p95 = lat.Percentile(95);
    const double p99 = lat.Percentile(99);
    std::printf("%-14s %14.0f %14.2f %8.1f %8.1f %8.1f\n", c.name, qps,
                1e6 / qps, p50, p95, p99);
    if (json.enabled()) {
      json.BeginRecord("query");
      json.Add("query", std::string(c.name));
      json.Add("round_trips_per_s", qps);
      json.Add("p50_us", p50);
      json.Add("p95_us", p95);
      json.Add("p99_us", p99);
    }
  }

  // --- trace-capture overhead -----------------------------------------
  // The same live QUERY_SUM loop with request tracing off vs every
  // request captured in full. "off" is what every request pays
  // unconditionally (span clock reads + flight-recorder ring writes);
  // "on" adds the buffered span tree and the publish into the recent
  // ring — the gap is the price of --trace-sample=1.
  struct TraceCost {
    double qps;
    double p99;
  };
  auto measure_trace = [&]() -> TraceCost {
    client.QuerySum();  // warm the merged snapshot cache
    const obs::HistogramSnapshot before = LatencySnapshot("query_sum");
    auto t0 = Clock::now();
    for (int64_t i = 0; i < query_iters; ++i) {
      if (!client.QuerySum().has_value()) break;
    }
    const double elapsed = SecondsSince(t0);
    const obs::HistogramSnapshot lat =
        LatencySnapshot("query_sum").Since(before);
    return {static_cast<double>(query_iters) / elapsed, lat.Percentile(99)};
  };
  obs::TraceCollector::Global().Configure({/*sample_every=*/0,
                                           /*slow_request_us=*/0});
  const TraceCost trace_off = measure_trace();
  obs::TraceCollector::Global().Configure({/*sample_every=*/1,
                                           /*slow_request_us=*/0});
  const TraceCost trace_on = measure_trace();
  obs::TraceCollector::Global().Configure({/*sample_every=*/0,
                                           /*slow_request_us=*/0});
  std::printf(
      "\ntrace capture: off %.0f rt/s (p99 %.1f us) -> every-request "
      "%.0f rt/s (p99 %.1f us)\n",
      trace_off.qps, trace_off.p99, trace_on.qps, trace_on.p99);
  if (json.enabled()) {
    json.BeginRecord("trace_overhead");
    json.Add("qps_off", trace_off.qps);
    json.Add("qps_on", trace_on.qps);
    json.Add("p99_us_off", trace_off.p99);
    json.Add("p99_us_on", trace_on.p99);
  }

  // --- snapshot / restore hop -----------------------------------------
  auto start = Clock::now();
  auto blob = client.Snapshot();
  double snapshot_s = SecondsSince(start);
  double restore_s = 0.0;
  if (blob.has_value()) {
    SketchServerOptions options_b = options;
    options_b.shard.seed = 17;
    options_b.seed = 17;
    InMemoryDuplex duplex_b;
    SketchServer replica(options_b, &attrs);
    std::thread serve_b([&] { replica.Serve(duplex_b.server()); });
    SketchClient client_b(duplex_b.client());
    start = Clock::now();
    client_b.Restore(*blob);
    client_b.QuerySum();  // forces the merged view rebuild
    restore_s = SecondsSince(start);
    client_b.Shutdown();
    serve_b.join();
  }
  std::printf("\nsnapshot: %zu bytes in %.2f ms; replica restore+query %.2f ms\n",
              blob ? blob->size() : 0, 1e3 * snapshot_s, 1e3 * restore_s);
  if (json.enabled()) {
    json.BeginRecord("replication");
    json.Add("snapshot_bytes", static_cast<int64_t>(blob ? blob->size() : 0));
    json.Add("snapshot_ms", 1e3 * snapshot_s);
    json.Add("restore_query_ms", 1e3 * restore_s);
  }

  client.Shutdown();
  serve.join();

  std::printf(
      "\n(framed vs direct gap = protocol + frame + response round-trip\n"
      " cost; queries pay one merged-snapshot rebuild when state changed\n"
      " since the last query, then serve from the cached view)\n");
  return ok;
}

}  // namespace
}  // namespace dsketch

int main(int argc, char** argv) { return dsketch::Run(argc, argv) ? 0 : 1; }
