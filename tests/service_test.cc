// End-to-end tests for the streaming service layer: the frame codec over
// the in-memory transport, protocol message round trips, a live
// client/server session exercising every opcode, the weighted ingest
// path, and the replication contract — a replica that restores from a
// primary's SNAPSHOT frames answers top-k/subset-sum queries identically
// (the fresh-fleet restore is exact when the merge capacity holds every
// snapshot entry, the same contract sharded_sketch_test pins for
// IngestSerialized).

#include <dirent.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "core/unbiased_space_saving.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/attribute_table.h"
#include "query/frozen_source.h"
#include "service/client.h"
#include "service/frame.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/transport.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"
#include "wire/codec.h"

namespace dsketch {
namespace {

TEST(FrameTest, RoundTripsPayloadsOverInMemoryDuplex) {
  InMemoryDuplex duplex;
  std::string payload;
  EXPECT_TRUE(WriteFrame(duplex.client(), "hello frames"));
  EXPECT_TRUE(WriteFrame(duplex.client(), ""));  // empty frame is legal
  ASSERT_EQ(ReadFrame(duplex.server(), &payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "hello frames");
  ASSERT_EQ(ReadFrame(duplex.server(), &payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "");
  duplex.client().CloseWrite();
  EXPECT_EQ(ReadFrame(duplex.server(), &payload), FrameStatus::kEof);
}

TEST(FrameTest, RefusesOversizedPayloadOnWrite) {
  InMemoryDuplex duplex;
  std::string big(kMaxFramePayload + 1, 'x');
  EXPECT_FALSE(WriteFrame(duplex.client(), big));
}

TEST(ProtocolTest, IngestBatchRoundTripsWithAndWithoutWeights) {
  IngestBatchRequest unit;
  unit.items = {1, 99, 1u << 30, 7};
  std::string payload = EncodeIngestBatchRequest(42, unit);
  wire::VarintReader reader(payload);
  RequestHeader header;
  ASSERT_TRUE(DecodeRequestHeader(reader, &header));
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.opcode, Opcode::kIngestBatch);
  EXPECT_EQ(header.request_id, 42u);
  IngestBatchRequest decoded;
  ASSERT_TRUE(DecodeIngestBatchRequest(reader, &decoded));
  EXPECT_EQ(decoded.items, unit.items);
  EXPECT_TRUE(decoded.weights.empty());

  IngestBatchRequest weighted = unit;
  weighted.weights = {0.5, 2.0, 1.25, 100.0};
  payload = EncodeIngestBatchRequest(43, weighted);
  wire::VarintReader reader2(payload);
  ASSERT_TRUE(DecodeRequestHeader(reader2, &header));
  ASSERT_TRUE(DecodeIngestBatchRequest(reader2, &decoded));
  EXPECT_EQ(decoded.items, weighted.items);
  EXPECT_EQ(decoded.weights, weighted.weights);
}

TEST(ProtocolTest, QueryAndResponseMessagesRoundTrip) {
  QuerySumRequest sum;
  sum.scope = QueryScope::kWeighted;
  sum.where.WhereEq(0, 3).WhereIn(2, {1, 5, 9});
  std::string payload = EncodeQuerySumRequest(7, sum);
  wire::VarintReader reader(payload);
  RequestHeader header;
  ASSERT_TRUE(DecodeRequestHeader(reader, &header));
  QuerySumRequest sum2;
  ASSERT_TRUE(DecodeQuerySumRequest(reader, &sum2));
  EXPECT_EQ(sum2.scope, QueryScope::kWeighted);
  ASSERT_EQ(sum2.where.conditions.size(), 2u);
  EXPECT_EQ(sum2.where.conditions[1].values, (std::vector<uint32_t>{1, 5, 9}));

  QueryTopKResponse topk;
  topk.scope = QueryScope::kCounts;
  topk.counts = {{11, 500}, {22, 300}};
  payload = EncodeQueryTopKResponse(9, topk);
  wire::VarintReader reader2(payload);
  ResponseHeader rsp_header;
  ASSERT_TRUE(DecodeResponseHeader(reader2, &rsp_header));
  EXPECT_EQ(rsp_header.status, Status::kOk);
  EXPECT_EQ(rsp_header.request_id, 9u);
  QueryTopKResponse topk2;
  ASSERT_TRUE(DecodeQueryTopKResponse(reader2, &topk2));
  ASSERT_EQ(topk2.counts.size(), 2u);
  EXPECT_EQ(topk2.counts[0].item, 11u);
  EXPECT_EQ(topk2.counts[0].count, 500);

  StatsResponse stats;
  stats.rows_ingested = 12345;
  stats.total_count = -3;  // signed path
  stats.total_weight = 2.5;
  stats.last_snapshot_format = SnapshotFormat::kFrozen;
  stats.last_snapshot_bytes = 98432;
  stats.last_restore_format = SnapshotFormat::kStream;
  stats.last_restore_bytes = 1613;
  stats.traces_captured_total = 77;
  stats.flight_recorder_dropped_total = 4096;
  payload = EncodeStatsResponse(1, stats);
  wire::VarintReader reader3(payload);
  ASSERT_TRUE(DecodeResponseHeader(reader3, &rsp_header));
  StatsResponse stats2;
  ASSERT_TRUE(DecodeStatsResponse(reader3, &stats2));
  EXPECT_EQ(stats2.rows_ingested, 12345u);
  EXPECT_EQ(stats2.total_count, -3);
  EXPECT_DOUBLE_EQ(stats2.total_weight, 2.5);
  EXPECT_EQ(stats2.last_snapshot_format, SnapshotFormat::kFrozen);
  EXPECT_EQ(stats2.last_snapshot_bytes, 98432u);
  EXPECT_EQ(stats2.last_restore_format, SnapshotFormat::kStream);
  EXPECT_EQ(stats2.last_restore_bytes, 1613u);
  EXPECT_EQ(stats2.traces_captured_total, 77u);
  EXPECT_EQ(stats2.flight_recorder_dropped_total, 4096u);

  // The frozen flag rides the high bit of the SNAPSHOT scope byte;
  // decoding must strip it and validate the masked scope.
  SnapshotRequest snap_req;
  snap_req.scope = QueryScope::kCounts;
  snap_req.frozen = true;
  payload = EncodeSnapshotRequest(9, snap_req);
  wire::VarintReader reader4(payload);
  RequestHeader req_header;
  ASSERT_TRUE(DecodeRequestHeader(reader4, &req_header));
  SnapshotRequest snap_req2;
  ASSERT_TRUE(DecodeSnapshotRequest(reader4, &snap_req2));
  EXPECT_EQ(snap_req2.scope, QueryScope::kCounts);
  EXPECT_TRUE(snap_req2.frozen);
}

TEST(ProtocolTest, MetricsMessagesRoundTripAndValidateScope) {
  MetricsRequest req;
  req.scope = MetricsScope::kWindow;
  std::string payload = EncodeMetricsRequest(5, req);
  wire::VarintReader reader(payload);
  RequestHeader header;
  ASSERT_TRUE(DecodeRequestHeader(reader, &header));
  EXPECT_EQ(header.opcode, Opcode::kMetrics);
  MetricsRequest req2;
  ASSERT_TRUE(DecodeMetricsRequest(reader, &req2));
  EXPECT_EQ(req2.scope, MetricsScope::kWindow);

  // A scope byte past the enum is malformed, not misinterpreted.
  std::string bad = EncodeMetricsRequest(6, req);
  bad.back() = static_cast<char>(6);
  wire::VarintReader bad_reader(bad);
  ASSERT_TRUE(DecodeRequestHeader(bad_reader, &header));
  MetricsRequest req3;
  EXPECT_FALSE(DecodeMetricsRequest(bad_reader, &req3));

  MetricsResponse rsp;
  rsp.text = "# TYPE t counter\nt 1\n";
  payload = EncodeMetricsResponse(5, rsp);
  wire::VarintReader rsp_reader(payload);
  ResponseHeader rsp_header;
  ASSERT_TRUE(DecodeResponseHeader(rsp_reader, &rsp_header));
  EXPECT_EQ(rsp_header.status, Status::kOk);
  MetricsResponse rsp2;
  ASSERT_TRUE(DecodeMetricsResponse(rsp_reader, &rsp2));
  EXPECT_EQ(rsp2.text, rsp.text);

  EXPECT_EQ(MetricsScopePrefix(MetricsScope::kAll), "dsketch_");
  EXPECT_EQ(MetricsScopePrefix(MetricsScope::kService), "dsketch_service_");
  EXPECT_EQ(MetricsScopePrefix(MetricsScope::kUtil), "dsketch_util_");
}

TEST(ProtocolTest, TraceMessagesRoundTripAndValidateScope) {
  TraceRequest req;
  req.scope = TraceScope::kFlight;
  std::string payload = EncodeTraceRequest(21, req);
  wire::VarintReader reader(payload);
  RequestHeader header;
  ASSERT_TRUE(DecodeRequestHeader(reader, &header));
  EXPECT_EQ(header.opcode, Opcode::kTrace);
  TraceRequest req2;
  ASSERT_TRUE(DecodeTraceRequest(reader, &req2));
  EXPECT_EQ(req2.scope, TraceScope::kFlight);

  // A scope byte past the enum is malformed, not misinterpreted.
  std::string bad = EncodeTraceRequest(22, req);
  bad.back() = static_cast<char>(2);
  wire::VarintReader bad_reader(bad);
  ASSERT_TRUE(DecodeRequestHeader(bad_reader, &header));
  TraceRequest req3;
  EXPECT_FALSE(DecodeTraceRequest(bad_reader, &req3));

  TraceResponse rsp;
  rsp.text = "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\"}\n";
  payload = EncodeTraceResponse(21, rsp);
  wire::VarintReader rsp_reader(payload);
  ResponseHeader rsp_header;
  ASSERT_TRUE(DecodeResponseHeader(rsp_reader, &rsp_header));
  EXPECT_EQ(rsp_header.status, Status::kOk);
  TraceResponse rsp2;
  ASSERT_TRUE(DecodeTraceResponse(rsp_reader, &rsp2));
  EXPECT_EQ(rsp2.text, rsp.text);
}

// Fixture running a server thread over the in-memory duplex.
class ServiceSessionTest : public ::testing::Test {
 protected:
  ServiceSessionTest() : attrs_(2) {
    // 1000 items: dim 0 = item % 10, dim 1 = item % 4.
    for (uint64_t i = 0; i < 1000; ++i) {
      attrs_.AddItem({static_cast<uint32_t>(i % 10),
                      static_cast<uint32_t>(i % 4)});
    }
  }

  void Boot(const AttributeTable* attrs) {
    SketchServerOptions options;
    options.shard.num_shards = 2;
    options.shard.shard_capacity = 512;
    options.shard.seed = 5;
    options.merged_capacity = 1024;
    options.seed = 5;
    server_ = std::make_unique<SketchServer>(options, attrs);
    serve_ = std::thread([this] { server_->Serve(duplex_.server()); });
    client_ = std::make_unique<SketchClient>(duplex_.client());
  }

  void TearDown() override {
    if (client_ != nullptr) client_->Shutdown();
    if (serve_.joinable()) serve_.join();
  }

  AttributeTable attrs_;
  InMemoryDuplex duplex_;
  std::unique_ptr<SketchServer> server_;
  std::thread serve_;
  std::unique_ptr<SketchClient> client_;
};

TEST_F(ServiceSessionTest, IngestsAndAnswersEveryQueryOpcode) {
  Boot(&attrs_);
  // 200 copies each of items 0..99: totals are exact, filters are easy
  // to check (dim 0 == 3 selects items 3, 13, ..., 93 -> 2000 rows).
  std::vector<uint64_t> rows;
  for (uint64_t item = 0; item < 100; ++item) {
    for (int c = 0; c < 200; ++c) rows.push_back(item);
  }
  Rng rng(3);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextBounded(i)]);
  }
  ASSERT_TRUE(client_->IngestBatch(rows));

  auto total = client_->QuerySum();
  ASSERT_TRUE(total.has_value());
  EXPECT_EQ(total->estimate, 20000.0);

  auto filtered = client_->QuerySum(PredicateSpec().WhereEq(0, 3));
  ASSERT_TRUE(filtered.has_value());
  // The sketch holds all 100 distinct items (capacity 512), so the
  // subset estimate is exact.
  EXPECT_EQ(filtered->estimate, 2000.0);
  EXPECT_EQ(filtered->items_in_sample, 10u);

  auto topk = client_->QueryTopK(5);
  ASSERT_TRUE(topk.has_value());
  ASSERT_EQ(topk->counts.size(), 5u);
  EXPECT_EQ(topk->counts[0].count, 200);

  auto by_dim0 = client_->QueryGroupBy(0);
  ASSERT_TRUE(by_dim0.has_value());
  ASSERT_EQ(by_dim0->groups.size(), 10u);
  for (const GroupRow& g : by_dim0->groups) {
    EXPECT_EQ(g.estimate, 2000.0) << "group " << g.key;
  }

  auto by_pair = client_->QueryGroupBy2(0, 1);
  ASSERT_TRUE(by_pair.has_value());
  EXPECT_EQ(by_pair->groups.size(), 20u);  // lcm(10,4)=20 pairs occur

  auto stats = client_->Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rows_ingested, rows.size());
  EXPECT_EQ(stats->total_count, 20000);
  EXPECT_EQ(stats->batches, 1u);
  EXPECT_EQ(stats->num_shards, 2u);
}

TEST_F(ServiceSessionTest, WeightedPathIngestsQueriesAndSnapshots) {
  Boot(&attrs_);
  // Items 0..49, each with weight item + 0.5, 10 rows each.
  std::vector<uint64_t> items;
  std::vector<double> weights;
  double truth = 0.0;
  for (uint64_t item = 0; item < 50; ++item) {
    for (int c = 0; c < 10; ++c) {
      items.push_back(item);
      weights.push_back(static_cast<double>(item) + 0.5);
      truth += static_cast<double>(item) + 0.5;
    }
  }
  ASSERT_TRUE(client_->IngestWeighted(items, weights));

  auto total = client_->QuerySum(PredicateSpec(), QueryScope::kWeighted);
  ASSERT_TRUE(total.has_value());
  EXPECT_NEAR(total->estimate, truth, 1e-6 * truth);

  auto topk = client_->QueryTopK(3, QueryScope::kWeighted);
  ASSERT_TRUE(topk.has_value());
  ASSERT_EQ(topk->weighted.size(), 3u);
  EXPECT_EQ(topk->weighted[0].item, 49u);
  EXPECT_NEAR(topk->weighted[0].weight, 495.0, 1e-9);

  // Weighted filter: dim 0 == 7 selects items 7, 17, 27, 37, 47.
  auto filtered =
      client_->QuerySum(PredicateSpec().WhereEq(0, 7), QueryScope::kWeighted);
  ASSERT_TRUE(filtered.has_value());
  EXPECT_NEAR(filtered->estimate, 10 * (7 + 17 + 27 + 37 + 47 + 2.5), 1e-6);

  // Weighted snapshot replicates into a fresh node.
  auto blob = client_->Snapshot(QueryScope::kWeighted);
  ASSERT_TRUE(blob.has_value());
  {
    SketchServerOptions options;
    options.shard.num_shards = 2;
    options.shard.shard_capacity = 512;
    options.shard.seed = 77;
    options.merged_capacity = 1024;
    options.seed = 77;
    InMemoryDuplex wire_b;
    SketchServer replica(options, &attrs_);
    std::thread serve_b([&] { replica.Serve(wire_b.server()); });
    SketchClient client_b(wire_b.client());
    ASSERT_TRUE(client_b.Restore(*blob, QueryScope::kWeighted));
    auto replica_total =
        client_b.QuerySum(PredicateSpec(), QueryScope::kWeighted);
    ASSERT_TRUE(replica_total.has_value());
    EXPECT_NEAR(replica_total->estimate, truth, 1e-6 * truth);
    client_b.Shutdown();
    serve_b.join();
  }

  // The unit-row state is untouched by weighted ingest.
  auto counts_total = client_->QuerySum();
  ASSERT_TRUE(counts_total.has_value());
  EXPECT_EQ(counts_total->estimate, 0.0);
}

TEST_F(ServiceSessionTest, WindowedPathIngestsQueriesAndReplicates) {
  Boot(&attrs_);
  // 3 epochs of epoch-disjoint labels: epoch e carries 120 rows of
  // items e*100 .. e*100+39 (3 rows each), so per-epoch truths and
  // window truths are exact.
  const uint64_t kEpochs = 3;
  size_t window_rows = 0;
  for (uint64_t e = 0; e < kEpochs; ++e) {
    std::vector<uint64_t> rows;
    for (uint64_t item = 0; item < 40; ++item) {
      for (int c = 0; c < 3; ++c) rows.push_back(e * 100 + item);
    }
    window_rows += rows.size();
    ASSERT_TRUE(client_->IngestWindowed(rows, e));
  }

  // Full-window total (ring default of 8 epochs holds everything).
  auto total = client_->QuerySum(PredicateSpec(), QueryScope::kWindow);
  ASSERT_TRUE(total.has_value());
  EXPECT_EQ(total->estimate, static_cast<double>(window_rows));

  // last_k = 1 scopes to the newest epoch exactly.
  auto newest = client_->QuerySum(PredicateSpec(), QueryScope::kWindow, 1);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->estimate, 120.0);

  // Predicates compose with the window scope: dim 0 == 5 selects items
  // ending in 5, present in every epoch (4 per epoch x 3 rows).
  auto filtered = client_->QuerySum(PredicateSpec().WhereEq(0, 5),
                                    QueryScope::kWindow);
  ASSERT_TRUE(filtered.has_value());
  EXPECT_EQ(filtered->estimate, 36.0);

  // Window top-k over the newest epoch stays in its label range.
  auto topk = client_->QueryTopK(5, QueryScope::kWindow, /*last_k=*/1);
  ASSERT_TRUE(topk.has_value());
  ASSERT_EQ(topk->counts.size(), 5u);
  for (const SketchEntry& e : topk->counts) {
    EXPECT_GE(e.item, (kEpochs - 1) * 100);
    EXPECT_EQ(e.count, 3);
  }

  auto stats = client_->Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->windowed_rows_ingested, window_rows);
  EXPECT_EQ(stats->window_epoch, kEpochs - 1);
  // The unit-row state is untouched by windowed ingest.
  EXPECT_EQ(stats->total_count, 0);

  // The full ring replicates into a fresh node through one
  // SNAPSHOT -> RESTORE hop: totals, per-window totals, and epoch
  // position all carry over exactly.
  auto ring = client_->Snapshot(QueryScope::kWindow);
  ASSERT_TRUE(ring.has_value());
  {
    SketchServerOptions options;
    options.shard.num_shards = 2;
    options.shard.shard_capacity = 512;
    options.shard.seed = 88;
    options.merged_capacity = 1024;
    options.seed = 88;
    InMemoryDuplex wire_b;
    SketchServer replica(options, &attrs_);
    std::thread serve_b([&] { replica.Serve(wire_b.server()); });
    SketchClient client_b(wire_b.client());
    ASSERT_TRUE(client_b.Restore(*ring, QueryScope::kWindow));
    auto replica_total =
        client_b.QuerySum(PredicateSpec(), QueryScope::kWindow);
    ASSERT_TRUE(replica_total.has_value());
    EXPECT_EQ(replica_total->estimate, static_cast<double>(window_rows));
    auto replica_newest =
        client_b.QuerySum(PredicateSpec(), QueryScope::kWindow, 1);
    ASSERT_TRUE(replica_newest.has_value());
    EXPECT_EQ(replica_newest->estimate, 120.0);
    client_b.Shutdown();
    serve_b.join();
  }
}

TEST_F(ServiceSessionTest, WindowedEpochAdvanceExpiresOldEpochs) {
  Boot(&attrs_);
  // Ring length defaults to 8; advance far enough that epoch 0 falls
  // off and the full-window total shrinks accordingly.
  std::vector<uint64_t> old_rows(60, 7);
  ASSERT_TRUE(client_->IngestWindowed(old_rows, 0));
  std::vector<uint64_t> new_rows(40, 9);
  ASSERT_TRUE(client_->IngestWindowed(new_rows, 9));  // epoch 0 expires

  auto total = client_->QuerySum(PredicateSpec(), QueryScope::kWindow);
  ASSERT_TRUE(total.has_value());
  EXPECT_EQ(total->estimate, 40.0);  // only epoch 9 remains in range

  // An empty windowed batch is a pure epoch advance.
  ASSERT_TRUE(client_->IngestWindowed(std::vector<uint64_t>{}, 17));
  auto stats = client_->Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->window_epoch, 17u);
  auto after = client_->QuerySum(PredicateSpec(), QueryScope::kWindow);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->estimate, 0.0);  // everything expired
}

// The wall-clock epoch timer: a server booted with epoch_interval_ms
// closes window epochs on its own between frames (WaitReadable slices),
// so clients that only query still see the window slide.
TEST(ServiceEpochTimerTest, WallClockTicksAdvanceTheWindowEpoch) {
  SketchServerOptions options;
  options.shard.num_shards = 2;
  options.shard.shard_capacity = 512;
  options.shard.seed = 5;
  options.merged_capacity = 1024;
  options.seed = 5;
  options.epoch_interval_ms = 5;
  SketchServer server(options);
  InMemoryDuplex duplex;
  std::thread serve([&] { server.Serve(duplex.server()); });
  SketchClient client(duplex.client());

  // Boot the windowed fleet (it is lazy) with rows at the start epoch.
  ASSERT_TRUE(client.IngestWindowed(std::vector<uint64_t>{1, 2, 3}, 0));
  // Poll until the timer has closed at least one epoch. Bounded wait:
  // one tick is due after 5ms; 400 polls of 5ms only matter on a
  // machine so loaded the test would time out anyway.
  uint64_t epoch = 0;
  for (int i = 0; i < 400 && epoch == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto stats = client.Stats();
    ASSERT_TRUE(stats.has_value());
    epoch = stats->window_epoch;
  }
  EXPECT_GE(epoch, 1u);

  client.Shutdown();
  serve.join();
}

// Hostile-stamp safety for the timer: a client that parks the window
// clock at the stamp cap must not push wall-clock ticks past it — the
// tick target saturates at kMaxEpochStamp instead of overflowing or
// tripping the stamp CHECKs.
TEST(ServiceEpochTimerTest, TicksSaturateAtTheEpochStampCap) {
  SketchServerOptions options;
  options.shard.num_shards = 2;
  options.shard.shard_capacity = 512;
  options.shard.seed = 5;
  options.merged_capacity = 1024;
  options.seed = 5;
  options.epoch_interval_ms = 1;
  SketchServer server(options);
  InMemoryDuplex duplex;
  std::thread serve([&] { server.Serve(duplex.server()); });
  SketchClient client(duplex.client());

  ASSERT_TRUE(
      client.IngestWindowed(std::vector<uint64_t>{9}, kMaxEpochStamp));
  // Give the timer several due ticks, then confirm the clock held.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto stats = client.Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->window_epoch, kMaxEpochStamp);

  client.Shutdown();
  serve.join();
}

TEST_F(ServiceSessionTest, PredicateQueriesWithoutTableAreUnsupported) {
  Boot(nullptr);
  ASSERT_TRUE(client_->IngestBatch(std::vector<uint64_t>{1, 2, 3}));
  auto total = client_->QuerySum();  // no conditions: fine without table
  ASSERT_TRUE(total.has_value());
  EXPECT_EQ(total->estimate, 3.0);
  auto filtered = client_->QuerySum(PredicateSpec().WhereEq(0, 1));
  EXPECT_FALSE(filtered.has_value());
  EXPECT_EQ(client_->last_status(),
            static_cast<uint8_t>(Status::kUnsupported));
  auto grouped = client_->QueryGroupBy(0);
  EXPECT_FALSE(grouped.has_value());
  EXPECT_EQ(client_->last_status(),
            static_cast<uint8_t>(Status::kUnsupported));
}

TEST_F(ServiceSessionTest, ShutdownEndsTheSession) {
  Boot(&attrs_);
  ASSERT_TRUE(client_->Shutdown());
  EXPECT_TRUE(server_->shutdown_requested());
  serve_.join();
  // The connection is gone: further calls fail at the transport.
  EXPECT_FALSE(client_->IngestBatch(std::vector<uint64_t>{1}));
  EXPECT_EQ(client_->last_status(), kTransportError);
  client_.reset();  // TearDown must not re-shutdown a dead session
}

// The acceptance scenario: node A ingests a Zipf workload; node B
// catches up purely from A's SNAPSHOT frames. A fresh replica's restore
// is exact (same contract as sharded_sketch_test's
// SerializedSnapshotRoundTripsIntoFreshFleet): totals match exactly and
// every top-k / subset-sum answer matches A's.
TEST(ServiceReplicationTest, ReplicaCatchesUpFromSnapshotFrames) {
  AttributeTable attrs(1);
  const size_t kItems = 3000;
  for (uint64_t i = 0; i < kItems; ++i) {
    attrs.AddItem({static_cast<uint32_t>(i % 8)});
  }
  auto counts = ZipfCounts(kItems, 1.1, 400);
  Rng rng(17);
  auto rows = PermutedStream(counts, rng);

  SketchServerOptions options;
  options.shard.num_shards = 3;
  options.shard.shard_capacity = 1024;
  options.shard.seed = 21;
  options.merged_capacity = 2048;
  options.seed = 21;

  InMemoryDuplex wire_a;
  SketchServer node_a(options, &attrs);
  std::thread serve_a([&] { node_a.Serve(wire_a.server()); });
  SketchClient client_a(wire_a.client());
  const size_t kBatch = 2000;
  for (size_t pos = 0; pos < rows.size(); pos += kBatch) {
    size_t len = std::min(kBatch, rows.size() - pos);
    ASSERT_TRUE(client_a.IngestBatch(
        Span<const uint64_t>(rows.data() + pos, len)));
  }
  auto blob = client_a.Snapshot();
  ASSERT_TRUE(blob.has_value());

  SketchServerOptions options_b = options;
  options_b.shard.seed = 99;  // replica randomness is independent
  options_b.seed = 99;
  InMemoryDuplex wire_b;
  SketchServer node_b(options_b, &attrs);
  std::thread serve_b([&] { node_b.Serve(wire_b.server()); });
  SketchClient client_b(wire_b.client());
  ASSERT_TRUE(client_b.Restore(*blob));

  // Totals are preserved exactly through snapshot + restore.
  auto total_a = client_a.QuerySum();
  auto total_b = client_b.QuerySum();
  ASSERT_TRUE(total_a.has_value() && total_b.has_value());
  EXPECT_EQ(total_a->estimate, static_cast<double>(rows.size()));
  EXPECT_EQ(total_b->estimate, total_a->estimate);

  // Top-k answers match item-for-item, count-for-count.
  auto topk_a = client_a.QueryTopK(20);
  auto topk_b = client_b.QueryTopK(20);
  ASSERT_TRUE(topk_a.has_value() && topk_b.has_value());
  ASSERT_EQ(topk_a->counts.size(), topk_b->counts.size());
  for (size_t i = 0; i < topk_a->counts.size(); ++i) {
    EXPECT_EQ(topk_a->counts[i].item, topk_b->counts[i].item) << "rank " << i;
    EXPECT_EQ(topk_a->counts[i].count, topk_b->counts[i].count)
        << "rank " << i;
  }

  // Subset sums (filtered and grouped) agree on every group.
  for (uint32_t value : {0u, 3u, 7u}) {
    auto sum_a = client_a.QuerySum(PredicateSpec().WhereEq(0, value));
    auto sum_b = client_b.QuerySum(PredicateSpec().WhereEq(0, value));
    ASSERT_TRUE(sum_a.has_value() && sum_b.has_value());
    EXPECT_EQ(sum_a->estimate, sum_b->estimate) << "dim0 == " << value;
  }
  auto groups_a = client_a.QueryGroupBy(0);
  auto groups_b = client_b.QueryGroupBy(0);
  ASSERT_TRUE(groups_a.has_value() && groups_b.has_value());
  ASSERT_EQ(groups_a->groups.size(), groups_b->groups.size());
  for (size_t i = 0; i < groups_a->groups.size(); ++i) {
    EXPECT_EQ(groups_a->groups[i].key, groups_b->groups[i].key);
    EXPECT_EQ(groups_a->groups[i].estimate, groups_b->groups[i].estimate);
  }

  // B keeps answering after more local rows arrive on top of the
  // restored state: the total covers both streams.
  std::vector<uint64_t> extra(500, 12345);
  ASSERT_TRUE(client_b.IngestBatch(extra));
  auto grown = client_b.QuerySum();
  ASSERT_TRUE(grown.has_value());
  EXPECT_EQ(grown->estimate, static_cast<double>(rows.size() + 500));

  // STATS reports the format and size of the last snapshot hop: A
  // served a v2 stream blob, B absorbed the same bytes.
  auto stats_a = client_a.Stats();
  ASSERT_TRUE(stats_a.has_value());
  EXPECT_EQ(stats_a->last_snapshot_format, SnapshotFormat::kStream);
  EXPECT_EQ(stats_a->last_snapshot_bytes, blob->size());
  EXPECT_EQ(stats_a->last_restore_format, SnapshotFormat::kNone);
  auto stats_b = client_b.Stats();
  ASSERT_TRUE(stats_b.has_value());
  EXPECT_EQ(stats_b->last_restore_format, SnapshotFormat::kStream);
  EXPECT_EQ(stats_b->last_restore_bytes, blob->size());

  // The frozen negotiation: A freezes its state into the mmap-able
  // image (wire kind 8), B restores it through the same RESTORE opcode
  // (the decoder dispatches on the envelope), and both sides' STATS
  // flip to the frozen format.
  auto frozen = client_a.Snapshot(QueryScope::kCounts, /*frozen=*/true);
  ASSERT_TRUE(frozen.has_value());
  auto info = wire::DescribeWire(*frozen);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->kind, wire::kKindFrozenUnbiased);
  ASSERT_TRUE(client_b.Restore(*frozen));
  // Restore absorbs the peer rows on top of B's state, so B's total
  // grows by exactly the frozen sketch's row count.
  auto total_b2 = client_b.QuerySum();
  ASSERT_TRUE(total_b2.has_value());
  EXPECT_EQ(total_b2->estimate, grown->estimate + total_a->estimate);

  stats_a = client_a.Stats();
  ASSERT_TRUE(stats_a.has_value());
  EXPECT_EQ(stats_a->last_snapshot_format, SnapshotFormat::kFrozen);
  EXPECT_EQ(stats_a->last_snapshot_bytes, frozen->size());
  stats_b = client_b.Stats();
  ASSERT_TRUE(stats_b.has_value());
  EXPECT_EQ(stats_b->last_restore_format, SnapshotFormat::kFrozen);
  EXPECT_EQ(stats_b->last_restore_bytes, frozen->size());

  client_a.Shutdown();
  client_b.Shutdown();
  serve_a.join();
  serve_b.join();
}

// ---- telemetry surface (protocol v4) ----

Status ResponseStatusOf(const std::string& response) {
  wire::VarintReader reader(response);
  ResponseHeader header;
  EXPECT_TRUE(DecodeResponseHeader(reader, &header));
  return header.status;
}

SketchServerOptions SmallServerOptions() {
  SketchServerOptions options;
  options.shard.num_shards = 2;
  options.shard.shard_capacity = 256;
  options.shard.seed = 11;
  options.merged_capacity = 512;
  options.seed = 11;
  return options;
}

TEST_F(ServiceSessionTest, MetricsOpcodeServesScopedExposition) {
  Boot(&attrs_);
  ASSERT_TRUE(client_->IngestBatch(std::vector<uint64_t>{1, 2, 3, 4, 5}));
  ASSERT_TRUE(client_->QuerySum().has_value());

  auto all = client_->Metrics();
  ASSERT_TRUE(all.has_value());
  // The exposition reflects this very session's traffic (counters are
  // process-global, so >= rather than == under parallel test runs).
  EXPECT_NE(
      all->find("dsketch_service_requests_total{opcode=\"ingest_batch\"}"),
      std::string::npos);
  EXPECT_NE(all->find("dsketch_service_request_latency_us_bucket"),
            std::string::npos);
  EXPECT_NE(all->find("dsketch_util_build_info{metrics=\""),
            std::string::npos);

  // Scope filtering selects whole metric families by prefix.
  auto service_only = client_->Metrics(MetricsScope::kService);
  ASSERT_TRUE(service_only.has_value());
  EXPECT_NE(service_only->find("dsketch_service_"), std::string::npos);
  EXPECT_EQ(service_only->find("dsketch_shard_"), std::string::npos);
  EXPECT_EQ(service_only->find("dsketch_util_"), std::string::npos);
  auto util_only = client_->Metrics(MetricsScope::kUtil);
  ASSERT_TRUE(util_only.has_value());
  EXPECT_EQ(util_only->find("dsketch_service_"), std::string::npos);
  EXPECT_NE(util_only->find("dsketch_util_build_info{metrics=\""),
            std::string::npos);
}

// Every span feeds its layer's histogram with no trace sampled: one
// INGEST and one filtered SUM decode two frames, reduce one query and
// encode two responses.
TEST_F(ServiceSessionTest, RequestSpansFeedTheirLayerHistograms) {
  Boot(&attrs_);
  auto count = [](const char* name) {
    return obs::MetricsRegistry::Global().GetHistogram(name).Count();
  };
  const uint64_t decode0 = count("dsketch_wire_frame_decode_us");
  const uint64_t reduce0 = count("dsketch_query_reduce_us");
  const uint64_t encode0 = count("dsketch_wire_encode_us");
  ASSERT_TRUE(client_->IngestBatch(std::vector<uint64_t>{1, 2, 3, 4, 5}));
  ASSERT_TRUE(client_->QuerySum(PredicateSpec().WhereEq(0, 3)).has_value());
  EXPECT_EQ(count("dsketch_wire_frame_decode_us"), decode0 + 2);
  EXPECT_EQ(count("dsketch_query_reduce_us"), reduce0 + 1);
  EXPECT_EQ(count("dsketch_wire_encode_us"), encode0 + 2);

  // The METRICS exposition carries the same series.
  auto text = client_->Metrics();
  ASSERT_TRUE(text.has_value());
  for (const char* series :
       {"dsketch_wire_frame_decode_us_count", "dsketch_query_reduce_us_count",
        "dsketch_wire_encode_us_count"}) {
    EXPECT_NE(text->find(series), std::string::npos) << series;
  }
}

TEST_F(ServiceSessionTest, TraceOpcodeServesRecentAndFlightScopes) {
  // The fixture boots with sampling off; configure the global collector
  // directly (what a server built with trace_sample > 0 does) and
  // restore it on exit so other tests see the default-off policy.
  obs::TraceCollector::Global().Configure({/*sample_every=*/1,
                                           /*slow_request_us=*/0});
  Boot(&attrs_);
  ASSERT_TRUE(client_->IngestBatch(std::vector<uint64_t>{1, 2, 3, 2, 1}));
  ASSERT_TRUE(client_->QuerySum().has_value());

  auto recent = client_->Trace();
  ASSERT_TRUE(recent.has_value());
  EXPECT_NE(recent->find("traceEvents"), std::string::npos);
  auto flight = client_->Trace(TraceScope::kFlight);
  ASSERT_TRUE(flight.has_value());
  // The sampled QUERY_SUM span tree is visible through the opcode, and
  // the always-on recorder carries the request roots.
  EXPECT_NE(recent->find("\"request\""), std::string::npos);
  EXPECT_NE(recent->find("query_reduce"), std::string::npos);
  EXPECT_NE(flight->find("request"), std::string::npos);
  auto stats = client_->Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->traces_captured_total, 0u);
  obs::TraceCollector::Global().Configure(obs::TraceConfig{});
}

TEST(ServiceProtocolNegotiationTest, PriorVersionFramesAreRefused) {
  SketchServer server(SmallServerOptions());
  // A v4 peer (the pre-TRACE protocol) must get a firm kUnsupported,
  // not a misparse: the version byte gates before the opcode switch.
  std::string old_frame;
  wire::VarintWriter w(old_frame);
  w.PutByte(kProtocolVersion - 1);
  w.PutByte(static_cast<uint8_t>(Opcode::kStats));
  w.PutVarint(1);
  EXPECT_EQ(ResponseStatusOf(server.HandleRequest(old_frame)),
            Status::kUnsupported);
  EXPECT_EQ(server.Stats().errors_unsupported, 1u);
}

// STATS breaks errors down by status, and a read replica reports the
// same counter set as a read-write server — same fields, same causes.
TEST(ServiceErrorCounterTest, WriterAndReplicaReportPerStatusErrors) {
  auto poke = [](SketchServer& server) {
    // One malformed (empty request), one unknown opcode, one
    // unsupported (future protocol version).
    server.HandleRequest("");
    std::string unknown;
    wire::VarintWriter wu(unknown);
    wu.PutByte(kProtocolVersion);
    wu.PutByte(42);
    wu.PutVarint(1);
    server.HandleRequest(unknown);
    std::string future;
    wire::VarintWriter wf(future);
    wf.PutByte(kProtocolVersion + 1);
    wf.PutByte(static_cast<uint8_t>(Opcode::kStats));
    wf.PutVarint(2);
    server.HandleRequest(future);
  };

  SketchServer writer(SmallServerOptions());
  poke(writer);
  StatsResponse ws = writer.Stats();
  EXPECT_EQ(ws.errors, 3u);
  EXPECT_EQ(ws.errors_malformed, 1u);
  EXPECT_EQ(ws.errors_unknown_opcode, 1u);
  EXPECT_EQ(ws.errors_unsupported, 1u);
  EXPECT_EQ(ws.errors_too_large, 0u);
  EXPECT_EQ(ws.errors_bad_state, 0u);

  UnbiasedSpaceSaving sketch(64, 3);
  for (uint64_t i = 0; i < 500; ++i) sketch.Update(i % 20);
  std::optional<FrozenSketchSource> image =
      FrozenSketchSource::FromBlob(SerializeFrozen(sketch));
  ASSERT_TRUE(image.has_value());
  SketchServer replica(SmallServerOptions(), &*image, nullptr);
  poke(replica);
  // Plus one replica-specific refusal: ingest is kUnsupported there.
  IngestBatchRequest ingest;
  ingest.items = {7, 8};
  EXPECT_EQ(ResponseStatusOf(
                replica.HandleRequest(EncodeIngestBatchRequest(9, ingest))),
            Status::kUnsupported);
  StatsResponse rs = replica.Stats();
  EXPECT_EQ(rs.errors, 4u);
  EXPECT_EQ(rs.errors_malformed, ws.errors_malformed);
  EXPECT_EQ(rs.errors_unknown_opcode, ws.errors_unknown_opcode);
  EXPECT_EQ(rs.errors_unsupported, ws.errors_unsupported + 1);
  EXPECT_EQ(rs.errors_too_large, 0u);
  EXPECT_EQ(rs.errors_bad_state, 0u);

  // The replica answers METRICS like any writer (observability does not
  // degrade on read-only nodes).
  MetricsRequest mreq;
  std::string mrsp = replica.HandleRequest(EncodeMetricsRequest(10, mreq));
  EXPECT_EQ(ResponseStatusOf(mrsp), Status::kOk);
}

TEST(ServiceSlowRequestTest, HookFiresWithTheRequestShape) {
  SketchServerOptions options = SmallServerOptions();
  options.slow_request_us = 1;  // every real request is slower than 1µs
  std::vector<SlowRequestInfo> calls;
  options.slow_request_hook = [&](const SlowRequestInfo& info) {
    calls.push_back(info);
  };
  SketchServer server(options);

  IngestBatchRequest req;
  for (uint64_t i = 0; i < 50000; ++i) req.items.push_back(i % 1000);
  const std::string request = EncodeIngestBatchRequest(21, req);
  const std::string response = server.HandleRequest(request);
  EXPECT_EQ(ResponseStatusOf(response), Status::kOk);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].opcode, Opcode::kIngestBatch);
  EXPECT_EQ(calls[0].request_id, 21u);
  EXPECT_GE(calls[0].latency_us, 1u);
  EXPECT_EQ(calls[0].request_bytes, request.size());
  EXPECT_EQ(calls[0].response_bytes, response.size());

  // Threshold 0 disables the hook entirely.
  SketchServerOptions quiet = SmallServerOptions();
  std::vector<SlowRequestInfo> quiet_calls;
  quiet.slow_request_hook = [&](const SlowRequestInfo& info) {
    quiet_calls.push_back(info);
  };
  SketchServer quiet_server(quiet);
  quiet_server.HandleRequest(request);
  EXPECT_TRUE(quiet_calls.empty());
}

// ---- shard threads start with their fleet ----

// Entries of /proc/self/task; 0 where the directory does not exist.
size_t ThreadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t n = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

// ThreadCount() once it holds still: a thread an earlier test joined can
// linger in /proc/self/task for a moment after the join returns.
size_t SettledThreadCount() {
  size_t n = ThreadCount();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const size_t again = ThreadCount();
    if (again == n) return n;
    n = again;
  }
  return n;
}

TEST(ServiceThreadTest, FleetsStartTheirShardThreadsOnFirstUse) {
  const size_t base = SettledThreadCount();
  if (base == 0) GTEST_SKIP() << "no /proc/self/task";
  const SketchServerOptions options = SmallServerOptions();
  const size_t shards = options.shard.num_shards;

  SketchServer writer(options);
  EXPECT_EQ(ThreadCount(), base) << "a fresh writer";
  writer.HandleRequest(EncodeStatsRequest(1));
  EXPECT_EQ(ThreadCount(), base) << "a writer that only answered STATS";
  IngestBatchRequest rows;
  rows.items = {1, 2, 3};
  ASSERT_EQ(ResponseStatusOf(
                writer.HandleRequest(EncodeIngestBatchRequest(2, rows))),
            Status::kOk);
  EXPECT_EQ(ThreadCount(), base + shards) << "after the first counts ingest";
  writer.HandleRequest(EncodeIngestBatchRequest(3, rows));
  EXPECT_EQ(ThreadCount(), base + shards) << "after the second";
  rows.windowed = true;
  ASSERT_EQ(ResponseStatusOf(
                writer.HandleRequest(EncodeIngestBatchRequest(4, rows))),
            Status::kOk);
  EXPECT_EQ(ThreadCount(), base + 2 * shards)
      << "after the first windowed ingest";

  UnbiasedSpaceSaving sketch(64, 3);
  for (uint64_t i = 0; i < 500; ++i) sketch.Update(i % 20);
  std::optional<FrozenSketchSource> image =
      FrozenSketchSource::FromBlob(SerializeFrozen(sketch));
  ASSERT_TRUE(image.has_value());
  SketchServer replica(options, &*image, nullptr);
  replica.HandleRequest(EncodeIngestBatchRequest(5, rows));
  QuerySumRequest sum;
  replica.HandleRequest(EncodeQuerySumRequest(6, sum));
  replica.HandleRequest(EncodeStatsRequest(7));
  EXPECT_EQ(ThreadCount(), base + 2 * shards) << "a replica starts none";
}

// User plus system CPU time this process has used, in microseconds.
int64_t ProcessCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& t) {
    return static_cast<int64_t>(t.tv_sec) * 1000000 + t.tv_usec;
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

TEST(ServiceThreadTest, IdleWriterUsesNoCpu) {
  // Shard workers sleep while their inboxes are empty: a writer whose
  // three fleets have applied every row leaves the CPU alone.
  SketchServer writer(SmallServerOptions());
  IngestBatchRequest rows;
  rows.items = {1, 2, 3, 4, 5};
  uint64_t id = 0;
  ASSERT_EQ(ResponseStatusOf(
                writer.HandleRequest(EncodeIngestBatchRequest(++id, rows))),
            Status::kOk);
  rows.weights = {0.5, 1.0, 1.5, 2.0, 2.5};
  ASSERT_EQ(ResponseStatusOf(
                writer.HandleRequest(EncodeIngestBatchRequest(++id, rows))),
            Status::kOk);
  rows.weights.clear();
  rows.windowed = true;
  ASSERT_EQ(ResponseStatusOf(
                writer.HandleRequest(EncodeIngestBatchRequest(++id, rows))),
            Status::kOk);
  // A query flushes its scope's fleet.
  for (QueryScope scope :
       {QueryScope::kCounts, QueryScope::kWeighted, QueryScope::kWindow}) {
    QuerySumRequest sum;
    sum.scope = scope;
    ASSERT_EQ(ResponseStatusOf(
                  writer.HandleRequest(EncodeQuerySumRequest(++id, sum))),
              Status::kOk);
  }

  const int64_t before = ProcessCpuUs();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(ProcessCpuUs() - before, 20000)
      << "microseconds of CPU used over 200 ms idle";
}

// ---- golden service transcript ----
//
// One fixed request script runs through HandleRequest on a writer and on
// a replica, and every response is pinned by its 64-bit FNV-1a digest:
// any change to how the server routes a request to a sketch (or to what
// it answers when it cannot) shows up as a digest mismatch. STATS bodies
// carry two process-global trace counters that depend on what else ran in
// this process; they are zeroed before hashing. METRICS and TRACE answer
// with timings, so only their status is pinned.

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

class Transcript {
 public:
  explicit Transcript(SketchServer* server) : server_(server) {}

  // Sends one request, records the digest of its response under `label`,
  // and returns the response.
  std::string Send(const std::string& label, const std::string& request) {
    std::string response = server_->HandleRequest(request);
    wire::VarintReader reader(response);
    ResponseHeader header;
    StatsResponse stats;
    std::string hashed = response;
    if (DecodeResponseHeader(reader, &header) &&
        header.status == Status::kOk) {
      if (header.opcode == Opcode::kStats &&
          DecodeStatsResponse(reader, &stats)) {
        stats.traces_captured_total = 0;
        stats.flight_recorder_dropped_total = 0;
        hashed = EncodeStatsResponse(header.request_id, stats);
      } else if (header.opcode == Opcode::kMetrics ||
                 header.opcode == Opcode::kTrace) {
        hashed = EncodeErrorResponse(header.opcode, header.request_id,
                                     header.status);
      }
    }
    entries_.push_back({label, Fnv1a64(hashed)});
    return response;
  }

  uint64_t NextId() { return ++id_; }

  // Compares against `pinned`; on mismatch, prints the table this run
  // produced in the form the pin uses.
  void Expect(const std::vector<uint64_t>& pinned) const {
    bool same = pinned.size() == entries_.size();
    for (size_t i = 0; same && i < pinned.size(); ++i) {
      same = pinned[i] == entries_[i].digest;
    }
    if (same) return;
    std::string table;
    char line[128];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const bool differs =
          i >= pinned.size() || pinned[i] != entries_[i].digest;
      std::snprintf(line, sizeof line, "      0x%016llxull,  // %s%s\n",
                    static_cast<unsigned long long>(entries_[i].digest),
                    entries_[i].label.c_str(), differs ? "  <-- differs" : "");
      table += line;
    }
    ADD_FAILURE() << "transcript digests differ (" << entries_.size()
                  << " responses, " << pinned.size() << " pinned):\n"
                  << table;
  }

 private:
  struct Entry {
    std::string label;
    uint64_t digest;
  };
  SketchServer* server_;
  uint64_t id_ = 0;
  std::vector<Entry> entries_;
};

SketchServerOptions TranscriptOptions() {
  SketchServerOptions options;
  options.shard.num_shards = 2;
  options.shard.shard_capacity = 256;
  options.shard.queue_capacity = 4096;
  options.shard.seed = 41;
  options.merged_capacity = 384;
  options.window.window_epochs = 8;
  options.window.epoch_capacity = 128;
  options.seed = 43;
  return options;
}

// 3000 items over three dimensions (10, 7 and 3 values); ids past the
// table reach the sketches too and match only unfiltered queries.
AttributeTable TranscriptAttributes() {
  AttributeTable attrs(3);
  for (uint32_t i = 0; i < 3000; ++i) {
    attrs.AddItem({i % 10, (i / 10) % 7, i % 3});
  }
  return attrs;
}

// Skewed item ids: small ids dominate, a few land past the table.
std::vector<uint64_t> TranscriptRows(Rng& rng, size_t n) {
  std::vector<uint64_t> rows(n);
  for (uint64_t& row : rows) row = rng.NextBounded(1 + rng.NextBounded(3200));
  return rows;
}

std::string IngestRequest(Transcript& t, std::vector<uint64_t> items,
                          std::vector<double> weights = {},
                          bool windowed = false, uint64_t epoch = 0) {
  IngestBatchRequest req;
  req.items = std::move(items);
  req.weights = std::move(weights);
  req.windowed = windowed;
  req.epoch = epoch;
  return EncodeIngestBatchRequest(t.NextId(), req);
}

std::string SumRequest(Transcript& t, QueryScope scope, uint64_t last_k = 0,
                       PredicateSpec where = PredicateSpec()) {
  QuerySumRequest req;
  req.scope = scope;
  req.last_k = last_k;
  req.where = std::move(where);
  return EncodeQuerySumRequest(t.NextId(), req);
}

std::string TopKRequest(Transcript& t, QueryScope scope, uint64_t k,
                        uint64_t last_k = 0) {
  QueryTopKRequest req;
  req.scope = scope;
  req.k = k;
  req.last_k = last_k;
  return EncodeQueryTopKRequest(t.NextId(), req);
}

std::string GroupByRequest(Transcript& t, uint64_t dim1, bool has_dim2 = false,
                           uint64_t dim2 = 0,
                           PredicateSpec where = PredicateSpec()) {
  QueryGroupByRequest req;
  req.dim1 = dim1;
  req.has_dim2 = has_dim2;
  req.dim2 = dim2;
  req.where = std::move(where);
  return EncodeQueryGroupByRequest(t.NextId(), req);
}

std::string SnapshotRequestFor(Transcript& t, QueryScope scope, bool frozen) {
  SnapshotRequest req;
  req.scope = scope;
  req.frozen = frozen;
  return EncodeSnapshotRequest(t.NextId(), req);
}

std::string RestoreRequestFor(Transcript& t, QueryScope scope,
                              std::string blob) {
  RestoreRequest req;
  req.scope = scope;
  req.blob = std::move(blob);
  return EncodeRestoreRequest(t.NextId(), req);
}

// The blob of a SNAPSHOT response (empty when it was refused).
std::string SnapshotBlob(const std::string& response) {
  wire::VarintReader reader(response);
  ResponseHeader header;
  SnapshotResponse rsp;
  if (!DecodeResponseHeader(reader, &header) ||
      header.status != Status::kOk || !DecodeSnapshotResponse(reader, &rsp)) {
    return "";
  }
  return rsp.blob;
}

constexpr QueryScope kAllScopes[] = {QueryScope::kCounts,
                                     QueryScope::kWeighted,
                                     QueryScope::kWindow};

const char* ScopeLabel(QueryScope scope) {
  static const char* const kLabels[] = {"counts", "weighted", "window"};
  return kLabels[static_cast<size_t>(scope)];
}

// Every query and snapshot opcode on every scope, for a server that may
// or may not hold rows there.
void QueryEveryScope(Transcript& t, const std::string& tag) {
  for (QueryScope scope : kAllScopes) {
    const std::string s = tag + " " + ScopeLabel(scope);
    t.Send(s + " SUM", SumRequest(t, scope));
    t.Send(s + " SUM dim0=3", SumRequest(t, scope, 0,
                                         PredicateSpec().WhereEq(0, 3)));
    t.Send(s + " TOPK 10", TopKRequest(t, scope, 10));
    t.Send(s + " SNAPSHOT", SnapshotRequestFor(t, scope, false));
    t.Send(s + " SNAPSHOT frozen", SnapshotRequestFor(t, scope, true));
  }
  t.Send(tag + " GROUPBY dim1", GroupByRequest(t, 1));
  t.Send(tag + " STATS", EncodeStatsRequest(t.NextId()));
}

TEST(ServiceGoldenTranscriptTest, WriterAnswersArePinned) {
  const AttributeTable attrs = TranscriptAttributes();
  SketchServer server(TranscriptOptions(), &attrs);
  Transcript t(&server);
  Rng rng(2024);

  // Nothing ingested yet: every scope answers from its empty state.
  QueryEveryScope(t, "fresh");

  // Counts rows, three batches.
  for (int b = 0; b < 3; ++b) {
    t.Send("INGEST counts", IngestRequest(t, TranscriptRows(rng, 4000)));
  }
  // Weighted rows, two batches.
  for (int b = 0; b < 2; ++b) {
    std::vector<uint64_t> items = TranscriptRows(rng, 1500);
    std::vector<double> weights;
    for (uint64_t item : items) weights.push_back(0.25 + (item % 17) * 1.5);
    t.Send("INGEST weighted", IngestRequest(t, items, weights));
  }
  // Windowed rows over twelve epochs (the ring holds eight), then an
  // empty batch that only advances the clock, then one more epoch.
  for (uint64_t epoch = 0; epoch < 12; ++epoch) {
    t.Send("INGEST window",
           IngestRequest(t, TranscriptRows(rng, 900), {}, true, epoch));
  }
  t.Send("INGEST window empty advance", IngestRequest(t, {}, {}, true, 14));
  t.Send("INGEST window", IngestRequest(t, TranscriptRows(rng, 700), {}, true,
                                        14));

  const PredicateSpec filters[] = {
      PredicateSpec(), PredicateSpec().WhereEq(0, 3),
      PredicateSpec().WhereIn(1, {0, 2, 5}),
      PredicateSpec().WhereEq(2, 1).WhereIn(0, {1, 4, 7, 9})};
  for (QueryScope scope : kAllScopes) {
    for (size_t f = 0; f < std::size(filters); ++f) {
      for (uint64_t last_k : {0, 1, 8}) {
        if (scope != QueryScope::kWindow && last_k != 0) continue;
        t.Send(std::string("SUM ") + ScopeLabel(scope) + " filter " +
                   std::to_string(f) + " last_k " + std::to_string(last_k),
               SumRequest(t, scope, last_k, filters[f]));
      }
    }
    for (uint64_t k : {1, 10, 100}) {
      t.Send(std::string("TOPK ") + ScopeLabel(scope) + " k " +
                 std::to_string(k),
             TopKRequest(t, scope, k));
    }
  }
  t.Send("TOPK window k 10 last_k 1",
         TopKRequest(t, QueryScope::kWindow, 10, 1));
  t.Send("TOPK window k 10 last_k 8",
         TopKRequest(t, QueryScope::kWindow, 10, 8));
  t.Send("GROUPBY dim0", GroupByRequest(t, 0));
  t.Send("GROUPBY dim2 where dim1 in {1,3}",
         GroupByRequest(t, 2, false, 0, PredicateSpec().WhereIn(1, {1, 3})));
  t.Send("GROUPBY dim0 x dim1", GroupByRequest(t, 0, true, 1));
  t.Send("GROUPBY dim1 x dim2 where dim0=4",
         GroupByRequest(t, 1, true, 2, PredicateSpec().WhereEq(0, 4)));
  t.Send("GROUPBY bad dim", GroupByRequest(t, 3));
  t.Send("SUM bad predicate dim",
         SumRequest(t, QueryScope::kCounts, 0, PredicateSpec().WhereEq(5, 1)));
  t.Send("STATS after ingest", EncodeStatsRequest(t.NextId()));

  // Snapshots of every scope, including the frozen refusal outside the
  // counts scope.
  const std::string counts_blob = SnapshotBlob(t.Send(
      "SNAPSHOT counts", SnapshotRequestFor(t, QueryScope::kCounts, false)));
  const std::string frozen_blob = SnapshotBlob(t.Send(
      "SNAPSHOT counts frozen",
      SnapshotRequestFor(t, QueryScope::kCounts, true)));
  const std::string weighted_blob = SnapshotBlob(
      t.Send("SNAPSHOT weighted",
             SnapshotRequestFor(t, QueryScope::kWeighted, false)));
  t.Send("SNAPSHOT weighted frozen",
         SnapshotRequestFor(t, QueryScope::kWeighted, true));
  const std::string window_blob = SnapshotBlob(t.Send(
      "SNAPSHOT window", SnapshotRequestFor(t, QueryScope::kWindow, false)));
  t.Send("SNAPSHOT window frozen",
         SnapshotRequestFor(t, QueryScope::kWindow, true));
  ASSERT_FALSE(counts_blob.empty());
  ASSERT_FALSE(frozen_blob.empty());
  ASSERT_FALSE(weighted_blob.empty());
  ASSERT_FALSE(window_blob.empty());
  t.Send("STATS after snapshots", EncodeStatsRequest(t.NextId()));

  // Restores: every scope's own blob, the frozen image into counts, and
  // bytes that decode as no sketch at all.
  t.Send("RESTORE counts",
         RestoreRequestFor(t, QueryScope::kCounts, counts_blob));
  t.Send("RESTORE counts frozen",
         RestoreRequestFor(t, QueryScope::kCounts, frozen_blob));
  t.Send("RESTORE weighted",
         RestoreRequestFor(t, QueryScope::kWeighted, weighted_blob));
  t.Send("RESTORE window",
         RestoreRequestFor(t, QueryScope::kWindow, window_blob));
  for (QueryScope scope : kAllScopes) {
    t.Send(std::string("RESTORE bad ") + ScopeLabel(scope),
           RestoreRequestFor(t, scope, "not a sketch"));
  }
  t.Send("STATS after restores", EncodeStatsRequest(t.NextId()));
  QueryEveryScope(t, "restored");
  t.Send("SUM window last_k 1 restored",
         SumRequest(t, QueryScope::kWindow, 1));

  MetricsRequest metrics;
  t.Send("METRICS", EncodeMetricsRequest(t.NextId(), metrics));
  TraceRequest trace;
  t.Send("TRACE", EncodeTraceRequest(t.NextId(), trace));
  t.Send("SHUTDOWN", EncodeShutdownRequest(t.NextId()));

  t.Expect({
      0x805aa48fc372d06dull,  // fresh counts SUM
      0x082a1f970806bc2cull,  // fresh counts SUM dim0=3
      0x4efc5d8352088ddaull,  // fresh counts TOPK 10
      0x4be3c72514d29a4bull,  // fresh counts SNAPSHOT
      0xa55f355787c93c3full,  // fresh counts SNAPSHOT frozen
      0xbd3ec3a0b8cbf680ull,  // fresh weighted SUM
      0x8ff99a9e4c9aa7ebull,  // fresh weighted SUM dim0=3
      0xaf28eb384a220998ull,  // fresh weighted TOPK 10
      0xd7d236268e82fc04ull,  // fresh weighted SNAPSHOT
      0x586d8256072c79c4ull,  // fresh weighted SNAPSHOT frozen
      0x70bbae813a4af8efull,  // fresh window SUM
      0xf88b29887edee4aeull,  // fresh window SUM dim0=3
      0x8f2321514ccbe8c6ull,  // fresh window TOPK 10
      0x08ea68b72dbb9e4bull,  // fresh window SNAPSHOT
      0x585c8a56071e1429ull,  // fresh window SNAPSHOT frozen
      0xafd4402659f5b254ull,  // fresh GROUPBY dim1
      0xab3527bec60ce47cull,  // fresh STATS
      0x53e41b8fef9ecffcull,  // INGEST counts
      0xb4c305879a22030dull,  // INGEST counts
      0x149d9fc1f599fed6ull,  // INGEST counts
      0x74e6ddb99f9de9afull,  // INGEST weighted
      0xd5229fb149967778ull,  // INGEST weighted
      0x379945a8f57403c5ull,  // INGEST window
      0x94291fe34e200b06ull,  // INGEST window
      0xf79479dafacd81a7ull,  // INGEST window
      0x5799c3d2a497b418ull,  // INGEST window
      0xb79f1dca4e6201b9ull,  // INGEST window
      0x175ea804a9c31a9aull,  // INGEST window
      0x73fdf1fc50aa240bull,  // INGEST window
      0xd4034bf3fa7471acull,  // INGEST window
      0x3408a5eba43ebf4dull,  // INGEST window
      0x93540130c68581aeull,  // INGEST window
      0xf3595b28704fcf4full,  // INGEST window
      0x535ea5201a1a01c0ull,  // INGEST window
      0x407f7b0d971c6b50ull,  // INGEST window empty advance
      0x13ab77521fb8e344ull,  // INGEST window
      0x92d15ef8f4bb1bb6ull,  // SUM counts filter 0 last_k 0
      0x7a4abd030736b7d9ull,  // SUM counts filter 1 last_k 0
      0x37782db310b65f7eull,  // SUM counts filter 2 last_k 0
      0x405fc13af2cbb8d0ull,  // SUM counts filter 3 last_k 0
      0x1299127bd03de9baull,  // TOPK counts k 1
      0xe870970041ebbb5cull,  // TOPK counts k 10
      0x898fd0be1f621e14ull,  // TOPK counts k 100
      0xbf9b211cc48b64eaull,  // SUM weighted filter 0 last_k 0
      0xa740d45a6945e9f1ull,  // SUM weighted filter 1 last_k 0
      0xeeb73586f3e7c341ull,  // SUM weighted filter 2 last_k 0
      0x4e46cc6d47388fbeull,  // SUM weighted filter 3 last_k 0
      0x1be734384f14779aull,  // TOPK weighted k 1
      0xe4b03595551ea03dull,  // TOPK weighted k 10
      0x6deaa2fe53acb10aull,  // TOPK weighted k 100
      0xb51b6a0996baab20ull,  // SUM window filter 0 last_k 0
      0x1d946979fb8b9df4ull,  // SUM window filter 0 last_k 1
      0x852a8792dfde34f2ull,  // SUM window filter 0 last_k 8
      0x47437296892e8134ull,  // SUM window filter 1 last_k 0
      0xb8150c945d239ee1ull,  // SUM window filter 1 last_k 1
      0xd261f88392a249f6ull,  // SUM window filter 1 last_k 8
      0xa6bce64b4c3cc7f7ull,  // SUM window filter 2 last_k 0
      0xc3bb7d89e06ba7f7ull,  // SUM window filter 2 last_k 1
      0x4fe63642b8212779ull,  // SUM window filter 2 last_k 8
      0x272551001defbc19ull,  // SUM window filter 3 last_k 0
      0x66fbeb9083627131ull,  // SUM window filter 3 last_k 1
      0x29ac1511f52cc243ull,  // SUM window filter 3 last_k 8
      0x34ca8d6dd8665f33ull,  // TOPK window k 1
      0xb43014a5da33c1aaull,  // TOPK window k 10
      0xf31bb520effa452aull,  // TOPK window k 100
      0xb3fdd954ade27732ull,  // TOPK window k 10 last_k 1
      0xe764be62f4d5b487ull,  // TOPK window k 10 last_k 8
      0x4fba0dfcd2fd970aull,  // GROUPBY dim0
      0x361e2fcd147afc5bull,  // GROUPBY dim2 where dim1 in {1,3}
      0xa390102215ac4904ull,  // GROUPBY dim0 x dim1
      0x8b8c1ebb94d45e7eull,  // GROUPBY dim1 x dim2 where dim0=4
      0x4ef1575601917df7ull,  // GROUPBY bad dim
      0x3f8b2555f9642774ull,  // SUM bad predicate dim
      0x5bfe9b5c09b02b77ull,  // STATS after ingest
      0x9eefd2c725218aa4ull,  // SNAPSHOT counts
      0x4b1e0a011079654dull,  // SNAPSHOT counts frozen
      0xfeb0c9949c6400b2ull,  // SNAPSHOT weighted
      0x59396a5607d9b760ull,  // SNAPSHOT weighted frozen
      0x4fe9a6a077e94db3ull,  // SNAPSHOT window
      0x5932a25607d3f7daull,  // SNAPSHOT window frozen
      0x592199e5fea5bbdaull,  // STATS after snapshots
      0x9ee883352591afb3ull,  // RESTORE counts
      0xa791ff352a79b011ull,  // RESTORE counts frozen
      0xd2e165354301a7b5ull,  // RESTORE weighted
      0xdb8ade3547e9a2faull,  // RESTORE window
      0x602fe5560b50218bull,  // RESTORE bad counts
      0x603349560b53014eull,  // RESTORE bad weighted
      0x604449560b617481ull,  // RESTORE bad window
      0xce78944a0b5fe94aull,  // STATS after restores
      0xb04c93464b6b6693ull,  // restored counts SUM
      0x827f525257ed8b1full,  // restored counts SUM dim0=3
      0xa6641d05871e63f4ull,  // restored counts TOPK 10
      0x28016ca27040fcd7ull,  // restored counts SNAPSHOT
      0x244f712d9150702cull,  // restored counts SNAPSHOT frozen
      0x1fafa9124b5c136eull,  // restored weighted SUM
      0x532ee7da6a27d484ull,  // restored weighted SUM dim0=3
      0x383ac1074bf096eeull,  // restored weighted TOPK 10
      0xeb5bdc2a3a727889ull,  // restored weighted SNAPSHOT
      0x59cb92560855e975ull,  // restored weighted SNAPSHOT frozen
      0x9ac38fe72cff7081ull,  // restored window SUM
      0x68effbcf8d33c5abull,  // restored window SUM dim0=3
      0x6cc2430ad1aeaf0dull,  // restored window TOPK 10
      0x44e12c0983904159ull,  // restored window SNAPSHOT
      0x59ba925608477642ull,  // restored window SNAPSHOT frozen
      0xb27d2bbe62054db4ull,  // restored GROUPBY dim1
      0x701bbc3e5d1c56a2ull,  // restored STATS
      0xabc3f6917c4935ebull,  // SUM window last_k 1 restored
      0x79e1955619c89d1full,  // METRICS
      0x84ffc65620c6c46bull,  // TRACE
      0x72f1e6561657f946ull,  // SHUTDOWN
  });
}

TEST(ServiceGoldenTranscriptTest, ReplicaAnswersArePinned) {
  const AttributeTable attrs = TranscriptAttributes();
  Rng rng(7);
  UnbiasedSpaceSaving sketch(300, 9);
  for (uint64_t row : TranscriptRows(rng, 20000)) sketch.Update(row);
  const std::string image_bytes = SerializeFrozen(sketch);
  std::optional<FrozenSketchSource> image =
      FrozenSketchSource::FromBlob(image_bytes);
  ASSERT_TRUE(image.has_value());
  SketchServer server(TranscriptOptions(), &*image, &attrs);
  Transcript t(&server);

  // Every opcode on every scope: the image answers counts-scope reads,
  // everything else is refused.
  t.Send("INGEST counts", IngestRequest(t, {1, 2, 3}));
  t.Send("INGEST weighted", IngestRequest(t, {1, 2}, {0.5, 1.5}));
  t.Send("INGEST window", IngestRequest(t, {1, 2}, {}, true, 3));
  for (QueryScope scope : kAllScopes) {
    const std::string s = ScopeLabel(scope);
    t.Send("SUM " + s, SumRequest(t, scope));
    t.Send("SUM " + s + " dim1 in {2,6}",
           SumRequest(t, scope, 0, PredicateSpec().WhereIn(1, {2, 6})));
    t.Send("SUM " + s + " last_k 1", SumRequest(t, scope, 1));
    t.Send("TOPK " + s + " k 1", TopKRequest(t, scope, 1));
    t.Send("TOPK " + s + " k 100", TopKRequest(t, scope, 100));
    t.Send("SNAPSHOT " + s, SnapshotRequestFor(t, scope, false));
    t.Send("SNAPSHOT " + s + " frozen", SnapshotRequestFor(t, scope, true));
    t.Send("RESTORE " + s, RestoreRequestFor(t, scope, image_bytes));
  }
  t.Send("GROUPBY dim0", GroupByRequest(t, 0));
  t.Send("GROUPBY dim0 x dim2 where dim1=3",
         GroupByRequest(t, 0, true, 2, PredicateSpec().WhereEq(1, 3)));
  t.Send("SUM bad predicate dim",
         SumRequest(t, QueryScope::kCounts, 0, PredicateSpec().WhereEq(5, 1)));
  t.Send("STATS", EncodeStatsRequest(t.NextId()));
  MetricsRequest metrics;
  t.Send("METRICS", EncodeMetricsRequest(t.NextId(), metrics));
  TraceRequest trace;
  trace.scope = TraceScope::kFlight;
  t.Send("TRACE flight", EncodeTraceRequest(t.NextId(), trace));
  t.Send("SHUTDOWN", EncodeShutdownRequest(t.NextId()));

  t.Expect({
      0x35e62e55f3a67eefull,  // INGEST counts
      0x35e2c655f3a39860ull,  // INGEST weighted
      0x35df6655f3a0bf69ull,  // INGEST window
      0x8cbfcbc1ff424233ull,  // SUM counts
      0x934711d872482ef0ull,  // SUM counts dim1 in {2,6}
      0x91f47ba94000ea65ull,  // SUM counts last_k 1
      0xb56f59a29186db28ull,  // TOPK counts k 1
      0x507ac7f9f28545baull,  // TOPK counts k 100
      0xaf3c095e373a6613ull,  // SNAPSHOT counts
      0xbd1e08df7ff5243cull,  // SNAPSHOT counts frozen
      0x6150c3560c458e28ull,  // RESTORE counts
      0x3ea0a755f89ced67ull,  // SUM weighted
      0x3ea40f55f89fd3f6ull,  // SUM weighted dim1 in {2,6}
      0x3e99df55f8972de1ull,  // SUM weighted last_k 1
      0x47325855fd70b5f3ull,  // TOPK weighted k 1
      0x47062855fd4b2978ull,  // TOPK weighted k 100
      0x5855ba560718470bull,  // SNAPSHOT weighted
      0x585252560715607cull,  // SNAPSHOT weighted frozen
      0x60ff33560c004250ull,  // RESTORE weighted
      0x3ebbd755f8b406afull,  // SUM window
      0x3ebf3f55f8b6ed3eull,  // SUM window dim1 in {2,6}
      0x3eb50f55f8ae4729ull,  // SUM window last_k 1
      0x47172855fd599cabull,  // TOPK window k 1
      0x46eaf855fd341030ull,  // TOPK window k 100
      0x583a8a5607012dc3ull,  // SNAPSHOT window
      0x5837225606fe4734ull,  // SNAPSHOT window frozen
      0x611a63560c175b98ull,  // RESTORE window
      0x49f61103e6fab063ull,  // GROUPBY dim0
      0xfe6e739b3b44de85ull,  // GROUPBY dim0 x dim2 where dim1=3
      0x3ed03d55f8c55d0bull,  // SUM bad predicate dim
      0x22445fd10e3b6d83ull,  // STATS
      0x7ac8ad561a8cf403ull,  // METRICS
      0x844f0e562030a017ull,  // TRACE flight
      0x7225fe5615aabbaaull,  // SHUTDOWN
  });
}

}  // namespace
}  // namespace dsketch
