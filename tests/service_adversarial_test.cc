// Adversarial hardening for the service protocol, mirroring the wire
// decoder sweep (wire_adversarial_test): truncation at every byte,
// an exhaustive single-bit-flip sweep, hostile length prefixes and
// oversized batch/top-k/predicate claims, and unknown opcodes. The
// contract under attack: SketchServer::HandleRequest answers *every*
// payload with a well-formed response — error status, never a crash,
// over-read, or forced allocation — and the frame layer rejects hostile
// prefixes before allocating. CI runs this suite under asan+ubsan on
// every push.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "core/unbiased_space_saving.h"
#include "query/attribute_table.h"
#include "query/predicate.h"
#include "service/frame.h"
#include "service/limits.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/transport.h"
#include "window/window_wire.h"
#include "wire/varint.h"

namespace dsketch {
namespace {

SketchServerOptions SmallOptions() {
  SketchServerOptions options;
  options.shard.num_shards = 2;
  options.shard.shard_capacity = 128;
  options.shard.seed = 3;
  options.merged_capacity = 256;
  options.seed = 3;
  return options;
}

// One well-formed request per opcode (weighted ingest included), so the
// sweeps cover every handler's decode path.
std::vector<std::pair<std::string, std::string>> AllRequests() {
  std::vector<std::pair<std::string, std::string>> out;
  IngestBatchRequest unit;
  unit.items = {5, 6, 7, 8, 5, 6, 1000000};
  out.emplace_back("ingest", EncodeIngestBatchRequest(1, unit));
  IngestBatchRequest weighted = unit;
  weighted.weights = {1.0, 2.0, 0.5, 4.0, 1.5, 2.5, 3.5};
  out.emplace_back("ingest_weighted", EncodeIngestBatchRequest(2, weighted));
  IngestBatchRequest windowed = unit;
  windowed.windowed = true;
  windowed.epoch = 2;
  out.emplace_back("ingest_windowed", EncodeIngestBatchRequest(10, windowed));
  QuerySumRequest sum;
  sum.where.WhereEq(0, 2).WhereIn(1, {1, 2, 3});
  out.emplace_back("query_sum", EncodeQuerySumRequest(3, sum));
  QuerySumRequest win_sum;
  win_sum.scope = QueryScope::kWindow;
  win_sum.last_k = 2;
  out.emplace_back("query_sum_window", EncodeQuerySumRequest(11, win_sum));
  QueryTopKRequest topk;
  topk.k = 10;
  out.emplace_back("query_topk", EncodeQueryTopKRequest(4, topk));
  QueryTopKRequest win_topk;
  win_topk.scope = QueryScope::kWindow;
  win_topk.k = 5;
  win_topk.last_k = 1;
  out.emplace_back("query_topk_window", EncodeQueryTopKRequest(12, win_topk));
  QueryGroupByRequest group;
  group.dim1 = 0;
  group.has_dim2 = true;
  group.dim2 = 1;
  out.emplace_back("query_groupby", EncodeQueryGroupByRequest(5, group));
  SnapshotRequest snap;
  out.emplace_back("snapshot", EncodeSnapshotRequest(6, snap));
  RestoreRequest restore;
  UnbiasedSpaceSaving sketch(16, 9);
  for (int i = 0; i < 100; ++i) sketch.Update(static_cast<uint64_t>(i % 20));
  restore.blob = Serialize(sketch);
  out.emplace_back("restore", EncodeRestoreRequest(7, restore));
  SnapshotRequest win_snap;
  win_snap.scope = QueryScope::kWindow;
  out.emplace_back("snapshot_window", EncodeSnapshotRequest(13, win_snap));
  RestoreRequest win_restore;
  win_restore.scope = QueryScope::kWindow;
  WindowedSketchOptions wopt;
  wopt.window_epochs = 2;
  wopt.epoch_capacity = 16;
  wopt.merged_capacity = 32;
  wopt.seed = 14;
  WindowedSpaceSaving ring(wopt);
  for (int i = 0; i < 60; ++i) ring.Update(static_cast<uint64_t>(i % 12));
  win_restore.blob = SerializeWindowed(ring);
  out.emplace_back("restore_window", EncodeRestoreRequest(14, win_restore));
  out.emplace_back("stats", EncodeStatsRequest(8));
  MetricsRequest metrics;
  metrics.scope = MetricsScope::kShard;
  out.emplace_back("metrics", EncodeMetricsRequest(15, metrics));
  TraceRequest trace;
  trace.scope = TraceScope::kFlight;
  out.emplace_back("trace", EncodeTraceRequest(16, trace));
  out.emplace_back("shutdown", EncodeShutdownRequest(9));
  return out;
}

// Decodes the response header; every response must carry one.
Status ResponseStatus(std::string_view response) {
  wire::VarintReader reader(response);
  ResponseHeader header;
  EXPECT_TRUE(DecodeResponseHeader(reader, &header))
      << "response without a decodable header";
  return header.status;
}

TEST(ServiceAdversarialTest, IntactRequestsSucceed) {
  AttributeTable attrs(2);
  for (uint64_t i = 0; i < 30; ++i) {
    attrs.AddItem({static_cast<uint32_t>(i % 5),
                   static_cast<uint32_t>(i % 3)});
  }
  SketchServer server(SmallOptions(), &attrs);
  for (const auto& [label, request] : AllRequests()) {
    EXPECT_EQ(ResponseStatus(server.HandleRequest(request)), Status::kOk)
        << label;
  }
}

TEST(ServiceAdversarialTest, EveryTruncationGetsAnErrorResponse) {
  // Counts and lengths travel ahead of their payloads, so no strict
  // prefix of a valid request can itself be valid.
  AttributeTable attrs(2);
  for (uint64_t i = 0; i < 30; ++i) {
    attrs.AddItem({static_cast<uint32_t>(i % 5),
                   static_cast<uint32_t>(i % 3)});
  }
  SketchServer server(SmallOptions(), &attrs);
  for (const auto& [label, request] : AllRequests()) {
    for (size_t cut = 0; cut < request.size(); ++cut) {
      std::string response =
          server.HandleRequest(std::string_view(request.data(), cut));
      EXPECT_NE(ResponseStatus(response), Status::kOk)
          << label << " cut at " << cut;
    }
  }
}

TEST(ServiceAdversarialTest, SingleBitFlipsNeverCrashTheServer) {
  // A flipped bit may still decode (an item label, a request id); the
  // contract is a well-formed response every time, no aborts — asan and
  // ubsan make any violation fatal in CI.
  SketchServer server(SmallOptions());
  size_t still_ok = 0;
  for (const auto& [label, request] : AllRequests()) {
    std::string tampered = request;
    for (size_t i = 0; i < tampered.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        tampered[i] = static_cast<char>(tampered[i] ^ (1 << bit));
        std::string response = server.HandleRequest(tampered);
        wire::VarintReader reader(response);
        ResponseHeader header;
        ASSERT_TRUE(DecodeResponseHeader(reader, &header))
            << label << " byte " << i << " bit " << bit;
        if (header.status == Status::kOk) ++still_ok;
        tampered[i] = request[i];  // restore
      }
    }
  }
  SUCCEED() << still_ok << " tampered requests still executed cleanly";
}

TEST(ServiceAdversarialTest, HostileMetricsRequestsGetCleanErrors) {
  SketchServer server(SmallOptions());
  auto request_with = [](const std::function<void(wire::VarintWriter&)>& body) {
    std::string out;
    wire::VarintWriter w(out);
    w.PutByte(kProtocolVersion);
    w.PutByte(static_cast<uint8_t>(Opcode::kMetrics));
    w.PutVarint(31);
    body(w);
    return out;
  };

  // Missing scope byte.
  EXPECT_EQ(ResponseStatus(server.HandleRequest(
                request_with([](wire::VarintWriter&) {}))),
            Status::kMalformed);
  // Every scope byte past the enum, including the extremes.
  for (uint8_t scope : {uint8_t{6}, uint8_t{7}, uint8_t{100}, uint8_t{255}}) {
    EXPECT_EQ(ResponseStatus(server.HandleRequest(
                  request_with([&](wire::VarintWriter& w) {
                    w.PutByte(scope);
                  }))),
              Status::kMalformed)
        << "scope " << static_cast<int>(scope);
  }
  // Trailing garbage after a valid scope: decoders consume exactly.
  EXPECT_EQ(ResponseStatus(server.HandleRequest(
                request_with([](wire::VarintWriter& w) {
                  w.PutByte(0);
                  w.PutVarint(123456);
                }))),
            Status::kMalformed);
  // An oversized-claim response body cannot be provoked (the dump is
  // bounded), but the valid request must still answer kOk afterwards —
  // the hostile traffic above left the server serving.
  EXPECT_EQ(ResponseStatus(server.HandleRequest(
                request_with([](wire::VarintWriter& w) { w.PutByte(0); }))),
            Status::kOk);

  // Response-side: a METRICS response claiming more text than it
  // carries (or more than the cap) is rejected by the client decoder.
  MetricsResponse rsp;
  rsp.text = "dsketch_service_requests_total 1\n";
  std::string wire_rsp = EncodeMetricsResponse(31, rsp);
  {
    wire::VarintReader reader(wire_rsp);
    ResponseHeader header;
    ASSERT_TRUE(DecodeResponseHeader(reader, &header));
    MetricsResponse decoded;
    EXPECT_TRUE(DecodeMetricsResponse(reader, &decoded));
    EXPECT_EQ(decoded.text, rsp.text);
  }
  std::string truncated = wire_rsp.substr(0, wire_rsp.size() - 5);
  {
    wire::VarintReader reader(truncated);
    ResponseHeader header;
    ASSERT_TRUE(DecodeResponseHeader(reader, &header));
    MetricsResponse decoded;
    EXPECT_FALSE(DecodeMetricsResponse(reader, &decoded));
  }
  std::string padded = wire_rsp + "extra";
  {
    wire::VarintReader reader(padded);
    ResponseHeader header;
    ASSERT_TRUE(DecodeResponseHeader(reader, &header));
    MetricsResponse decoded;
    EXPECT_FALSE(DecodeMetricsResponse(reader, &decoded));
  }
}

TEST(ServiceAdversarialTest, HostileTraceRequestsGetCleanErrors) {
  SketchServer server(SmallOptions());
  auto request_with = [](const std::function<void(wire::VarintWriter&)>& body) {
    std::string out;
    wire::VarintWriter w(out);
    w.PutByte(kProtocolVersion);
    w.PutByte(static_cast<uint8_t>(Opcode::kTrace));
    w.PutVarint(47);
    body(w);
    return out;
  };

  // Missing scope byte.
  EXPECT_EQ(ResponseStatus(server.HandleRequest(
                request_with([](wire::VarintWriter&) {}))),
            Status::kMalformed);
  // Every scope byte past the enum, including the extremes.
  for (uint8_t scope : {uint8_t{2}, uint8_t{3}, uint8_t{100}, uint8_t{255}}) {
    EXPECT_EQ(ResponseStatus(server.HandleRequest(
                  request_with([&](wire::VarintWriter& w) {
                    w.PutByte(scope);
                  }))),
              Status::kMalformed)
        << "scope " << static_cast<int>(scope);
  }
  // Trailing garbage after a valid scope: decoders consume exactly.
  EXPECT_EQ(ResponseStatus(server.HandleRequest(
                request_with([](wire::VarintWriter& w) {
                  w.PutByte(0);
                  w.PutVarint(999);
                }))),
            Status::kMalformed);
  // The hostile traffic above left the server serving: both valid
  // scopes still answer kOk.
  for (uint8_t scope : {uint8_t{0}, uint8_t{1}}) {
    EXPECT_EQ(ResponseStatus(server.HandleRequest(
                  request_with([&](wire::VarintWriter& w) {
                    w.PutByte(scope);
                  }))),
              Status::kOk)
        << "scope " << static_cast<int>(scope);
  }

  // Response-side: a TRACE response claiming more text than it carries
  // (or truncated mid-claim) is rejected by the client decoder.
  TraceResponse rsp;
  rsp.text = "trace 0000000000000001 (0 spans)\n";
  std::string wire_rsp = EncodeTraceResponse(47, rsp);
  {
    wire::VarintReader reader(wire_rsp);
    ResponseHeader header;
    ASSERT_TRUE(DecodeResponseHeader(reader, &header));
    TraceResponse decoded;
    EXPECT_TRUE(DecodeTraceResponse(reader, &decoded));
    EXPECT_EQ(decoded.text, rsp.text);
  }
  std::string truncated = wire_rsp.substr(0, wire_rsp.size() - 5);
  {
    wire::VarintReader reader(truncated);
    ResponseHeader header;
    ASSERT_TRUE(DecodeResponseHeader(reader, &header));
    TraceResponse decoded;
    EXPECT_FALSE(DecodeTraceResponse(reader, &decoded));
  }
  std::string padded = wire_rsp + "extra";
  {
    wire::VarintReader reader(padded);
    ResponseHeader header;
    ASSERT_TRUE(DecodeResponseHeader(reader, &header));
    TraceResponse decoded;
    EXPECT_FALSE(DecodeTraceResponse(reader, &decoded));
  }
}

TEST(ServiceAdversarialTest, UnknownOpcodesAndVersionsAreRejected) {
  SketchServer server(SmallOptions());
  // 11 is the first unassigned opcode (10 became TRACE in protocol v5).
  for (uint8_t opcode : {uint8_t{0}, uint8_t{11}, uint8_t{42}, uint8_t{255}}) {
    std::string request;
    wire::VarintWriter w(request);
    w.PutByte(kProtocolVersion);
    w.PutByte(opcode);
    w.PutVarint(77);
    EXPECT_EQ(ResponseStatus(server.HandleRequest(request)),
              Status::kUnknownOpcode)
        << "opcode " << static_cast<int>(opcode);
  }
  // Future protocol version: refused, not misparsed.
  std::string future;
  wire::VarintWriter w(future);
  w.PutByte(kProtocolVersion + 1);
  w.PutByte(static_cast<uint8_t>(Opcode::kStats));
  w.PutVarint(1);
  EXPECT_EQ(ResponseStatus(server.HandleRequest(future)),
            Status::kUnsupported);
  // Empty and garbage payloads (garbage may parse as a header carrying a
  // foreign version byte, which is an equally firm rejection).
  EXPECT_EQ(ResponseStatus(server.HandleRequest("")), Status::kMalformed);
  EXPECT_NE(ResponseStatus(server.HandleRequest("garbage bytes here")),
            Status::kOk);
}

std::string RequestWithBody(Opcode opcode,
                            const std::function<void(wire::VarintWriter&)>& body) {
  std::string out;
  wire::VarintWriter w(out);
  w.PutByte(kProtocolVersion);
  w.PutByte(static_cast<uint8_t>(opcode));
  w.PutVarint(1);
  body(w);
  return out;
}

TEST(ServiceAdversarialTest, HostileBatchAndQueryClaimsAreRejected) {
  SketchServer server(SmallOptions());

  // A maximal claimed row count with almost no bytes behind it: the
  // byte-budget bound must reject before any reserve.
  std::string row_bomb = RequestWithBody(
      Opcode::kIngestBatch, [](wire::VarintWriter& w) {
        w.PutByte(0);
        w.PutVarint(kMaxBatchRows);  // claimed rows
        w.PutVarint(1);              // one lonely byte
      });
  EXPECT_NE(ResponseStatus(server.HandleRequest(row_bomb)), Status::kOk);

  // Row count over the cap (with weights, 9 bytes/row claimed).
  std::string over_cap = RequestWithBody(
      Opcode::kIngestBatch, [](wire::VarintWriter& w) {
        w.PutByte(1);
        w.PutVarint(kMaxBatchRows + 1);
      });
  EXPECT_NE(ResponseStatus(server.HandleRequest(over_cap)), Status::kOk);

  // Non-positive and NaN weights (the sketch would CHECK-fail on them).
  for (double bad : {0.0, -1.0, std::nan("")}) {
    std::string bad_weight = RequestWithBody(
        Opcode::kIngestBatch, [bad](wire::VarintWriter& w) {
          w.PutByte(1);
          w.PutVarint(1);
          w.PutVarint(7);
          w.PutDouble(bad);
        });
    EXPECT_NE(ResponseStatus(server.HandleRequest(bad_weight)), Status::kOk);
  }

  // k = 0 and k beyond the cap.
  for (uint64_t k : {uint64_t{0}, kMaxTopK + 1}) {
    std::string bad_k = RequestWithBody(
        Opcode::kQueryTopK, [k](wire::VarintWriter& w) {
          w.PutByte(0);
          w.PutVarint(k);
        });
    EXPECT_NE(ResponseStatus(server.HandleRequest(bad_k)), Status::kOk);
  }

  // Predicate with a hostile value-count claim.
  std::string pred_bomb = RequestWithBody(
      Opcode::kQuerySum, [](wire::VarintWriter& w) {
        w.PutByte(0);
        w.PutVarint(1);              // one condition
        w.PutVarint(0);              // dim 0
        w.PutVarint(uint64_t{1} << 40);  // claimed values
      });
  EXPECT_NE(ResponseStatus(server.HandleRequest(pred_bomb)), Status::kOk);

  // Restore whose blob length does not match the bytes present, and
  // whose bytes are not a sketch.
  std::string bad_len = RequestWithBody(
      Opcode::kRestore, [](wire::VarintWriter& w) {
        w.PutByte(0);
        w.PutVarint(1000);  // claims 1000 bytes
        w.PutVarint(7);     // provides 1
      });
  EXPECT_NE(ResponseStatus(server.HandleRequest(bad_len)), Status::kOk);
  std::string not_a_sketch = RequestWithBody(
      Opcode::kRestore, [](wire::VarintWriter& w) {
        w.PutByte(0);
        w.PutVarint(4);
        w.PutByte('j');
        w.PutByte('u');
        w.PutByte('n');
        w.PutByte('k');
      });
  EXPECT_EQ(ResponseStatus(server.HandleRequest(not_a_sketch)),
            Status::kBadState);

  // Cross-kind restore: a counts blob fed to the weighted scope decodes
  // as the wrong kind and must be refused, state untouched.
  UnbiasedSpaceSaving sketch(16, 5);
  for (int i = 0; i < 50; ++i) sketch.Update(static_cast<uint64_t>(i % 10));
  std::string counts_blob = Serialize(sketch);
  std::string cross_kind = RequestWithBody(
      Opcode::kRestore, [&counts_blob](wire::VarintWriter& w) {
        w.PutByte(static_cast<uint8_t>(QueryScope::kWeighted));
        w.PutVarint(counts_blob.size());
        for (char c : counts_blob) w.PutByte(static_cast<uint8_t>(c));
      });
  EXPECT_EQ(ResponseStatus(server.HandleRequest(cross_kind)),
            Status::kBadState);

  // Out-of-range scope byte.
  std::string bad_scope = RequestWithBody(
      Opcode::kSnapshot, [](wire::VarintWriter& w) { w.PutByte(7); });
  EXPECT_NE(ResponseStatus(server.HandleRequest(bad_scope)), Status::kOk);

  // Weighted + windowed ingest flags together (3): mutually exclusive.
  std::string both_flags = RequestWithBody(
      Opcode::kIngestBatch, [](wire::VarintWriter& w) {
        w.PutByte(3);
        w.PutVarint(0);  // epoch (were windowed accepted)
        w.PutVarint(1);
        w.PutVarint(7);
        w.PutDouble(1.0);
      });
  EXPECT_NE(ResponseStatus(server.HandleRequest(both_flags)), Status::kOk);

  // Window last_k beyond the ring cap.
  std::string bad_last_k = RequestWithBody(
      Opcode::kQuerySum, [](wire::VarintWriter& w) {
        w.PutByte(static_cast<uint8_t>(QueryScope::kWindow));
        w.PutVarint(kMaxWindowEpochs + 1);
        w.PutVarint(0);  // empty predicate
      });
  EXPECT_NE(ResponseStatus(server.HandleRequest(bad_last_k)), Status::kOk);

  // Epoch stamps beyond the clock cap: rejected at decode, before the
  // ring ever sees them.
  for (uint64_t epoch : {kMaxEpochStamp + 1, ~uint64_t{0}}) {
    std::string epoch_bomb = RequestWithBody(
        Opcode::kIngestBatch, [epoch](wire::VarintWriter& w) {
          w.PutByte(2);  // windowed
          w.PutVarint(epoch);
          w.PutVarint(1);
          w.PutVarint(7);
        });
    EXPECT_NE(ResponseStatus(server.HandleRequest(epoch_bomb)), Status::kOk);
  }
  // The largest accepted stamp is handled promptly — the ring
  // fast-forwards past skipped epochs instead of closing each one (a
  // single frame must not be able to spin the server for 2^62 rounds).
  IngestBatchRequest far_future;
  far_future.windowed = true;
  far_future.epoch = kMaxEpochStamp;
  far_future.items = {7};
  EXPECT_EQ(ResponseStatus(
                server.HandleRequest(EncodeIngestBatchRequest(42, far_future))),
            Status::kOk);

  // Cross-kind restore into the window scope: a flat counts blob is not
  // a ring and must be refused, state untouched.
  UnbiasedSpaceSaving flat(16, 6);
  for (int i = 0; i < 40; ++i) flat.Update(static_cast<uint64_t>(i % 8));
  std::string flat_blob = Serialize(flat);
  std::string flat_into_window = RequestWithBody(
      Opcode::kRestore, [&flat_blob](wire::VarintWriter& w) {
        w.PutByte(static_cast<uint8_t>(QueryScope::kWindow));
        w.PutVarint(flat_blob.size());
        for (char c : flat_blob) w.PutByte(static_cast<uint8_t>(c));
      });
  EXPECT_EQ(ResponseStatus(server.HandleRequest(flat_into_window)),
            Status::kBadState);

  // And the reverse: a ring blob fed to the counts scope.
  WindowedSketchOptions wopt;
  wopt.window_epochs = 2;
  wopt.epoch_capacity = 16;
  wopt.merged_capacity = 32;
  wopt.seed = 8;
  WindowedSpaceSaving ring(wopt);
  for (int i = 0; i < 30; ++i) ring.Update(static_cast<uint64_t>(i % 6));
  std::string ring_blob = SerializeWindowed(ring);
  std::string ring_into_counts = RequestWithBody(
      Opcode::kRestore, [&ring_blob](wire::VarintWriter& w) {
        w.PutByte(static_cast<uint8_t>(QueryScope::kCounts));
        w.PutVarint(ring_blob.size());
        for (char c : ring_blob) w.PutByte(static_cast<uint8_t>(c));
      });
  EXPECT_EQ(ResponseStatus(server.HandleRequest(ring_into_counts)),
            Status::kBadState);

  // After all that hostility, the server still works.
  IngestBatchRequest ok;
  ok.items = {1, 2, 3};
  EXPECT_EQ(ResponseStatus(
                server.HandleRequest(EncodeIngestBatchRequest(50, ok))),
            Status::kOk);
}

TEST(ServiceAdversarialTest, GroupByDimensionBoundsAreChecked) {
  AttributeTable attrs(2);
  for (uint64_t i = 0; i < 10; ++i) {
    attrs.AddItem({static_cast<uint32_t>(i), static_cast<uint32_t>(i % 2)});
  }
  SketchServer server(SmallOptions(), &attrs);
  QueryGroupByRequest group;
  group.dim1 = 99;  // out of range for a 2-dim table
  EXPECT_EQ(ResponseStatus(
                server.HandleRequest(EncodeQueryGroupByRequest(1, group))),
            Status::kMalformed);
  QuerySumRequest sum;
  sum.where.WhereEq(5, 1);  // predicate dim out of range
  EXPECT_EQ(ResponseStatus(server.HandleRequest(EncodeQuerySumRequest(2, sum))),
            Status::kMalformed);
}

// The largest predicate the protocol admits — 64 conditions of 2^16
// values each, spread up to UINT32_MAX — is answered (kOk), and exactly:
// the same numbers Predicate::Matches and a double sum over the served
// view's Entries() give.
TEST(ServiceAdversarialTest, HostilePredicatesGetTheReferenceAnswer) {
  AttributeTable attrs(2);
  for (uint32_t i = 0; i < 2000; ++i) attrs.AddItem({i % 16, i % 5});
  SketchServer server(SmallOptions(), &attrs);
  IngestBatchRequest batch;
  for (uint64_t i = 0; i < 20000; ++i) batch.items.push_back((i * i) % 2100);
  ASSERT_EQ(ResponseStatus(
                server.HandleRequest(EncodeIngestBatchRequest(1, batch))),
            Status::kOk);

  PredicateSpec spec;
  Predicate where;
  for (size_t c = 0; c < kMaxPredicateConditions; ++c) {
    // i * 65537 runs from 0 to exactly 0xFFFFFFFF; the first two values
    // are ones the table holds, so the conjunction still matches items.
    std::vector<uint32_t> values(kMaxPredicateValues);
    for (uint32_t i = 0; i < values.size(); ++i) values[i] = i * 65537u;
    const uint64_t dim = c % 2;
    values[0] = 1;
    values[1] = dim == 0 ? 3 : 2;
    spec.WhereIn(dim, values);
    where.WhereIn(dim, values);
  }
  const UnbiasedSpaceSaving& view = server.source().View();
  const std::vector<SketchEntry> entries = view.Entries();
  auto reference = [&](const std::function<bool(uint64_t)>& in) {
    QuerySumResponse out;
    for (const SketchEntry& e : entries) {
      if (in(e.item)) {
        out.estimate += static_cast<double>(e.count);
        ++out.items_in_sample;
      }
    }
    const double nmin = static_cast<double>(view.MinCount());
    out.variance = nmin * nmin *
                   static_cast<double>(std::max<uint64_t>(1, out.items_in_sample));
    return out;
  };
  auto member = [&](uint64_t item) { return where.Matches(attrs, item); };

  QuerySumRequest sum;
  sum.where = spec;
  const std::string sum_response =
      server.HandleRequest(EncodeQuerySumRequest(2, sum));
  wire::VarintReader sum_reader(sum_response);
  ResponseHeader header;
  ASSERT_TRUE(DecodeResponseHeader(sum_reader, &header));
  ASSERT_EQ(header.status, Status::kOk);
  QuerySumResponse got;
  ASSERT_TRUE(DecodeQuerySumResponse(sum_reader, &got));
  const QuerySumResponse want = reference(member);
  EXPECT_GT(want.items_in_sample, 0u);
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.variance, want.variance);
  EXPECT_EQ(got.items_in_sample, want.items_in_sample);

  for (bool two_way : {false, true}) {
    QueryGroupByRequest group;
    group.dim1 = 0;
    group.has_dim2 = two_way;
    group.dim2 = 1;
    group.where = spec;
    const std::string response =
        server.HandleRequest(EncodeQueryGroupByRequest(3, group));
    wire::VarintReader reader(response);
    ASSERT_TRUE(DecodeResponseHeader(reader, &header));
    ASSERT_EQ(header.status, Status::kOk) << two_way;
    QueryGroupByResponse groups;
    ASSERT_TRUE(DecodeQueryGroupByResponse(reader, &groups));
    auto key_of = [&](uint64_t item) {
      return two_way ? (uint64_t{attrs.Get(item, 0)} << 32) | attrs.Get(item, 1)
                     : uint64_t{attrs.Get(item, 0)};
    };
    std::vector<uint64_t> keys;
    for (const SketchEntry& e : entries) {
      if (member(e.item)) keys.push_back(key_of(e.item));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    ASSERT_EQ(groups.groups.size(), keys.size()) << two_way;
    for (size_t g = 0; g < keys.size(); ++g) {
      const GroupRow& row = groups.groups[g];  // sorted by key
      ASSERT_EQ(row.key, keys[g]);
      const QuerySumResponse expect = reference([&](uint64_t item) {
        return member(item) && key_of(item) == row.key;
      });
      EXPECT_EQ(row.estimate, expect.estimate) << row.key;
      EXPECT_EQ(row.variance, expect.variance) << row.key;
      EXPECT_EQ(row.items_in_sample, expect.items_in_sample) << row.key;
    }
  }
}

TEST(ServiceAdversarialTest, HostileFrameLengthPrefixesDropTheConnection) {
  // Claimed length over the cap: rejected before any allocation.
  {
    InMemoryDuplex duplex;
    const uint32_t huge = 0xFFFFFFFF;
    std::string raw(reinterpret_cast<const char*>(&huge), sizeof(huge));
    ASSERT_TRUE(duplex.client().Write(raw));
    duplex.client().CloseWrite();
    std::string payload;
    EXPECT_EQ(ReadFrame(duplex.server(), &payload), FrameStatus::kMalformed);
  }
  // Truncated length prefix.
  {
    InMemoryDuplex duplex;
    ASSERT_TRUE(duplex.client().Write(std::string_view("\x05\x00", 2)));
    duplex.client().CloseWrite();
    std::string payload;
    EXPECT_EQ(ReadFrame(duplex.server(), &payload), FrameStatus::kMalformed);
  }
  // EOF mid-body: length promises more bytes than ever arrive.
  {
    InMemoryDuplex duplex;
    const uint32_t len = 100;
    std::string raw(reinterpret_cast<const char*>(&len), sizeof(len));
    raw += "only a few bytes";
    ASSERT_TRUE(duplex.client().Write(raw));
    duplex.client().CloseWrite();
    std::string payload;
    EXPECT_EQ(ReadFrame(duplex.server(), &payload), FrameStatus::kMalformed);
  }
  // A serving thread fed a hostile prefix exits instead of wedging.
  {
    InMemoryDuplex duplex;
    SketchServer server(SmallOptions());
    std::thread serve([&] { server.Serve(duplex.server()); });
    const uint32_t huge = 0xFFFFFFFF;
    std::string raw(reinterpret_cast<const char*>(&huge), sizeof(huge));
    ASSERT_TRUE(duplex.client().Write(raw));
    duplex.client().CloseWrite();
    serve.join();  // must terminate
  }
}

}  // namespace
}  // namespace dsketch
