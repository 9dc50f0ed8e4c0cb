#include "service/server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/frame.h"
#include "util/logging.h"
#include "wire/codec.h"
#include "wire/frozen.h"

namespace dsketch {

namespace {

// A restore blob's STATS format: kind 8 (the frozen image) or a stream.
SnapshotFormat BlobSnapshotFormat(std::string_view blob) {
  wire::VarintReader reader(blob);
  std::optional<wire::Envelope> env = wire::ReadEnvelope(reader);
  return env.has_value() && env->kind == wire::kKindFrozenUnbiased
             ? SnapshotFormat::kFrozen
             : SnapshotFormat::kStream;
}

// Per-opcode series are indexed by opcode value (0 = requests whose
// header never decoded or whose opcode is unknown).
constexpr size_t kOpcodeSlots = static_cast<size_t>(Opcode::kTrace) + 1;

constexpr const char* kOpcodeNames[kOpcodeSlots] = {
    "unknown",  "ingest_batch", "query_sum", "query_topk", "query_groupby",
    "snapshot", "restore",      "stats",     "shutdown",   "metrics",
    "trace"};

constexpr const char* kStatusNames[kNumStatuses] = {
    "ok", "malformed", "unknown_opcode", "unsupported", "too_large",
    "bad_state"};

size_t OpcodeIndex(Opcode opcode) {
  const uint8_t v = static_cast<uint8_t>(opcode);
  return v < kOpcodeSlots ? v : 0;
}

// The service's telemetry handles, registered once (by the first server
// built); the serve path only touches relaxed atomics.
struct ServiceMetrics {
  std::array<obs::Counter*, kOpcodeSlots> requests;
  std::array<obs::Histogram*, kOpcodeSlots> latency_us;
  std::array<obs::Counter*, kNumStatuses> errors;
  obs::Counter* slow_requests;
  obs::Counter* frame_bytes_in;
  obs::Counter* frame_bytes_out;
  obs::Counter* timer_ticks;
  obs::Counter* timer_catchup_ticks;
};

const ServiceMetrics& Metrics() {
  static const ServiceMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    auto* m = new ServiceMetrics;
    for (size_t i = 0; i < kOpcodeSlots; ++i) {
      const std::string label =
          std::string("{opcode=\"") + kOpcodeNames[i] + "\"}";
      m->requests[i] =
          &registry.GetCounter("dsketch_service_requests_total" + label);
      m->latency_us[i] =
          &registry.GetHistogram("dsketch_service_request_latency_us" + label);
    }
    for (size_t i = 0; i < kNumStatuses; ++i) {
      m->errors[i] = &registry.GetCounter(
          std::string("dsketch_service_request_errors_total{status=\"") +
          kStatusNames[i] + "\"}");
    }
    m->slow_requests =
        &registry.GetCounter("dsketch_service_slow_requests_total");
    m->frame_bytes_in =
        &registry.GetCounter("dsketch_service_frame_bytes_total{dir=\"in\"}");
    m->frame_bytes_out =
        &registry.GetCounter("dsketch_service_frame_bytes_total{dir=\"out\"}");
    m->timer_ticks = &registry.GetCounter("dsketch_window_timer_ticks_total");
    m->timer_catchup_ticks =
        &registry.GetCounter("dsketch_window_timer_catchup_ticks_total");
    // Info gauge: constant 1; the build this process runs rides the labels.
    registry
        .GetGauge(std::string("dsketch_util_build_info{metrics=\"") +
                  obs::MetricsBuildMode() + "\"}")
        .Set(1);
    return m;
  }();
  return *metrics;
}

// Encodes a response inside the wire_encode span.
template <typename Response>
Status EncodeBody(std::string (*encode)(uint64_t, const Response&),
                  uint64_t request_id, const Response& rsp, std::string* out) {
  obs::ScopedSpan span("wire_encode", obs::TraceLayer::kWire);
  span.Annotate("bytes", (*out = encode(request_id, rsp)).size());
  return Status::kOk;
}

}  // namespace

SketchServer::SketchServer(const SketchServerOptions& options,
                           const AttributeTable* attrs)
    : options_(options), attrs_(attrs), boot_(kWriterScopes) {
  Configure();
}

SketchServer::SketchServer(const SketchServerOptions& options,
                           FrozenSketchSource* replica,
                           const AttributeTable* attrs)
    : options_(options), attrs_(attrs) {
  DSKETCH_CHECK(replica != nullptr);
  Configure();
  scopes_[static_cast<size_t>(QueryScope::kCounts)] =
      MakeFrozenScope(replica, attrs);
}

void SketchServer::Configure() {
  // Fleets boot on first use, so every option is vetted here, mirroring
  // the ShardedSketch / WindowedSketch checks (stamped rows are the
  // windowed clock) and the wire encoders' capacity cap.
  DSKETCH_CHECK(options_.shard.num_shards > 0);
  DSKETCH_CHECK(options_.shard.shard_capacity > 0);
  DSKETCH_CHECK(options_.shard.queue_capacity > 0);
  DSKETCH_CHECK(options_.shard.batch_size > 0);
  DSKETCH_CHECK(options_.window.rows_per_epoch == 0);
  DSKETCH_CHECK(options_.window.window_epochs > 0 &&
                options_.window.window_epochs <= kMaxWindowEpochs);
  DSKETCH_CHECK(ValidHalfLife(options_.window.half_life_epochs));
  DSKETCH_CHECK(options_.window.epoch_capacity > 0 &&
                options_.window.epoch_capacity <= kMaxSerializableCapacity);
  DSKETCH_CHECK(options_.merged_capacity > 0 &&
                options_.merged_capacity <= kMaxSerializableCapacity);
  DSKETCH_CHECK(options_.epoch_interval_ms >= 0);  // 0 = no timer
  DSKETCH_CHECK(options_.slow_request_us >= 0);
  DSKETCH_CHECK(options_.trace_sample >= 0);
  // Sampling rides the process-wide collector (one serving pipeline per
  // process); a server with both knobs at zero leaves it alone, others
  // install their policy until the destructor restores the saved one.
  if (options_.trace_sample > 0 || options_.slow_request_us > 0) {
    saved_trace_config_ = obs::TraceCollector::Global().config();
    configured_tracing_ = true;
    obs::TraceCollector::Global().Configure(
        {static_cast<uint32_t>(std::min<int64_t>(options_.trace_sample,
                                                 0xFFFFFFFF)),
         options_.slow_request_us});
  }
  Metrics();
}

SketchServer::~SketchServer() {
  if (configured_tracing_) {
    obs::TraceCollector::Global().Configure(saved_trace_config_);
  }
}

Scope& SketchServer::Lookup(QueryScope scope) {
  const size_t i = static_cast<size_t>(scope);
  if (scopes_[i] == nullptr && boot_[i] != nullptr) {
    scopes_[i] = boot_[i](options_, attrs_);
  }
  return scopes_[i] != nullptr ? *scopes_[i] : unsupported_;
}

ShardedSketchSource& SketchServer::source() {
  ShardedSketchSource* source = Lookup(QueryScope::kCounts).source();
  DSKETCH_CHECK(source != nullptr);  // a replica has no writable source
  return *source;
}

Status SketchServer::BuildPredicate(const PredicateSpec& spec,
                                    Predicate* out) const {
  if (spec.conditions.empty()) return Status::kOk;
  if (attrs_ == nullptr) return Status::kUnsupported;
  for (const PredicateSpec::Condition& c : spec.conditions) {
    if (c.dim >= attrs_->num_dims() || c.values.empty()) {
      return Status::kMalformed;
    }
    out->WhereIn(static_cast<size_t>(c.dim), c.values);
  }
  return Status::kOk;
}

std::string SketchServer::HandleRequest(std::string_view request) {
  // Root span, declared first so every child span closes before it; the
  // serve loop's response_write joins via the pending-trace hand-off.
  obs::ScopedTrace trace("request");
  wire::VarintReader reader(request);
  RequestHeader header;
  std::string response;
  Status status = Status::kMalformed;
  if (DecodeRequestHeader(reader, &header)) {
    trace.SetTraceId(obs::TraceIdFromRequestId(header.request_id));
    trace.Annotate("opcode", static_cast<uint64_t>(header.opcode));
    trace.Annotate("request_bytes", request.size());
    status = header.version != kProtocolVersion
                 ? Status::kUnsupported
                 : Dispatch(header.opcode, header.request_id, reader,
                            &response);
  } else {
    header = RequestHeader{kProtocolVersion, static_cast<Opcode>(0), 0};
  }
  if (status != Status::kOk) {
    // The one error path: STATS and obs counters, header-only response.
    ++errors_[static_cast<size_t>(status)];
    Metrics().errors[static_cast<size_t>(status)]->Inc();
    response = EncodeErrorResponse(header.opcode, header.request_id, status);
  }
  // The root span's duration is the request latency: the histogram, the
  // slow-request check and tail sampling all read this one number.
  const uint64_t latency_us = trace.Close();
  const size_t op_index = OpcodeIndex(header.opcode);
  Metrics().requests[op_index]->Inc();
  Metrics().latency_us[op_index]->Record(latency_us);
  if (options_.slow_request_us > 0 &&
      latency_us >= static_cast<uint64_t>(options_.slow_request_us)) {
    Metrics().slow_requests->Inc();
    const SlowRequestInfo info{header.opcode, header.request_id, latency_us,
                               request.size(), response.size()};
    if (options_.slow_request_hook) {
      options_.slow_request_hook(info);
    } else {
      std::fprintf(stderr,
                   "dsketchd: slow_request opcode=%s request_id=%" PRIu64
                   " latency_us=%" PRIu64 " request_bytes=%zu"
                   " response_bytes=%zu\n",
                   kOpcodeNames[op_index], info.request_id, info.latency_us,
                   info.request_bytes, info.response_bytes);
    }
  }
  return response;
}

Status SketchServer::Dispatch(Opcode opcode, uint64_t id,
                              wire::VarintReader& in, std::string* out) {
  switch (opcode) {
    case Opcode::kIngestBatch:
      return HandleIngest(id, in, out);
    case Opcode::kQuerySum:
      return HandleSum(id, in, out);
    case Opcode::kQueryTopK:
      return HandleTopK(id, in, out);
    case Opcode::kQueryGroupBy:
      return HandleGroupBy(id, in, out);
    case Opcode::kSnapshot:
      return HandleSnapshot(id, in, out);
    case Opcode::kRestore:
      return HandleRestore(id, in, out);
    // The opcodes that name no scope, served alike by writers and
    // replicas: a read-only node's telemetry and traces are exactly what
    // an operator watching a replica fleet needs.
    case Opcode::kStats:
      if (!in.AtEnd()) return Status::kMalformed;
      return EncodeBody(EncodeStatsResponse, id, Stats(), out);
    case Opcode::kShutdown:
      if (!in.AtEnd()) return Status::kMalformed;
      shutdown_ = true;
      *out = EncodeShutdownResponse(id);
      return Status::kOk;
    case Opcode::kMetrics: {
      MetricsRequest req;
      if (!DecodeMetricsRequest(in, &req)) return Status::kMalformed;
      const MetricsResponse rsp{
          obs::DumpMetricsText(MetricsScopePrefix(req.scope))};
      if (rsp.text.size() > kMaxMetricsTextBytes) return Status::kTooLarge;
      return EncodeBody(EncodeMetricsResponse, id, rsp, out);
    }
    case Opcode::kTrace: {
      TraceRequest req;
      if (!DecodeTraceRequest(in, &req)) return Status::kMalformed;
      const TraceResponse rsp{
          req.scope == TraceScope::kRecent
              ? obs::TraceToChromeJson(obs::TraceCollector::Global().Recent())
              : obs::SpansToText(obs::FlightRecorder::Global().Dump())};
      if (rsp.text.size() > kMaxTraceTextBytes) return Status::kTooLarge;
      return EncodeBody(EncodeTraceResponse, id, rsp, out);
    }
  }
  return Status::kUnknownOpcode;
}

Status SketchServer::HandleIngest(uint64_t id, wire::VarintReader& in,
                                  std::string* out) {
  IngestBatchRequest req;
  {
    obs::ScopedSpan span("frame_decode", obs::TraceLayer::kWire);
    const bool decoded = DecodeIngestBatchRequest(in, &req);
    span.Annotate("rows", req.items.size());
    if (!decoded) return Status::kMalformed;
  }
  // The row flags name the scope (weighted and windowed are exclusive).
  const Status status = Lookup(req.windowed          ? QueryScope::kWindow
                               : req.weights.empty() ? QueryScope::kCounts
                                                     : QueryScope::kWeighted)
                            .Ingest(req);
  if (status != Status::kOk) return status;
  ++counters_.batches;
  return EncodeBody(EncodeIngestBatchResponse, id,
                    IngestBatchResponse{req.items.size()}, out);
}

Status SketchServer::HandleSum(uint64_t id, wire::VarintReader& in,
                               std::string* out) {
  QuerySumRequest req;
  {
    obs::ScopedSpan span("frame_decode", obs::TraceLayer::kWire);
    if (!DecodeQuerySumRequest(in, &req)) return Status::kMalformed;
  }
  Predicate pred;
  Status status = BuildPredicate(req.where, &pred);
  if (status != Status::kOk) return status;
  QuerySumResponse rsp;
  {
    obs::ScopedSpan span("query_reduce", obs::TraceLayer::kQuery);
    span.Annotate("scope", static_cast<uint64_t>(req.scope));
    status = Lookup(req.scope).Sum(req, pred, &rsp);
  }
  if (status != Status::kOk) return status;
  ++counters_.queries;
  return EncodeBody(EncodeQuerySumResponse, id, rsp, out);
}

Status SketchServer::HandleTopK(uint64_t id, wire::VarintReader& in,
                                std::string* out) {
  QueryTopKRequest req;
  {
    obs::ScopedSpan span("frame_decode", obs::TraceLayer::kWire);
    if (!DecodeQueryTopKRequest(in, &req)) return Status::kMalformed;
  }
  QueryTopKResponse rsp;
  rsp.scope = req.scope;
  Status status;
  {
    obs::ScopedSpan span("query_reduce", obs::TraceLayer::kQuery);
    span.Annotate("scope", static_cast<uint64_t>(req.scope));
    span.Annotate("k", req.k);
    status = Lookup(req.scope).TopK(req, &rsp);
  }
  if (status != Status::kOk) return status;
  ++counters_.queries;
  return EncodeBody(EncodeQueryTopKResponse, id, rsp, out);
}

Status SketchServer::HandleGroupBy(uint64_t id, wire::VarintReader& in,
                                   std::string* out) {
  QueryGroupByRequest req;
  if (!DecodeQueryGroupByRequest(in, &req)) return Status::kMalformed;
  if (attrs_ == nullptr) return Status::kUnsupported;
  if (req.dim1 >= attrs_->num_dims() ||
      (req.has_dim2 && req.dim2 >= attrs_->num_dims())) {
    return Status::kMalformed;
  }
  Predicate pred;
  Status status = BuildPredicate(req.where, &pred);
  if (status != Status::kOk) return status;
  QueryGroupByResponse rsp;
  {
    obs::ScopedSpan span("query_reduce", obs::TraceLayer::kQuery);
    // A group-by names no scope: it always addresses the counts scope.
    status = Lookup(QueryScope::kCounts).GroupBy(req, pred, &rsp);
    span.Annotate("groups", rsp.groups.size());
  }
  if (status != Status::kOk) return status;
  ++counters_.queries;
  return EncodeBody(EncodeQueryGroupByResponse, id, rsp, out);
}

Status SketchServer::HandleSnapshot(uint64_t id, wire::VarintReader& in,
                                    std::string* out) {
  SnapshotRequest req;
  if (!DecodeSnapshotRequest(in, &req)) return Status::kMalformed;
  SnapshotResponse rsp;
  SnapshotFormat format = SnapshotFormat::kStream;
  const Status status =
      Lookup(req.scope).Snapshot(req.frozen, &rsp.blob, &format);
  if (status != Status::kOk) return status;
  ++counters_.snapshots;
  // A frame must hold the response (real snapshots are far below this).
  if (rsp.blob.size() > kMaxSnapshotBlobBytes) return Status::kTooLarge;
  counters_.last_snapshot_format = format;
  counters_.last_snapshot_bytes = rsp.blob.size();
  return EncodeBody(EncodeSnapshotResponse, id, rsp, out);
}

Status SketchServer::HandleRestore(uint64_t id, wire::VarintReader& in,
                                   std::string* out) {
  RestoreRequest req;
  if (!DecodeRestoreRequest(in, &req)) return Status::kMalformed;
  RestoreResponse rsp;
  const Status status = Lookup(req.scope).Restore(req.blob, &rsp.num_absorbed);
  if (status != Status::kOk) return status;
  ++counters_.restores;
  counters_.last_restore_format = BlobSnapshotFormat(req.blob);
  counters_.last_restore_bytes = req.blob.size();
  return EncodeBody(EncodeRestoreResponse, id, rsp, out);
}

StatsResponse SketchServer::Stats() {
  StatsResponse out = counters_;
  out.errors = std::accumulate(errors_.begin(), errors_.end(), uint64_t{0});
  out.errors_malformed = errors_[static_cast<size_t>(Status::kMalformed)];
  out.errors_unknown_opcode =
      errors_[static_cast<size_t>(Status::kUnknownOpcode)];
  out.errors_unsupported = errors_[static_cast<size_t>(Status::kUnsupported)];
  out.errors_too_large = errors_[static_cast<size_t>(Status::kTooLarge)];
  out.errors_bad_state = errors_[static_cast<size_t>(Status::kBadState)];
  out.num_shards = options_.shard.num_shards;
  // A scope that never booted holds no rows: its fields stay zero.
  for (const std::unique_ptr<Scope>& scope : scopes_) {
    if (scope != nullptr) scope->FillStats(&out);
  }
  out.traces_captured_total = obs::TraceCollector::Global().traces_captured();
  out.flight_recorder_dropped_total = obs::FlightRecorder::Global().dropped();
  return out;
}

void SketchServer::Serve(Transport& transport) {
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::milliseconds;
  const Ms interval(options_.epoch_interval_ms);
  Clock::time_point next_tick = Clock::now() + interval;
  std::string payload;
  while (true) {
    // Wall-clock epoch scheduling: wait for readability in slices so
    // every elapsed interval advances the windowed epoch, idle or not; a
    // stalled loop catches up all owed ticks in one Advance.
    while (interval.count() > 0 &&
           !transport.WaitReadable(static_cast<int>(std::max<int64_t>(
               0, std::chrono::duration_cast<Ms>(next_tick - Clock::now())
                      .count())))) {
      const Clock::time_point now = Clock::now();
      if (now < next_tick) continue;  // spurious poll-timeout slop
      const int64_t ticks =
          1 + std::chrono::duration_cast<Ms>(now - next_tick) / interval;
      // Catch-up ticks (beyond the first) expose a stalled loop.
      Metrics().timer_ticks->Inc(static_cast<uint64_t>(ticks));
      Metrics().timer_catchup_ticks->Inc(static_cast<uint64_t>(ticks - 1));
      Lookup(QueryScope::kWindow).TickEpochs(static_cast<uint64_t>(ticks));
      next_tick += interval * ticks;
    }
    FrameStatus fs = ReadFrame(transport, &payload);
    // EOF ends the session cleanly; a frame violation (hostile length
    // prefix, mid-frame EOF) is unrecoverable on a byte stream, so the
    // connection is dropped either way.
    if (fs != FrameStatus::kOk) break;
    Metrics().frame_bytes_in->Inc(payload.size() + kFrameHeaderBytes);
    std::string response = HandleRequest(payload);
    bool wrote;
    {
      // Joins the request's trace via the pending-trace hand-off even
      // though the root span already closed inside HandleRequest.
      obs::ScopedSpan span("response_write", obs::TraceLayer::kWire);
      span.Annotate("bytes", response.size());
      wrote = WriteFrame(transport, response);
    }
    obs::FlushPendingTrace();
    if (!wrote) break;
    Metrics().frame_bytes_out->Inc(response.size() + kFrameHeaderBytes);
    if (shutdown_) break;
  }
  transport.CloseWrite();
}

}  // namespace dsketch
