// Request/response message layer of the sketch service protocol.
//
// Each frame payload (service/frame.h) is one message, encoded with the
// wire varint primitives (wire/varint.h):
//
//   request  = [u8 proto_version][u8 opcode][varint request_id][body]
//   response = [u8 proto_version][u8 opcode][varint request_id]
//              [u8 status][body iff status == kOk]
//
// The opcode and request id are echoed in the response so clients can
// match replies; status != kOk carries no body. Decoders must consume the
// payload exactly (trailing bytes are malformed) and validate every
// count against the bytes actually present before allocating, mirroring
// the sketch wire codecs' hostile-input contract: malformed input yields
// `false`, never a crash or a forced allocation.
//
// Message bodies (all varint unless noted; f64 = 8-byte IEEE-754 LE):
//
//   INGEST_BATCH  req: [u8 flags (1 = weighted, 2 = windowed)]
//                      [windowed: varint epoch][varint n][n varint items]
//                      [weighted: n f64 weights]
//                 rsp: [varint rows_accepted]
//   QUERY_SUM     req: [u8 scope][window scope: varint last_k][predicate]
//                 rsp: [f64 estimate][f64 variance][varint items_in_sample]
//   QUERY_TOPK    req: [u8 scope][varint k][window scope: varint last_k]
//                 rsp: [u8 scope][varint n] then per entry
//                      [varint item][counts/window: varint count |
//                       weighted: f64]
//   QUERY_GROUPBY req: [varint dim1][u8 has_dim2][varint dim2][predicate]
//                 rsp: [varint n] then per group [varint key][f64 estimate]
//                      [f64 variance][varint items_in_sample]
//                 The request carries no scope byte: a group-by always
//                 addresses the counts scope.
//   SNAPSHOT      req: [u8 scope | kSnapshotFrozenFlag (0x80)]
//                 rsp: [varint n_bytes][sketch wire blob]
//                 The high bit of the scope byte asks for the frozen
//                 mmap-able image (wire/frozen.h) instead of the v2
//                 stream encoding; only valid with the counts scope.
//   RESTORE       req: [u8 scope][varint n_bytes][sketch wire blob]
//                 rsp: [varint num_absorbed]
//   STATS         req: (empty)
//                 rsp: counters (see StatsResponse)
//   SHUTDOWN      req: (empty)   rsp: (empty)
//   METRICS       req: [u8 scope (MetricsScope: 0 = all, 1 = service,
//                       2 = shard, 3 = window, 4 = wire, 5 = util)]
//                 rsp: [varint n_bytes][Prometheus-style text
//                      exposition (obs/metrics.h), scope-filtered by
//                      metric family prefix]
//   TRACE         req: [u8 scope (TraceScope: 0 = recent sampled traces,
//                       1 = flight-recorder dump)]
//                 rsp: [varint n_bytes][kRecent: Chrome trace-event
//                      JSON over the recent-traces ring | kFlight:
//                      compact text dump of the span ring (obs/trace.h)]
//
//   predicate = [varint n_conditions] then per condition
//               [varint dim][varint n_values][n varint values (u32)]
//
// Scope selects which sketch a query/snapshot runs against: kCounts is
// the unit-row Unbiased Space Saving path, kWeighted the real-valued
// WeightedSpaceSaving path (populated by weighted INGEST_BATCH frames),
// and kWindow the epoch-ring path (populated by windowed INGEST_BATCH
// frames, whose epoch stamp also advances the ring). Window queries
// carry last_k — how many of the newest epochs to merge (0 = the full
// window) — and window SNAPSHOT/RESTORE move the entire ring as the
// windowed wire kind (window/window_wire.h). The weighted and windowed
// flags are mutually exclusive (the weighted fleet keeps no epochs).
//
// The element-count caps below every decoder enforces live in
// service/limits.h next to the frame cap, so message bodies and the
// frames that carry them are bounded by one set of numbers.

#ifndef DSKETCH_SERVICE_PROTOCOL_H_
#define DSKETCH_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/sketch_entry.h"
#include "service/limits.h"
#include "window/windowed_sketch.h"
#include "wire/varint.h"

namespace dsketch {

/// Protocol version this build speaks (requests and responses both carry
/// it; each side rejects others — servers with Status::kUnsupported,
/// clients by failing the call). Version 2 added the window scope and,
/// with it, an unconditional STATS body change (windowed_rows_ingested /
/// window_epoch travel mid-body), so mixed-version fleets refuse each
/// other explicitly instead of misparsing counters. Version 3 added the
/// frozen-format SNAPSHOT flag and another unconditional STATS body
/// change (the last_snapshot_* / last_restore_* counters). Version 4
/// added the METRICS opcode (telemetry text exposition, served by
/// writers and replicas alike) and an unconditional STATS body change
/// (the per-status error counters errors_malformed /
/// errors_unknown_opcode / errors_unsupported / errors_too_large /
/// errors_bad_state). Version 5 added the TRACE opcode (request-scoped
/// trace export — recent sampled traces as Chrome trace-event JSON, or
/// the always-on flight recorder as text — served by writers and
/// replicas alike) and an unconditional STATS body change (the
/// traces_captured_total / flight_recorder_dropped_total counters).
inline constexpr uint8_t kProtocolVersion = 5;

/// High bit of the SNAPSHOT request scope byte: the client wants the
/// frozen mmap-able image (wire kind 8) instead of the v2 stream
/// encoding. Counts scope only; the low 7 bits stay the QueryScope.
inline constexpr uint8_t kSnapshotFrozenFlag = 0x80;

/// Request opcodes (part of the wire contract; values are stable).
enum class Opcode : uint8_t {
  kIngestBatch = 1,
  kQuerySum = 2,
  kQueryTopK = 3,
  kQueryGroupBy = 4,
  kSnapshot = 5,
  kRestore = 6,
  kStats = 7,
  kShutdown = 8,
  kMetrics = 9,
  kTrace = 10,
};

/// Response status codes.
enum class Status : uint8_t {
  kOk = 0,
  kMalformed = 1,      ///< request failed to decode
  kUnknownOpcode = 2,  ///< opcode not in the table above
  kUnsupported = 3,    ///< wrong protocol version / feature not enabled
  kTooLarge = 4,       ///< caps exceeded (batch rows, k, blob size)
  kBadState = 5,       ///< e.g. RESTORE of malformed sketch bytes
};

/// Number of Status values (the size of per-status counter tables).
inline constexpr size_t kNumStatuses =
    static_cast<size_t>(Status::kBadState) + 1;

/// Which sketch a query, snapshot, or restore addresses.
enum class QueryScope : uint8_t {
  kCounts = 0,    ///< unit-row Unbiased Space Saving state
  kWeighted = 1,  ///< real-valued WeightedSpaceSaving state
  kWindow = 2,    ///< epoch-ring WindowedSpaceSaving state
};

/// Which metric families a METRICS request selects (values are wire
/// contract): each maps to a family-name prefix in the registry
/// (`dsketch_service_`, `dsketch_shard_`, ...); kAll is everything.
enum class MetricsScope : uint8_t {
  kAll = 0,
  kService = 1,
  kShard = 2,
  kWindow = 3,
  kWire = 4,
  kUtil = 5,
};

/// The registry family prefix `scope` selects ("dsketch_" for kAll).
std::string_view MetricsScopePrefix(MetricsScope scope);

/// Which trace export a TRACE request selects (values are wire
/// contract).
enum class TraceScope : uint8_t {
  kRecent = 0,  ///< recent sampled traces as Chrome trace-event JSON
  kFlight = 1,  ///< flight-recorder span ring as a compact text dump
};

// The element-count caps (kMaxBatchRows, kMaxTopK, ...) are shared with
// the frame layer through service/limits.h. Window last_k values are
// bounded by the ring cap, kMaxWindowEpochs, and epoch stamps by
// kMaxEpochStamp (both window/windowed_sketch.h, shared with the window
// wire codec so a restored ring obeys the same clock bounds).

/// Parsed header common to every request.
struct RequestHeader {
  uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kStats;
  uint64_t request_id = 0;
};

/// Parsed header common to every response.
struct ResponseHeader {
  uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kStats;
  uint64_t request_id = 0;
  Status status = Status::kOk;
};

/// Wire form of a conjunctive attribute predicate (query/predicate.h):
/// attr[dim] IN values, ANDed across conditions. Empty = always true.
struct PredicateSpec {
  struct Condition {
    uint64_t dim = 0;
    std::vector<uint32_t> values;
  };
  std::vector<Condition> conditions;

  /// Convenience builders mirroring Predicate's chaining API.
  PredicateSpec& WhereEq(uint64_t dim, uint32_t value) {
    conditions.push_back({dim, {value}});
    return *this;
  }
  PredicateSpec& WhereIn(uint64_t dim, std::vector<uint32_t> values) {
    conditions.push_back({dim, std::move(values)});
    return *this;
  }
};

struct IngestBatchRequest {
  std::vector<uint64_t> items;
  std::vector<double> weights;  ///< empty (unit rows) or items.size()
  bool windowed = false;        ///< rows land in the epoch ring
  uint64_t epoch = 0;           ///< ring epoch stamp (windowed only)
};
struct IngestBatchResponse {
  uint64_t rows_accepted = 0;
};

struct QuerySumRequest {
  QueryScope scope = QueryScope::kCounts;
  uint64_t last_k = 0;  ///< window scope: newest epochs to merge (0 = all)
  PredicateSpec where;
};
struct QuerySumResponse {
  double estimate = 0.0;
  double variance = 0.0;
  uint64_t items_in_sample = 0;
};

struct QueryTopKRequest {
  QueryScope scope = QueryScope::kCounts;
  uint64_t k = 0;
  uint64_t last_k = 0;  ///< window scope: newest epochs to merge (0 = all)
};
struct QueryTopKResponse {
  QueryScope scope = QueryScope::kCounts;
  std::vector<SketchEntry> counts;      ///< scope == kCounts or kWindow
  std::vector<WeightedEntry> weighted;  ///< filled when scope == kWeighted
};

struct QueryGroupByRequest {
  uint64_t dim1 = 0;
  bool has_dim2 = false;
  uint64_t dim2 = 0;
  PredicateSpec where;
};
struct GroupRow {
  uint64_t key = 0;  ///< attr value (1-way) or PackGroupKey pair (2-way)
  double estimate = 0.0;
  double variance = 0.0;
  uint64_t items_in_sample = 0;
};
struct QueryGroupByResponse {
  std::vector<GroupRow> groups;
};

struct SnapshotRequest {
  QueryScope scope = QueryScope::kCounts;
  bool frozen = false;  ///< counts scope: return the frozen image
};
struct SnapshotResponse {
  std::string blob;  ///< sketch wire bytes (core/serialization.h)
};

struct MetricsRequest {
  MetricsScope scope = MetricsScope::kAll;
};
struct MetricsResponse {
  std::string text;  ///< Prometheus-style exposition (obs/metrics.h)
};

struct TraceRequest {
  TraceScope scope = TraceScope::kRecent;
};
struct TraceResponse {
  std::string text;  ///< Chrome trace-event JSON or flight-recorder text
};

struct RestoreRequest {
  QueryScope scope = QueryScope::kCounts;
  std::string blob;
};
struct RestoreResponse {
  uint64_t num_absorbed = 0;  ///< snapshots absorbed so far (this scope)
};

/// Snapshot/restore blob format codes reported in STATS.
enum class SnapshotFormat : uint8_t {
  kNone = 0,    ///< no snapshot/restore served yet
  kStream = 1,  ///< v1/v2 stream encoding (core/serialization.h)
  kFrozen = 2,  ///< frozen mmap-able image (wire/frozen.h)
};

struct StatsResponse {
  uint64_t rows_ingested = 0;           ///< unit rows accepted
  uint64_t weighted_rows_ingested = 0;  ///< weighted rows accepted
  uint64_t windowed_rows_ingested = 0;  ///< epoch-stamped rows accepted
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t snapshots = 0;
  uint64_t restores = 0;
  uint64_t errors = 0;           ///< requests answered with status != kOk
  /// Error responses broken down by status — adversarial traffic
  /// (malformed frames, unknown opcodes, oversized claims) is visible
  /// per cause, on writers and replicas alike. Sums to `errors`.
  uint64_t errors_malformed = 0;
  uint64_t errors_unknown_opcode = 0;
  uint64_t errors_unsupported = 0;
  uint64_t errors_too_large = 0;
  uint64_t errors_bad_state = 0;
  uint64_t num_shards = 0;
  uint64_t window_epoch = 0;     ///< open epoch of the windowed ring
  int64_t total_count = 0;       ///< TotalCount() of the counts view
  double total_weight = 0.0;     ///< TotalWeight() of the weighted view
  /// Format and blob size of the most recent SNAPSHOT served / RESTORE
  /// absorbed (kNone / 0 until one happens) — operators watching a
  /// replica fleet see which nodes already hand out frozen images.
  SnapshotFormat last_snapshot_format = SnapshotFormat::kNone;
  uint64_t last_snapshot_bytes = 0;
  SnapshotFormat last_restore_format = SnapshotFormat::kNone;
  uint64_t last_restore_bytes = 0;
  /// Sampling pressure of the tracing layer (obs/trace.h): how many
  /// request traces sampling has captured, and how many flight-recorder
  /// spans newer ones have already overwritten.
  uint64_t traces_captured_total = 0;
  uint64_t flight_recorder_dropped_total = 0;
};

// --- encoders (request side) -----------------------------------------

std::string EncodeIngestBatchRequest(uint64_t request_id,
                                     const IngestBatchRequest& msg);
std::string EncodeQuerySumRequest(uint64_t request_id,
                                  const QuerySumRequest& msg);
std::string EncodeQueryTopKRequest(uint64_t request_id,
                                   const QueryTopKRequest& msg);
std::string EncodeQueryGroupByRequest(uint64_t request_id,
                                      const QueryGroupByRequest& msg);
std::string EncodeSnapshotRequest(uint64_t request_id,
                                  const SnapshotRequest& msg);
std::string EncodeRestoreRequest(uint64_t request_id,
                                 const RestoreRequest& msg);
std::string EncodeStatsRequest(uint64_t request_id);
std::string EncodeShutdownRequest(uint64_t request_id);
std::string EncodeMetricsRequest(uint64_t request_id,
                                 const MetricsRequest& msg);
std::string EncodeTraceRequest(uint64_t request_id, const TraceRequest& msg);

// --- encoders (response side) ----------------------------------------

/// Header-only response carrying an error status (no body).
std::string EncodeErrorResponse(Opcode opcode, uint64_t request_id,
                                Status status);
std::string EncodeIngestBatchResponse(uint64_t request_id,
                                      const IngestBatchResponse& msg);
std::string EncodeQuerySumResponse(uint64_t request_id,
                                   const QuerySumResponse& msg);
std::string EncodeQueryTopKResponse(uint64_t request_id,
                                    const QueryTopKResponse& msg);
std::string EncodeQueryGroupByResponse(uint64_t request_id,
                                       const QueryGroupByResponse& msg);
std::string EncodeSnapshotResponse(uint64_t request_id,
                                   const SnapshotResponse& msg);
std::string EncodeRestoreResponse(uint64_t request_id,
                                  const RestoreResponse& msg);
std::string EncodeStatsResponse(uint64_t request_id,
                                const StatsResponse& msg);
std::string EncodeShutdownResponse(uint64_t request_id);
std::string EncodeMetricsResponse(uint64_t request_id,
                                  const MetricsResponse& msg);
std::string EncodeTraceResponse(uint64_t request_id, const TraceResponse& msg);

// --- decoders ---------------------------------------------------------
//
// Header decoders leave the reader at the first body byte. Body decoders
// require the reader to end exactly at the payload's last byte and
// return false otherwise (trailing bytes = malformed).

bool DecodeRequestHeader(wire::VarintReader& reader, RequestHeader* out);
bool DecodeResponseHeader(wire::VarintReader& reader, ResponseHeader* out);

bool DecodeIngestBatchRequest(wire::VarintReader& reader,
                              IngestBatchRequest* out);
bool DecodeQuerySumRequest(wire::VarintReader& reader, QuerySumRequest* out);
bool DecodeQueryTopKRequest(wire::VarintReader& reader, QueryTopKRequest* out);
bool DecodeQueryGroupByRequest(wire::VarintReader& reader,
                               QueryGroupByRequest* out);
bool DecodeSnapshotRequest(wire::VarintReader& reader, SnapshotRequest* out);
bool DecodeRestoreRequest(wire::VarintReader& reader, RestoreRequest* out);
bool DecodeMetricsRequest(wire::VarintReader& reader, MetricsRequest* out);
bool DecodeTraceRequest(wire::VarintReader& reader, TraceRequest* out);

bool DecodeIngestBatchResponse(wire::VarintReader& reader,
                               IngestBatchResponse* out);
bool DecodeQuerySumResponse(wire::VarintReader& reader, QuerySumResponse* out);
bool DecodeQueryTopKResponse(wire::VarintReader& reader,
                             QueryTopKResponse* out);
bool DecodeQueryGroupByResponse(wire::VarintReader& reader,
                                QueryGroupByResponse* out);
bool DecodeSnapshotResponse(wire::VarintReader& reader, SnapshotResponse* out);
bool DecodeRestoreResponse(wire::VarintReader& reader, RestoreResponse* out);
bool DecodeStatsResponse(wire::VarintReader& reader, StatsResponse* out);
bool DecodeMetricsResponse(wire::VarintReader& reader, MetricsResponse* out);
bool DecodeTraceResponse(wire::VarintReader& reader, TraceResponse* out);

}  // namespace dsketch

#endif  // DSKETCH_SERVICE_PROTOCOL_H_
