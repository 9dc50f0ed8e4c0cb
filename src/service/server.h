// SketchServer: the long-lived streaming service over the query engine.
//
// HandleRequest maps one request payload to one response payload (pure
// request/response, fully unit-testable); Serve() runs it over a framed
// Transport until EOF, a frame-level protocol violation, or SHUTDOWN.
// Hostile input never crashes the server: undecodable requests answer
// Status::kMalformed, unknown opcodes kUnknownOpcode, oversized claims
// kTooLarge — the never-abort contract the wire decoders pin under asan.
//
// Every sketch the server answers from is a Scope (service/scope.h) in a
// table indexed by QueryScope, so a handler is decode → validate the
// predicate → look the scope up → call it → encode. A writer's scopes
// boot their shard fleets on first use; a replica's table holds only its
// frozen image, so it never starts a shard thread. Empty slots and
// operations a scope lacks answer Status::kUnsupported (U):
//
//                     ------ writer ------    ------ replica ------
//                     counts weighted window  counts weighted window
//   INGEST_BATCH        OK     OK      OK       U      U       U
//   QUERY_SUM / TOPK    OK     OK      OK       OK     U       U
//   QUERY_GROUPBY       OK     -       -        OK     -       -
//   SNAPSHOT            OK     OK      OK       OK*    U       U
//   SNAPSHOT frozen     OK     U       U        OK*    U       U
//   RESTORE             OK     OK      OK       U      U       U
//
// GROUPBY names no scope and always reads counts; OK* is the image
// itself, byte for byte. STATS, SHUTDOWN, METRICS and TRACE name no scope
// and are served by both. Replication rides the snapshot codecs: RESTORE
// absorbs a peer's SNAPSHOT next to local rows.
//
// Domains. An INGEST that would leave its scope's domain answers
// kTooLarge and a RESTORE kBadState; neither changes the state.
//   counts    total count (rows ingested plus absorbed totals)
//             <= INT64_MAX;
//   weighted  total weight (weights ingested plus absorbed totals)
//             <= kMaxWeightedTotal = 2^500 (service/scope.h), so merges
//             and eq. 5's MinWeight()^2 * C_S stay finite;
//   window    total count (rows ingested plus the slot totals of every
//             absorbed ring) <= INT64_MAX, so no epoch merge or window
//             view sums past it.
// Restored weighted masses (the weighted scope, a window ring's decayed
// accumulator) must be finite, and so must their per-blob total.
//
// Threading: one thread drives HandleRequest/Serve (the shard fleets fan
// work out across their own workers); run a server per connection and
// let them exchange snapshots.

#ifndef DSKETCH_SERVICE_SERVER_H_
#define DSKETCH_SERVICE_SERVER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "query/attribute_table.h"
#include "query/frozen_source.h"
#include "query/sketch_source.h"
#include "service/protocol.h"
#include "service/scope.h"
#include "service/transport.h"
#include "shard/sharded_sketch.h"
#include "window/windowed_sketch.h"

namespace dsketch {

/// One slow request, as handed to SketchServerOptions::slow_request_hook
/// (all sizes are payload bytes, excluding the 4-byte frame prefix).
struct SlowRequestInfo {
  Opcode opcode = Opcode::kStats;
  uint64_t request_id = 0;
  uint64_t latency_us = 0;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
};

/// Server tuning knobs.
struct SketchServerOptions {
  /// Shard fleet configuration (workers, per-shard bins, queues) shared
  /// by the counts, weighted, and windowed scopes.
  ShardedSketchOptions shard;
  /// Bins of the merged snapshot view queries and SNAPSHOT run against.
  size_t merged_capacity = 4096;
  /// Epoch ring of the windowed scope (its merged_capacity is replaced by
  /// the one above, its seed derived from shard.seed).
  WindowedSketchOptions window;
  /// Seed for the snapshot merge and restores (shard seeds come from
  /// shard.seed, offset per scope so the paths differ).
  uint64_t seed = 1;
  /// > 0: Serve() advances the windowed scope's epoch every this-many
  /// milliseconds of real time, so windows slide without every client
  /// stamping rows. 0 (default) keeps epochs caller-driven. Must be >= 0.
  int64_t epoch_interval_ms = 0;
  /// > 0: every request whose HandleRequest latency reaches this many µs
  /// fires `slow_request_hook` (default: one structured stderr line, see
  /// README "Observability") and bumps
  /// dsketch_service_slow_requests_total. 0 (default) disables it.
  int64_t slow_request_us = 0;
  /// Replaces the default stderr line when set. Called on the serving
  /// thread — keep it cheap.
  std::function<void(const SlowRequestInfo&)> slow_request_hook;
  /// > 0: capture every Nth request's full span tree into the
  /// recent-traces ring (obs/trace.h; 1 = every request); with
  /// slow_request_us > 0 every slow request is captured too (tail
  /// sampling). 0 (default) leaves sampling off — the flight recorder
  /// still runs. Must be >= 0. Applied to the global TraceCollector for
  /// the server's lifetime when either sampling knob is set.
  int64_t trace_sample = 0;
};

/// The streaming sketch service.
class SketchServer {
 public:
  /// Read-write server. `attrs` is the dimension table predicates and
  /// group-bys evaluate against; it may be nullptr (queries with
  /// attribute conditions then answer Status::kUnsupported) and must
  /// outlive the server otherwise. Bad options CHECK-fail here.
  explicit SketchServer(const SketchServerOptions& options,
                        const AttributeTable* attrs = nullptr);

  /// Read-replica server over a frozen image (`dsketchd --replica`; see
  /// the support matrix above). `replica` must be non-null and outlive
  /// the server; callers should Validate() untrusted images first.
  SketchServer(const SketchServerOptions& options, FrozenSketchSource* replica,
               const AttributeTable* attrs);

  /// Restores the trace sampling policy the constructor replaced.
  ~SketchServer();

  /// Maps one request payload to one well-formed response payload
  /// (possibly an error response); never aborts on hostile bytes.
  std::string HandleRequest(std::string_view request);

  /// Serves framed requests until EOF, a frame violation, or SHUTDOWN;
  /// closes the write side on exit.
  void Serve(Transport& transport);

  /// True once a SHUTDOWN request has been handled.
  bool shutdown_requested() const { return shutdown_; }

  /// The counts scope's unit-row source, booted if needed (embedders and
  /// tests reach the fleet here). Writers only: CHECK-fails on a replica.
  ShardedSketchSource& source();

  /// Current counters (same numbers a STATS request reports); boots no
  /// scope.
  StatsResponse Stats();

 private:
  // Vets the options and applies the trace sampling policy.
  void Configure();

  // The opcode switch HandleRequest wraps with telemetry and the error
  // path. Each returns kOk with request `id`'s response in `out`, or the
  // Status of the error response.
  Status Dispatch(Opcode opcode, uint64_t id, wire::VarintReader& in,
                  std::string* out);
  Status HandleIngest(uint64_t id, wire::VarintReader& in, std::string* out);
  Status HandleSum(uint64_t id, wire::VarintReader& in, std::string* out);
  Status HandleTopK(uint64_t id, wire::VarintReader& in, std::string* out);
  Status HandleGroupBy(uint64_t id, wire::VarintReader& in, std::string* out);
  Status HandleSnapshot(uint64_t id, wire::VarintReader& in, std::string* out);
  Status HandleRestore(uint64_t id, wire::VarintReader& in, std::string* out);

  // The scope for requests naming `scope`. The one boot rule: an empty
  // slot with a factory builds its scope here, on first use; a slot with
  // neither answers through `unsupported_`.
  Scope& Lookup(QueryScope scope);

  // kOk, kMalformed (bad dim), or kUnsupported (no attribute table).
  Status BuildPredicate(const PredicateSpec& spec, Predicate* out) const;

  SketchServerOptions options_;
  const AttributeTable* attrs_;
  // The scope table, indexed by QueryScope, and the writer factories
  // that fill it (all null on a replica).
  std::array<std::unique_ptr<Scope>, kNumQueryScopes> scopes_;
  std::array<ScopeFactory, kNumQueryScopes> boot_{};
  Scope unsupported_;
  bool shutdown_ = false;
  // Set when the constructor replaced the global trace policy; the
  // destructor restores the one saved here.
  bool configured_tracing_ = false;
  obs::TraceConfig saved_trace_config_;
  // The STATS fields the handlers count (batches, queries, snapshots,
  // restores, last_*); Stats() fills in the rest.
  StatsResponse counters_;
  std::array<uint64_t, kNumStatuses> errors_{};  // indexed by Status
};

}  // namespace dsketch

#endif  // DSKETCH_SERVICE_SERVER_H_
