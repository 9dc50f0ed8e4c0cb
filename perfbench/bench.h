// Shared types of the end-to-end service benchmark.
//
// The benchmark drives a real SketchServer with four traffic mixes (the
// workloads below). Every input is generated from --seed before any
// server starts: a Script is the complete, pre-encoded request stream of
// one workload, split into the set-up phase (preload), the timed phase,
// and an untimed verification phase, with the exact model's expected
// answer attached to every request that has one.
//
// The same Script feeds three consumers:
//   * loadgen.cc — a forked server process driven over a socketpair by a
//     one-thread, closed-loop client (the end-to-end metrics);
//   * replay.cc — an in-process replay through each layer's public calls
//     (the per-layer metrics of a traced run);
//   * main.cc — aggregation, reconciliation, and the result line.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "query/attribute_table.h"
#include "service/protocol.h"
#include "service/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Workload { kIngestZipf, kQueryCached, kMixedFresh, kWindowSliding };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kIngestZipf, Workload::kQueryCached, Workload::kMixedFresh,
    Workload::kWindowSliding};

const char* WorkloadName(Workload w);
bool ParseWorkload(std::string_view name, Workload* out);

// Shape shared by every workload: a Zipf(1.1) stream over 1M items whose
// attribute table has one dimension with 16 values.
inline constexpr size_t kItems = 1000000;
inline constexpr double kZipfExponent = 1.1;
inline constexpr uint32_t kAttrValues = 16;
inline constexpr size_t kPredicates = 64;  // distinct WhereIn filters
inline constexpr size_t kTrueTop = 10;     // TOPK must contain these
inline constexpr uint64_t kTopK = 100;
inline constexpr size_t kBins = 4096;
inline constexpr size_t kWindowEpochs = 64;
// Bins per window epoch. At 4096 a ring rebuild after every batch copies
// about 86 MB, which makes window_sliding memory-bandwidth-bound and its
// run-to-run spread on a shared host as wide as the timing bounds.
inline constexpr size_t kEpochBins = 1024;

/// False under -DDSKETCH_NO_METRICS, where every library counter reads 0.
inline bool MetricsRecorded() {
  return std::string_view(dsketch::obs::MetricsBuildMode()) == "on";
}

/// Server configuration of a workload (shards x kBins; W = kWindowEpochs
/// ring with kEpochBins per epoch).
dsketch::SketchServerOptions ServerOptions(Workload w);

/// The one-dimension, 16-value attribute table of `seed` (the server
/// process rebuilds the same table from the same seed).
dsketch::AttributeTable BuildAttributes(uint64_t seed);

enum class Op : uint8_t {
  kIngest,     // INGEST_BATCH (counts or windowed)
  kStats,      // STATS: a barrier; total_count is checked
  kSum,        // QUERY_SUM, counts scope
  kWindowSum,  // QUERY_SUM, window scope, last_k
  kTopK,       // QUERY_TOPK 100, counts scope
  kGroupBy,    // QUERY_GROUPBY dim 0
  kSnapshot,   // SNAPSHOT, counts scope, v2 stream encoding
};

/// One request of a script with what the exact model expects back.
struct Request {
  uint32_t payload = 0;  // index into Script::payloads
  uint64_t id = 0;       // request id (echoed by the response)
  Op op = Op::kStats;
  bool filtered = false;  // sums: carries a predicate
  uint32_t rows = 0;      // ingest: rows in the batch
  uint64_t epoch = 0;     // windowed ingest: epoch stamp
  uint64_t last_k = 0;    // window sums
  bool windowed = false;  // ingest into the window scope
  // Exact rows in scope (kStats total_count, kSum / kWindowSum answer,
  // kGroupBy sum over all groups).
  int64_t exact = 0;
  uint32_t top = 0;  // kTopK: index into Script::tops
};

/// The full request stream of one workload.
struct Script {
  Workload workload = Workload::kIngestZipf;
  std::vector<std::string> payloads;  // encoded requests (no frame prefix)
  std::vector<Request> setup;         // preload, ends in a barrier
  std::vector<Request> timed;         // the measured closed loop
  std::vector<Request> verify;        // untimed exact checks
  std::vector<std::vector<uint32_t>> predicates;  // WhereIn(0, values)
  std::vector<std::vector<uint64_t>> tops;        // true top items
  uint64_t setup_rows = 0;
  uint64_t timed_rows = 0;
  uint64_t digest = 0;  // FNV-1a over every payload in send order
};

/// Generates the workload's script from `seed`. `scale` (0, 1] shrinks
/// every phase for the self-check.
Script BuildScript(Workload w, uint64_t seed, double scale,
                   const dsketch::AttributeTable& attrs);

/// What one pass of the load generator measured.
struct PassResult {
  double setup_s = 0;              // launch -> set-up barrier answered
  double preload_mrows_per_s = 0;  // set-up rows / set-up ingest time
  double timed_s = 0;              // wall time of the timed phase
  double ingest_mrows_per_s = 0;   // timed rows / timed_s
  double queries_per_s = 0;        // timed non-ingest requests / timed_s
  std::vector<double> query_us;    // client round trip, non-ingest
  double server_cpu_s = 0;         // server CPU over the timed phase
  double server_rss_mb = 0;        // server VmHWM after the timed phase
  std::vector<double> rel_errors;  // filtered sums vs the exact model
  uint64_t answer_digest = 0;      // every estimate the server returned
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  // METRICS exposition values around the timed phase (traced runs).
  std::map<std::string, double> metrics_before;
  std::map<std::string, double> metrics_after;
};

// CPU placement, the same in every pass and in the replay: the load
// generator and the server's serve thread share CPU 0, so each
// closed-loop hand-off is a switch on one CPU and does not wait for a
// second CPU to be scheduled; the shard workers get CPUs 1..n-1. Both
// calls are no-ops on a single-CPU machine.

/// Keeps the calling thread, and the threads it starts, on CPU 0 until
/// destroyed.
class ClientCpuScope {
 public:
  ClientCpuScope();
  ~ClientCpuScope();
  ClientCpuScope(const ClientCpuScope&) = delete;
  ClientCpuScope& operator=(const ClientCpuScope&) = delete;

 private:
  cpu_set_t saved_;
};

/// Moves `pid`'s main thread to CPU 0 and every other thread of it (the
/// shard workers) to CPUs 1..n-1.
void PlaceThreads(pid_t pid);

/// Runs one pass: launches a server process, sends the set-up, timed, and
/// verification phases, and shuts the server down. `exe` is this binary
/// (re-executed in server mode); `with_metrics` brackets the timed phase
/// with METRICS requests.
PassResult RunPass(const std::string& exe, const Script& script,
                   uint64_t seed, bool with_metrics);

/// Server mode: serves one connection on `fd` until SHUTDOWN.
int ServeMain(int fd, Workload w, uint64_t seed);

/// Parses a Prometheus-style exposition into name -> value.
std::map<std::string, double> ParseExposition(std::string_view text);

/// One named per-layer measurement of the traced replay.
struct LayerMetric {
  double value = 0;
  const char* unit = "";
  std::string source;  // "replay", "probe" or "metrics"
};

/// Reconciliation of the replay against the untraced client.
struct Reconciliation {
  double layers_us = 0;      // median summed layer time per request
  double handle_us = 0;      // median SketchServer::HandleRequest
  double unexplained_us = 0; // median per-request handle - layers
  double client_p50_us = 0;  // untraced client round trip p50
  double timer_ns = 0;       // cost of one steady_clock read
  size_t requests = 0;       // non-ingest requests compared
  bool layers_ok = false;    // layers do not exceed handle (sign test)
  bool ok = false;           // layers_ok, and handle <= client p50
};

struct ReplayResult {
  std::map<std::string, LayerMetric> metrics;
  Reconciliation reconciliation;
};

/// The traced run's in-process replay of `script` through each layer's
/// public functions. `client_p50_us` comes from the untraced passes.
ReplayResult Replay(const Script& script, const dsketch::AttributeTable& attrs,
                    double client_p50_us);

// --- small statistics helpers --------------------------------------------

/// Exact percentile (nearest rank, p in [0, 100]) of `v`; sorts a copy.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// FNV-1a 64-bit hash step over `bytes`.
uint64_t Fnv1a(uint64_t h, std::string_view bytes);
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
