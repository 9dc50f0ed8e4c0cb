// dsketchd — the sketch service daemon.
//
// Default mode serves the framed protocol (service/protocol.h) on
// stdin/stdout, so any supervisor that can pipe bytes can run a node:
//
//   mkfifo in out && ./dsketchd < in > out      # or socat/s6/systemd
//
// --replica=<path> boots a read-only node instead: the file at <path>
// must be a frozen sketch image (wire/frozen.h, e.g. the bytes of a
// frozen SNAPSHOT written to disk). The image is mmap'd and served with
// zero decode — counts-scope SUM/TOPK/GROUPBY come straight off the
// page cache, INGEST/RESTORE answer kUnsupported, and SNAPSHOT re-serves
// the image itself.
//
// --smoke runs the CI end-to-end scenario fully in-process instead: boot
// node A over the in-memory transport, ingest a batch, run one query,
// take a snapshot, restore it into a freshly booted node B, and verify
// B answers for A's rows — then repeat the whole hop for the windowed
// scope (epoch-stamped ingest, last-k window queries, ring snapshot,
// ring restore), and finally the frozen-replica hop: A emits the frozen
// image, a replica node mmaps the written file, and its zero-decode
// answers must be bit-identical to a node that thawed the same image.
// Exits 0 only if every step checks out — the per-push CI job calls
// this after the build.
//
// Flags (all --key=value):
//   --shards=N            worker threads per node        (default 2)
//   --shard-capacity=N    bins per shard sketch          (default 4096)
//   --merged-capacity=N   bins of the query/snapshot view (default 4096)
//   --window-epochs=N     ring length of the windowed scope (default 4)
//   --epoch-interval-ms=N wall-clock epoch scheduling: advance the
//                         windowed epoch every N ms of real time while
//                         serving (default 0 = caller-driven epochs)
//   --seed=N              reproducible randomness        (default 1)
//   --slow-request-us=N   log every request slower than N µs as one
//                         structured stderr line (default 0 = off;
//                         format in README "Observability")
//   --metrics-interval-ms=N  every N ms, export the full Prometheus-
//                         style metrics exposition (obs/metrics.h) to
//                         --metrics-file, plus once at exit
//                         (default 0 = off)
//   --metrics-file=PATH   exposition target; written to PATH.tmp and
//                         atomically renamed over PATH, so scrapers
//                         never read a torn or half-written dump
//                         (default "" = stderr)
//   --trace-sample=N      capture every Nth request's full span tree
//                         (obs/trace.h; 1 = every request, 0 = off —
//                         the flight recorder runs regardless). With
//                         --slow-request-us, every slow request is
//                         also captured in full (tail sampling)
//   --trace-file=PATH     export the recent sampled traces as Chrome
//                         trace-event JSON (Perfetto-loadable) every
//                         --metrics-interval-ms, plus once at exit;
//                         same atomic tmp-file + rename discipline
//   --replica=PATH        serve the frozen image at PATH read-only
//   --smoke               run the self-contained two-node scenario
//
// Every mode installs the flight-recorder fatal hook: a CHECK failure
// or fatal signal dumps the last trace spans to stderr before the
// process dies, so an abort leaves a postmortem.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/frozen_source.h"
#include "service/client.h"
#include "service/server.h"
#include "service/transport.h"
#include "stream/distributions.h"
#include "stream/generators.h"
#include "util/random.h"

namespace dsketch {
namespace {

int64_t FlagInt(int argc, char** argv, const char* name, int64_t def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoll(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return def;
}

bool FlagSet(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

std::string FlagStr(int argc, char** argv, const char* name,
                    const char* def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return def;
}

SketchServerOptions MakeOptions(int argc, char** argv) {
  SketchServerOptions options;
  options.shard.num_shards =
      static_cast<size_t>(FlagInt(argc, argv, "shards", 2));
  options.shard.shard_capacity =
      static_cast<size_t>(FlagInt(argc, argv, "shard-capacity", 4096));
  options.shard.seed = static_cast<uint64_t>(FlagInt(argc, argv, "seed", 1));
  options.merged_capacity =
      static_cast<size_t>(FlagInt(argc, argv, "merged-capacity", 4096));
  options.window.window_epochs =
      static_cast<size_t>(FlagInt(argc, argv, "window-epochs", 4));
  options.epoch_interval_ms = FlagInt(argc, argv, "epoch-interval-ms", 0);
  options.slow_request_us = FlagInt(argc, argv, "slow-request-us", 0);
  options.trace_sample = FlagInt(argc, argv, "trace-sample", 0);
  options.seed = options.shard.seed;
  return options;
}

// Writes `text` to PATH.tmp, fsyncs it, then renames over PATH and
// fsyncs the parent directory — a reader always sees either the
// previous complete export or the new one, never a partial file, and
// the rename survives a crash or power loss (the tmp file's bytes are
// durable before its name is). False on any fs failure (the tmp file
// is cleaned up).
bool AtomicWriteFile(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best effort: the rename itself already landed
    ::close(dir_fd);
  }
  return true;
}

// Periodic telemetry export (--metrics-interval-ms): a background
// thread writes the full DumpMetricsText() output to --metrics-file
// (or stderr) and, when --trace-file is set, the recent sampled traces
// as Chrome trace-event JSON — both via AtomicWriteFile, so a scraper
// or a Perfetto load never reads a torn export. A final export runs at
// shutdown whenever an interval or a target file was configured, so
// even a short-lived run leaves its last scrape and traces behind.
// Sleeps in short slices so destruction is prompt.
class TelemetryExporter {
 public:
  TelemetryExporter(int64_t interval_ms, std::string metrics_path,
                    std::string trace_path)
      : interval_ms_(interval_ms),
        metrics_path_(std::move(metrics_path)),
        trace_path_(std::move(trace_path)) {
    if (interval_ms_ > 0) thread_ = std::thread([this] { Loop(); });
  }

  ~TelemetryExporter() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
    if (interval_ms_ > 0 || !metrics_path_.empty() || !trace_path_.empty()) {
      Dump();
    }
  }

 private:
  void Loop() {
    using clock = std::chrono::steady_clock;
    auto next = clock::now() + std::chrono::milliseconds(interval_ms_);
    while (!stop_.load(std::memory_order_relaxed)) {
      if (clock::now() >= next) {
        Dump();
        next = clock::now() + std::chrono::milliseconds(interval_ms_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  // Transient fs trouble must not kill serving: failures are dropped.
  void Dump() const {
    // Metrics go to stderr only under a periodic interval — a run that
    // set just --trace-file should not get a surprise metrics dump.
    if (interval_ms_ > 0 || !metrics_path_.empty()) {
      const std::string text = obs::DumpMetricsText();
      if (metrics_path_.empty()) {
        std::fwrite(text.data(), 1, text.size(), stderr);
      } else {
        AtomicWriteFile(metrics_path_, text);
      }
    }
    if (!trace_path_.empty()) {
      AtomicWriteFile(trace_path_, obs::TraceToChromeJson(
                                       obs::TraceCollector::Global().Recent()));
    }
  }

  const int64_t interval_ms_;
  const std::string metrics_path_;
  const std::string trace_path_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// One booted node: server thread on an in-memory connection, client on
// the other end. The destructor closes the client's write side (EOF ends
// Serve if it is still running) and joins, so early failure returns exit
// cleanly instead of aborting in a joinable thread's destructor.
struct Node {
  InMemoryDuplex wire;
  SketchServer server;
  std::thread serve;
  SketchClient client;

  explicit Node(const SketchServerOptions& options)
      : server(options),
        serve([this] { server.Serve(wire.server()); }),
        client(wire.client()) {}

  // Read-replica node over a frozen image (`replica` must outlive it).
  Node(const SketchServerOptions& options, FrozenSketchSource* replica)
      : server(options, replica, nullptr),
        serve([this] { server.Serve(wire.server()); }),
        client(wire.client()) {}

  ~Node() {
    wire.client().CloseWrite();
    if (serve.joinable()) serve.join();
  }
};

// Value of the exposition series `name` (exact match including labels),
// or -1.0 when the dump carries no such line.
double MetricFromText(const std::string& text, const std::string& name) {
  const std::string needle = name + ' ';
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, needle.size(), needle) == 0) {
      return std::strtod(text.c_str() + pos + needle.size(), nullptr);
    }
    pos = eol + 1;
  }
  return -1.0;
}

// The CI smoke scenario: two nodes, one replication hop, every core
// opcode exercised once. Returns 0 on success, 1 with a message on the
// first failed check.
int RunSmoke(SketchServerOptions options) {
  // Sampling on for the whole scenario unless the caller picked a rate:
  // the trace assertions below need the span trees captured.
  if (options.trace_sample == 0) options.trace_sample = 1;
  auto fail = [](const char* what) {
    std::fprintf(stderr, "smoke: FAILED at %s\n", what);
    return 1;
  };

  // Node A over its own in-memory connection.
  Node node_a(options);
  SketchClient& client_a = node_a.client;

  // A Zipf workload (the shape producers actually send).
  auto counts = ZipfCounts(2000, 1.1, 500);
  Rng rng(42);
  auto rows = PermutedStream(counts, rng);
  const size_t kBatch = 4096;
  for (size_t pos = 0; pos < rows.size(); pos += kBatch) {
    size_t len = std::min(kBatch, rows.size() - pos);
    std::vector<uint64_t> batch(rows.begin() + pos, rows.begin() + pos + len);
    if (!client_a.IngestBatch(batch)) return fail("INGEST_BATCH");
  }

  auto sum_a = client_a.QuerySum();
  if (!sum_a.has_value()) return fail("QUERY_SUM");
  if (sum_a->estimate != static_cast<double>(rows.size())) {
    return fail("QUERY_SUM total (sketch preserves totals exactly)");
  }
  auto topk_a = client_a.QueryTopK(10);
  if (!topk_a.has_value() || topk_a->counts.empty()) {
    return fail("QUERY_TOPK");
  }

  auto blob = client_a.Snapshot();
  if (!blob.has_value() || blob->empty()) return fail("SNAPSHOT");

  // Node B: fresh instance, catches up purely from A's snapshot bytes.
  SketchServerOptions options_b = options;
  options_b.shard.seed += 100;
  options_b.seed += 100;
  Node node_b(options_b);
  SketchClient& client_b = node_b.client;

  if (!client_b.Restore(*blob)) return fail("RESTORE");
  auto sum_b = client_b.QuerySum();
  if (!sum_b.has_value()) return fail("QUERY_SUM on replica");
  if (sum_b->estimate != sum_a->estimate) {
    return fail("replica total == primary total");
  }
  auto topk_b = client_b.QueryTopK(10);
  if (!topk_b.has_value() || topk_b->counts.size() != topk_a->counts.size()) {
    return fail("QUERY_TOPK on replica");
  }
  auto stats_b = client_b.Stats();
  if (!stats_b.has_value() || stats_b->restores != 1) return fail("STATS");

  // Windowed scope: epoch-stamped ingest on A, last-k window queries,
  // then the full epoch ring replicates to B through one SNAPSHOT →
  // RESTORE hop.
  const size_t kEpochs = 3;
  const size_t kRowsPerEpoch = 2000;
  size_t window_rows = 0;
  for (uint64_t e = 0; e < kEpochs; ++e) {
    std::vector<uint64_t> epoch_rows;
    epoch_rows.reserve(kRowsPerEpoch);
    for (size_t i = 0; i < kRowsPerEpoch; ++i) {
      // Epoch-disjoint labels so per-epoch truths are known exactly.
      epoch_rows.push_back(e * 10000 + rng.NextBounded(500));
    }
    window_rows += epoch_rows.size();
    if (!client_a.IngestWindowed(epoch_rows, e)) {
      return fail("windowed INGEST_BATCH");
    }
  }
  auto win_all = client_a.QuerySum(PredicateSpec(), QueryScope::kWindow);
  if (!win_all.has_value()) return fail("windowed QUERY_SUM");
  if (win_all->estimate != static_cast<double>(window_rows)) {
    return fail("windowed QUERY_SUM total (window merge preserves totals)");
  }
  auto win_last = client_a.QuerySum(PredicateSpec(), QueryScope::kWindow,
                                    /*last_k=*/1);
  if (!win_last.has_value()) return fail("windowed QUERY_SUM last_k=1");
  if (win_last->estimate != static_cast<double>(kRowsPerEpoch)) {
    return fail("windowed last_k=1 total == newest epoch rows");
  }
  auto win_topk =
      client_a.QueryTopK(5, QueryScope::kWindow, /*last_k=*/1);
  if (!win_topk.has_value() || win_topk->counts.empty()) {
    return fail("windowed QUERY_TOPK");
  }
  // Every last_k=1 heavy hitter must be a newest-epoch label.
  for (const SketchEntry& e : win_topk->counts) {
    if (e.item / 10000 != kEpochs - 1) {
      return fail("windowed last_k=1 top-k stays in the newest epoch");
    }
  }

  // Tracing hop. The first windowed query hit a dirty ring, so its
  // sampled span tree must cover every layer: frame decode → shard
  // drain → window merge → query reduction → wire encode, all under
  // one "request" root.
  {
    bool tree_found = false;
    for (const obs::TraceRecord& rec :
         obs::TraceCollector::Global().Recent()) {
      bool root = false, decode = false, drain = false, window = false,
           reduce = false, encode = false;
      for (const obs::Span& s : rec.spans) {
        if (s.name == nullptr) continue;
        if (std::strcmp(s.name, "request") == 0 && s.parent_id == 0) {
          root = true;
        }
        if (std::strcmp(s.name, "frame_decode") == 0) decode = true;
        if (std::strcmp(s.name, "shard_drain") == 0) drain = true;
        if (std::strcmp(s.name, "window_merge") == 0) window = true;
        if (std::strcmp(s.name, "query_reduce") == 0) reduce = true;
        if (std::strcmp(s.name, "wire_encode") == 0) encode = true;
      }
      if (root && decode && drain && window && reduce && encode) {
        tree_found = true;
        break;
      }
    }
    if (!tree_found) {
      return fail("sampled trace covers service/shard/window/wire layers");
    }
  }
  // TRACE opcode: recent scope is Chrome trace-event JSON, flight scope
  // the always-on recorder's text dump.
  auto trace_json = client_a.Trace();
  if (!trace_json.has_value() ||
      trace_json->find("traceEvents") == std::string::npos) {
    return fail("TRACE recent (Chrome JSON)");
  }
  auto flight = client_a.Trace(TraceScope::kFlight);
  if (!flight.has_value()) return fail("TRACE flight");
  if (trace_json->find("window_merge") == std::string::npos) {
    return fail("TRACE recent carries the window_merge span");
  }
  if (flight->find("request") == std::string::npos) {
    return fail("TRACE flight carries request spans");
  }

  auto ring = client_a.Snapshot(QueryScope::kWindow);
  if (!ring.has_value() || ring->empty()) return fail("windowed SNAPSHOT");
  if (!client_b.Restore(*ring, QueryScope::kWindow)) {
    return fail("windowed RESTORE");
  }
  auto win_b = client_b.QuerySum(PredicateSpec(), QueryScope::kWindow);
  if (!win_b.has_value()) return fail("windowed QUERY_SUM on replica");
  if (win_b->estimate != win_all->estimate) {
    return fail("windowed replica total == primary total");
  }
  auto win_b_last = client_b.QuerySum(PredicateSpec(), QueryScope::kWindow,
                                      /*last_k=*/1);
  if (!win_b_last.has_value() ||
      win_b_last->estimate != win_last->estimate) {
    return fail("windowed replica last_k=1 == primary last_k=1");
  }
  auto stats_a = client_a.Stats();
  if (!stats_a.has_value() ||
      stats_a->windowed_rows_ingested != window_rows ||
      stats_a->window_epoch != kEpochs - 1) {
    return fail("windowed STATS");
  }
  if (stats_a->traces_captured_total == 0) {
    return fail("STATS traces_captured_total after sampled requests");
  }

  // METRICS hop: the exposition must show the smoke's own traffic.
  // First stir the window merge cache deliberately: last_k=2 decomposes
  // to a level-0 node the earlier full-window query already cached (a
  // node-cache hit), and after an open-epoch ingest the repeat of
  // last_k=2 patches the closed-span sums that query memoized (a memo
  // hit).
  auto win_last2 = client_a.QuerySum(PredicateSpec(), QueryScope::kWindow,
                                     /*last_k=*/2);
  if (!win_last2.has_value() ||
      win_last2->estimate != static_cast<double>(2 * kRowsPerEpoch)) {
    return fail("windowed QUERY_SUM last_k=2");
  }
  const std::vector<uint64_t> open_rows = {(kEpochs - 1) * 10000 + 1,
                                           (kEpochs - 1) * 10000 + 2};
  if (!client_a.IngestWindowed(open_rows, kEpochs - 1)) {
    return fail("windowed INGEST_BATCH into the open epoch");
  }
  auto win_last2b = client_a.QuerySum(PredicateSpec(), QueryScope::kWindow,
                                      /*last_k=*/2);
  if (!win_last2b.has_value() ||
      win_last2b->estimate !=
          static_cast<double>(2 * kRowsPerEpoch + open_rows.size())) {
    return fail("windowed QUERY_SUM last_k=2 after open-epoch ingest");
  }
  auto metrics = client_a.Metrics();
  if (!metrics.has_value() || metrics->empty()) return fail("METRICS");
  const std::string requests = "dsketch_service_requests_total";
  if (MetricFromText(*metrics, requests + "{opcode=\"ingest_batch\"}") <= 0 ||
      MetricFromText(*metrics, requests + "{opcode=\"query_sum\"}") <= 0 ||
      MetricFromText(*metrics, requests + "{opcode=\"snapshot\"}") <= 0) {
    return fail("METRICS nonzero request counters");
  }
  if (MetricFromText(*metrics,
                     "dsketch_service_request_latency_us_count"
                     "{opcode=\"query_sum\"}") <= 0) {
    return fail("METRICS nonzero query latency histogram");
  }
  // Span histograms: the windowed queries above merged the fleet and
  // assembled window views, and every response went out through the
  // serve loop's write span.
  if (MetricFromText(*metrics, "dsketch_shard_snapshot_merge_us_count") <= 0 ||
      MetricFromText(*metrics, "dsketch_window_merge_us_count") <= 0 ||
      MetricFromText(*metrics, "dsketch_wire_response_write_us_count") <= 0) {
    return fail("METRICS nonzero span histograms");
  }
  if (MetricFromText(*metrics, "dsketch_window_node_cache_hits_total") <= 0 ||
      MetricFromText(*metrics, "dsketch_window_node_cache_misses_total") <= 0 ||
      MetricFromText(*metrics, "dsketch_window_combine_memo_hits_total") <= 0) {
    return fail("METRICS window merge-cache movement");
  }
  if (MetricFromText(*metrics,
                     "dsketch_shard_rows_ingested_total{shard=\"0\"}") <= 0) {
    return fail("METRICS shard ingest counters");
  }
  if (metrics->find("dsketch_util_build_info{") == std::string::npos) {
    return fail("METRICS allocator/build info gauge");
  }
  // Scope filter: a window-scoped dump carries window families only.
  auto scoped = client_a.Metrics(MetricsScope::kWindow);
  if (!scoped.has_value() || scoped->empty() ||
      scoped->find("dsketch_service_") != std::string::npos ||
      scoped->find("dsketch_window_") == std::string::npos) {
    return fail("METRICS window scope filter");
  }

  // Frozen-replica hop: A emits the frozen mmap-able image, the image
  // goes to disk, a replica node mmaps the file and answers with zero
  // decode. The reference answers come from a node that THAWED the same
  // image (restored it through the normal path), so this asserts the
  // tentpole bit-identity contract: frozen answers == thawed answers.
  auto frozen = client_a.Snapshot(QueryScope::kCounts, /*frozen=*/true);
  if (!frozen.has_value() || frozen->empty()) return fail("frozen SNAPSHOT");
  auto stats_fa = client_a.Stats();
  if (!stats_fa.has_value() ||
      stats_fa->last_snapshot_format != SnapshotFormat::kFrozen ||
      stats_fa->last_snapshot_bytes != frozen->size()) {
    return fail("STATS last_snapshot_format/bytes after frozen SNAPSHOT");
  }
  const std::string image_path =
      "dsketchd_smoke_frozen_" +
      std::to_string(static_cast<unsigned>(options.seed)) + ".bin";
  {
    std::FILE* f = std::fopen(image_path.c_str(), "wb");
    if (f == nullptr) return fail("frozen image fopen");
    const bool wrote =
        std::fwrite(frozen->data(), 1, frozen->size(), f) == frozen->size();
    std::fclose(f);
    if (!wrote) return fail("frozen image fwrite");
  }
  std::optional<FrozenSketchSource> image =
      FrozenSketchSource::FromFile(image_path);
  if (!image.has_value() || !image->Validate()) {
    std::remove(image_path.c_str());
    return fail("frozen image map + vet");
  }
  {
    Node node_r(options, &*image);
    SketchClient& client_r = node_r.client;

    // Thawed reference: a fresh node restores the SAME frozen bytes
    // through the O(n) path (RESTORE accepts the frozen kind).
    SketchServerOptions options_c = options;
    options_c.shard.seed += 200;
    options_c.seed += 200;
    Node node_c(options_c);
    SketchClient& client_c = node_c.client;
    if (!client_c.Restore(*frozen)) return fail("RESTORE of frozen blob");

    auto sum_r = client_r.QuerySum();
    auto sum_c = client_c.QuerySum();
    if (!sum_r.has_value() || !sum_c.has_value()) {
      return fail("QUERY_SUM on frozen replica");
    }
    if (sum_r->estimate != sum_c->estimate ||
        sum_r->variance != sum_c->variance ||
        sum_r->items_in_sample != sum_c->items_in_sample) {
      return fail("frozen SUM bit-identical to thawed SUM");
    }
    auto topk_r = client_r.QueryTopK(10);
    auto topk_c = client_c.QueryTopK(10);
    if (!topk_r.has_value() || !topk_c.has_value() ||
        topk_r->counts.size() != topk_c->counts.size()) {
      return fail("QUERY_TOPK on frozen replica");
    }
    for (size_t i = 0; i < topk_r->counts.size(); ++i) {
      if (topk_r->counts[i].item != topk_c->counts[i].item ||
          topk_r->counts[i].count != topk_c->counts[i].count) {
        return fail("frozen TOPK bit-identical to thawed TOPK");
      }
    }
    // The replica is read-only: ingest and restore must be refused.
    if (client_r.IngestBatch(std::vector<uint64_t>{1, 2, 3})) {
      return fail("replica rejects INGEST_BATCH");
    }
    if (client_r.Restore(*blob)) return fail("replica rejects RESTORE");
    // A replica's snapshot is the image itself, byte for byte.
    auto refrozen = client_r.Snapshot();
    if (!refrozen.has_value() || *refrozen != *frozen) {
      return fail("replica SNAPSHOT re-serves the image");
    }
    auto stats_r = client_r.Stats();
    if (!stats_r.has_value() ||
        stats_r->total_count != static_cast<int64_t>(rows.size())) {
      return fail("replica STATS total_count off the image header");
    }
    // Replicas serve TRACE too — observability never requires a writer.
    auto trace_r = client_r.Trace();
    if (!trace_r.has_value() ||
        trace_r->find("traceEvents") == std::string::npos) {
      return fail("TRACE on frozen replica");
    }
    if (!client_r.Shutdown()) return fail("SHUTDOWN replica node");
    if (!client_c.Shutdown()) return fail("SHUTDOWN thawed node");
  }
  std::remove(image_path.c_str());

  if (!client_a.Shutdown()) return fail("SHUTDOWN node A");
  if (!client_b.Shutdown()) return fail("SHUTDOWN node B");

  std::printf(
      "smoke: OK — %zu rows ingested, top-1 item %llu, %zu snapshot bytes "
      "replicated, replica total %.0f; windowed: %zu rows over %zu epochs, "
      "%zu ring bytes replicated, replica window total %.0f; frozen: %zu "
      "image bytes served via mmap=%d, zero-decode answers bit-identical\n",
      rows.size(),
      static_cast<unsigned long long>(topk_a->counts.front().item),
      blob->size(), sum_b->estimate, window_rows, kEpochs, ring->size(),
      win_b->estimate, frozen->size(), image->backed_by_mmap() ? 1 : 0);
  return 0;
}

int Run(int argc, char** argv) {
  SketchServerOptions options = MakeOptions(argc, argv);
  // Flag validation before any server boots: a bad value must be a
  // usage error on stderr, not a DSKETCH_CHECK abort mid-startup.
  if (options.epoch_interval_ms < 0) {
    std::fprintf(stderr,
                 "dsketchd: --epoch-interval-ms must be >= 0 (got %lld)\n",
                 static_cast<long long>(options.epoch_interval_ms));
    return 2;
  }
  if (options.slow_request_us < 0) {
    std::fprintf(stderr,
                 "dsketchd: --slow-request-us must be >= 0 (got %lld)\n",
                 static_cast<long long>(options.slow_request_us));
    return 2;
  }
  if (options.trace_sample < 0) {
    std::fprintf(stderr,
                 "dsketchd: --trace-sample must be >= 0 (got %lld)\n",
                 static_cast<long long>(options.trace_sample));
    return 2;
  }
  const int64_t metrics_interval_ms =
      FlagInt(argc, argv, "metrics-interval-ms", 0);
  if (metrics_interval_ms < 0) {
    std::fprintf(stderr,
                 "dsketchd: --metrics-interval-ms must be >= 0 (got %lld)\n",
                 static_cast<long long>(metrics_interval_ms));
    return 2;
  }
  // Postmortem hook: a CHECK failure or fatal signal from here on dumps
  // the flight recorder's newest spans to stderr before the abort.
  obs::InstallTraceFatalHandlers();

  if (FlagSet(argc, argv, "smoke")) return RunSmoke(options);

  // Covers both writer and replica modes below; inert at interval 0.
  TelemetryExporter exporter(metrics_interval_ms,
                             FlagStr(argc, argv, "metrics-file", ""),
                             FlagStr(argc, argv, "trace-file", ""));

  const std::string replica_path = FlagStr(argc, argv, "replica", "");
  if (!replica_path.empty()) {
    // Read-replica mode: mmap the frozen image, vet it structurally
    // (O(1)), then deep-validate the content once (O(n)) — the file is
    // untrusted input, and a replica must not serve answers off an image
    // whose header disagrees with its entries.
    std::optional<FrozenSketchSource> image =
        FrozenSketchSource::FromFile(replica_path);
    if (!image.has_value()) {
      std::fprintf(stderr,
                   "dsketchd: --replica: %s is not a readable frozen image\n",
                   replica_path.c_str());
      return 2;
    }
    if (!image->Validate()) {
      std::fprintf(stderr,
                   "dsketchd: --replica: %s failed content validation\n",
                   replica_path.c_str());
      return 2;
    }
    std::fprintf(
        stderr,
        "dsketchd: replica mode: %s — %zu bytes, %llu entries, "
        "total_count %lld, snapshot format frozen, backed_by_mmap=%d\n",
        replica_path.c_str(), image->frozen().bytes().size(),
        static_cast<unsigned long long>(image->frozen().entry_count()),
        static_cast<long long>(image->frozen().total_count()),
        image->backed_by_mmap() ? 1 : 0);
    FdTransport stdio(/*read_fd=*/0, /*write_fd=*/1);
    SketchServer server(options, &*image, nullptr);
    server.Serve(stdio);
    return 0;
  }

  // Serve the framed protocol on stdin/stdout until EOF or SHUTDOWN.
  FdTransport stdio(/*read_fd=*/0, /*write_fd=*/1);
  SketchServer server(options);
  server.Serve(stdio);
  return 0;
}

}  // namespace
}  // namespace dsketch

int main(int argc, char** argv) { return dsketch::Run(argc, argv); }
