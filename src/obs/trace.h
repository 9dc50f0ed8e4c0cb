// Request-scoped tracing and an always-on flight recorder.
//
// Where obs/metrics.h answers "how much, how slow in aggregate", this
// layer answers "why was this one request slow": every request through
// SketchServer::HandleRequest opens a root span, and the layers it
// touches (frame decode, shard enqueue/drain, snapshot merge, window
// merge-cache assembly, query reduction, wire encode, response write)
// open child spans. Two sinks consume the spans:
//
//   * The flight recorder — a process-wide, lock-free, fixed-capacity
//     ring of completed spans. Always on: every finished span lands
//     here with a handful of relaxed atomic stores, overwriting the
//     oldest. On a CHECK failure or fatal signal the last events are
//     dumped to stderr (InstallTraceFatalHandlers), so an abort leaves
//     a postmortem even when nobody was sampling.
//   * Sampled traces — when sampling is configured (every Nth request
//     and/or tail sampling of every request slower than slow_request_us)
//     the full span tree of a kept request is published to a small
//     recent-traces ring, exported as Chrome trace-event JSON
//     (Perfetto / chrome://tracing loadable) or a compact text dump via
//     the TRACE opcode and `dsketchd --trace-file`.
//
// Spans are also the service's one clock. Every ScopedSpan, traced or
// not, records its duration into the histogram
// `dsketch_<layer>_<name>_us` (the `<layer>_` prefix is not repeated when
// the name already starts with it: "shard_drain" in kShard feeds
// `dsketch_shard_drain_us`), and the root ScopedTrace hands its duration
// to the server as the request latency. Only the flight recorder and
// sampled capture need an open trace.
//
// Cost model: a span reads the steady clock twice and records three
// relaxed atomic adds into its histogram. Each thread resolves a call
// site's histogram once (keyed by the name literal's address), so the
// registry mutex is taken only on a site's first span on a thread.
// Under an open trace a span close adds ~a dozen release stores (plain
// moves on x86) into the flight recorder plus, when sampling is on, one
// bounded vector append.
//
// Threading: trace context is thread_local (one request pipeline per
// serving thread — SketchServer's model). The flight recorder accepts
// concurrent producers from any thread: a relaxed fetch_add hands out
// slot tickets and each slot is a small seqlock — the producer swings
// the slot's stamp to an in-progress sentinel (CAS; the loser drops its
// span), release-stores the payload, then release-publishes ticket + 1,
// and readers acquire-load the payload and re-check the stamp — so
// dumps taken under fire discard in-progress or overwritten slots
// instead of tearing. The recent-traces ring is mutex-guarded — it is
// only touched at publish/scrape time, never per span.

#ifndef DSKETCH_OBS_TRACE_H_
#define DSKETCH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dsketch {
namespace obs {

class Histogram;

/// Which layer of the serving stack a span measures (exported as the
/// Chrome trace-event category).
enum class TraceLayer : uint8_t {
  kService = 0,
  kShard = 1,
  kWindow = 2,
  kQuery = 3,
  kWire = 4,
};

/// Stable lowercase name of `layer` ("service", "shard", ...).
const char* TraceLayerName(TraceLayer layer);

/// One key=value span annotation. Keys must be string literals (or
/// otherwise immortal) — spans outlive the scope that annotated them.
struct SpanAnnotation {
  const char* key = nullptr;
  uint64_t value = 0;
};

/// One completed span: a named, layered [start, end] interval on the
/// process-wide steady microsecond clock, linked to its trace and
/// parent span. Plain value type; safe to copy and export.
struct Span {
  static constexpr size_t kMaxAnnotations = 6;

  const char* name = "";  ///< string literal
  TraceLayer layer = TraceLayer::kService;
  uint64_t trace_id = 0;
  uint32_t span_id = 0;    ///< unique within the trace, 1 = root
  uint32_t parent_id = 0;  ///< 0 = root span
  uint64_t start_us = 0;   ///< steady clock, µs since process start
  uint64_t end_us = 0;
  SpanAnnotation annotations[kMaxAnnotations];
  uint32_t num_annotations = 0;
};

/// Microseconds on the trace clock (steady, anchored at first use — all
/// spans in a process share it, so exported timestamps interleave).
uint64_t TraceNowUs();

/// Stable trace id derived from a protocol request id (splitmix64 mix,
/// so sequential request ids spread across the id space).
uint64_t TraceIdFromRequestId(uint64_t request_id);

/// The always-on ring of completed spans. Fixed capacity (a power of
/// two), overwrite-oldest, lock-free for producers. Dump() returns the
/// surviving spans oldest-first; slots a concurrent producer was
/// mid-write on are discarded, never torn.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  /// `capacity` must be a power of two.
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every ScopedSpan/ScopedTrace records into.
  static FlightRecorder& Global();

  /// Records one completed span (any thread; lock-free). When two
  /// producers a full ring lap apart land on the same slot, the later
  /// claimant drops its span — a dump never sees a torn one.
  void Record(const Span& span);

  /// Spans currently in the ring, oldest-first. Torn slots (a producer
  /// racing the dump) are skipped.
  std::vector<Span> Dump() const;

  /// Spans ever recorded.
  uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Spans no longer retrievable — overwritten by newer ones or dropped
  /// at claim time (recorded() minus the ring's capacity) — the STATS
  /// flight_recorder_dropped_total counter.
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }

  size_t capacity() const { return capacity_; }

  /// Writes the newest `last_n` spans to stderr using only
  /// async-signal-safe calls (write(2), no allocation, no locks) — the
  /// fatal-path postmortem dump.
  void DumpToStderr(size_t last_n) const;

 private:
  struct Slot;

  // Seqlock read of one slot: copies the payload into *out and returns
  // true only when the stamp matched `ticket + 1` both before and after
  // the copy (no producer touched the slot mid-read). Atomic loads and
  // a stack copy only — async-signal-safe, shared by Dump() and the
  // fatal-path DumpToStderr().
  bool CopySlot(const Slot& slot, uint64_t ticket, Span* out) const;

  const size_t capacity_;  // power of two
  std::atomic<uint64_t> head_{0};
  std::unique_ptr<Slot[]> slots_;
};

/// One sampled request: its trace id and full span set (children close
/// before the root, so the root span is last).
struct TraceRecord {
  uint64_t trace_id = 0;
  std::vector<Span> spans;
};

/// Sampling configuration (all zero = sampling off; the flight recorder
/// runs regardless).
struct TraceConfig {
  /// > 0: capture every Nth request (1 = every request).
  uint32_t sample_every = 0;
  /// > 0: tail sampling — every request whose root span lasted at least
  /// this many µs is captured in full, however the Nth dice fell.
  int64_t slow_request_us = 0;
};

/// Global sampling policy plus the mutex-guarded ring of recently
/// captured traces (the TRACE opcode's kRecent scope).
class TraceCollector {
 public:
  static constexpr size_t kMaxRecent = 16;

  TraceCollector();
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  static TraceCollector& Global();

  void Configure(const TraceConfig& config);
  TraceConfig config() const;

  /// True when any sampling knob is set (per-request span buffering is
  /// skipped entirely otherwise).
  bool sampling_enabled() const {
    return sample_every_.load(std::memory_order_relaxed) > 0 ||
           slow_request_us_.load(std::memory_order_relaxed) > 0;
  }

  /// Advances the every-Nth counter by one request and reports whether
  /// this request is the Nth. Call exactly once per finished trace.
  bool NextSampleTick();

  /// Appends a captured trace to the recent ring (oldest evicted past
  /// kMaxRecent) and bumps traces_captured().
  void Publish(TraceRecord record);

  /// Recently captured traces, oldest-first.
  std::vector<TraceRecord> Recent() const;

  /// Traces published so far — the STATS traces_captured_total counter.
  uint64_t traces_captured() const {
    return captured_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> sample_every_{0};
  std::atomic<int64_t> slow_request_us_{0};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> captured_{0};
  mutable std::mutex mu_;
  std::deque<TraceRecord> recent_;
};

/// Root span of one request. Opening marks the thread's trace context
/// active (nested ScopedSpans attach underneath); closing records the
/// root to the flight recorder and — when sampling kept the request —
/// stages the full span tree for publication. The staged trace is
/// published by the next FlushPendingTrace() (or the next ScopedTrace
/// on this thread), which lets the serve loop attach the response-write
/// span after HandleRequest returned. A root opened while another is
/// open on the thread (a nested HandleRequest) records nothing but still
/// times itself.
class ScopedTrace {
 public:
  explicit ScopedTrace(const char* name,
                       TraceLayer layer = TraceLayer::kService);
  ~ScopedTrace() { Close(); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  /// Overrides the provisional trace id (e.g. with
  /// TraceIdFromRequestId once the envelope decoded). Applies to every
  /// span of this trace, including ones already closed.
  void SetTraceId(uint64_t trace_id);

  /// Annotates the root span (up to Span::kMaxAnnotations; extras are
  /// dropped). `key` must be a string literal.
  void Annotate(const char* key, uint64_t value);

  /// Ends the root span and returns its duration in µs, the number tail
  /// sampling judged. Later calls (and the destructor) return the same
  /// duration without recording again.
  uint64_t Close();

 private:
  Span root_;
  bool open_ = true;
};

/// One timed child span; on close it records its duration into its
/// `dsketch_<layer>_<name>_us` histogram. `name` must be a string
/// literal: its address keys the thread's histogram cache. With no trace
/// open on this thread nothing else is recorded. After the thread's root
/// trace closed but before FlushPendingTrace(), a new span still attaches
/// to the pending trace as a child of its root — how the serve loop's
/// response-write span joins the request that produced it.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, TraceLayer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Annotates this span (up to Span::kMaxAnnotations; extras are
  /// dropped). `key` must be a string literal.
  void Annotate(const char* key, uint64_t value);

 private:
  enum class Mode : uint8_t { kUntraced, kActive, kPending };
  Mode mode_ = Mode::kUntraced;
  Histogram* hist_;
  Span span_;
};

/// Publishes the thread's staged trace (if any) to
/// TraceCollector::Global(). Safe to call when nothing is pending.
void FlushPendingTrace();

// --- exporters --------------------------------------------------------

/// Chrome trace-event JSON ({"traceEvents":[...]}) over the captured
/// traces: one complete ("ph":"X") event per span, categorized by
/// layer, each trace on its own tid so Perfetto lays requests out as
/// separate tracks. Deterministic given the spans (golden-testable).
std::string TraceToChromeJson(const std::vector<TraceRecord>& traces);

/// Compact text dump of captured traces: one header line per trace, one
/// indented line per span with [start..end] µs, ids, and annotations.
std::string TraceToText(const std::vector<TraceRecord>& traces);

/// Compact text dump of bare spans (the flight recorder's Dump()).
std::string SpansToText(const std::vector<Span>& spans);

// --- fatal-path postmortem --------------------------------------------

/// Number of flight-recorder spans the fatal-path dump emits.
inline constexpr size_t kFatalDumpSpans = 32;

/// Installs the crash postmortem: a CHECK-failure hook (util/logging.h)
/// and SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that dump the flight
/// recorder's last kFatalDumpSpans events to stderr before the process
/// dies. Idempotent; call once at process startup (dsketchd does).
void InstallTraceFatalHandlers();

}  // namespace obs
}  // namespace dsketch

#endif  // DSKETCH_OBS_TRACE_H_
