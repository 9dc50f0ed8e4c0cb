#include "obs/trace.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include <unistd.h>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dsketch {
namespace obs {

namespace {

// Bounds on the per-thread capture buffer and span nesting. A request
// deeper than kMaxDepth or wider than kMaxSpansPerTrace keeps serving
// (extra spans parent to the root / are dropped from the sampled
// record) — tracing must never be the thing that breaks a request.
constexpr size_t kMaxDepth = 16;
constexpr size_t kMaxSpansPerTrace = 128;

// In-progress sentinel for FlightRecorder slot stamps. Published stamps
// are ticket + 1, so this value is unreachable (head_ would have to
// wrap uint64).
constexpr uint64_t kSlotWriting = ~uint64_t{0};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* TraceLayerName(TraceLayer layer) {
  switch (layer) {
    case TraceLayer::kService:
      return "service";
    case TraceLayer::kShard:
      return "shard";
    case TraceLayer::kWindow:
      return "window";
    case TraceLayer::kQuery:
      return "query";
    case TraceLayer::kWire:
      return "wire";
  }
  return "unknown";
}

uint64_t TraceNowUs() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

uint64_t TraceIdFromRequestId(uint64_t request_id) {
  // Never 0 (0 means "no trace"): the mix only yields 0 for one input,
  // which gets nudged onto a different orbit.
  const uint64_t id = SplitMix64(request_id);
  return id != 0 ? id : SplitMix64(request_id + 1);
}

// --- FlightRecorder ---------------------------------------------------

// Per-slot seqlock. A producer claims the slot by swinging `seq` from
// its last published stamp to kSlotWriting, writes the payload, then
// publishes its ticket + 1 (never 0 = never written). A reader accepts
// a slot only when the stamp equals its ticket + 1 both before and
// after copying the payload, so an in-progress or overwritten slot is
// discarded whole — two producers a full ring lap apart can never
// interleave payloads under one stamp (the CAS loser drops its span).
// Every field is an atomic, so the races tsan could flag are gone by
// construction and consistency rests on the stamp protocol alone.
struct FlightRecorder::Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint8_t> layer{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint32_t> span_id{0};
  std::atomic<uint32_t> parent_id{0};
  std::atomic<uint64_t> start_us{0};
  std::atomic<uint64_t> end_us{0};
  std::atomic<uint32_t> num_annotations{0};
  std::atomic<const char*> ann_key[Span::kMaxAnnotations] = {};
  std::atomic<uint64_t> ann_value[Span::kMaxAnnotations] = {};
};

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity), slots_(new Slot[capacity]) {
  DSKETCH_CHECK(capacity > 0 && (capacity & (capacity - 1)) == 0);
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder& FlightRecorder::Global() {
  // Leaked like the metrics registry: spans may record during static
  // destruction of other objects.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(const Span& span) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & (capacity_ - 1)];
  // Claim the slot: only the producer that swings seq to the sentinel
  // may write. Losing the claim — a producer a full ring lap away is
  // mid-write on this very slot — drops the span rather than
  // interleaving two payloads under one stamp.
  uint64_t prev = slot.seq.load(std::memory_order_relaxed);
  if (prev == kSlotWriting ||
      !slot.seq.compare_exchange_strong(prev, kSlotWriting,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
    return;
  }
  // The payload stores are releases and CopySlot's payload loads are
  // acquires (Boehm, MSPC 2012): a reader that observed any of these
  // stores also observes the claim above, so its stamp re-check fails.
  slot.name.store(span.name, std::memory_order_release);
  slot.layer.store(static_cast<uint8_t>(span.layer),
                   std::memory_order_release);
  slot.trace_id.store(span.trace_id, std::memory_order_release);
  slot.span_id.store(span.span_id, std::memory_order_release);
  slot.parent_id.store(span.parent_id, std::memory_order_release);
  slot.start_us.store(span.start_us, std::memory_order_release);
  slot.end_us.store(span.end_us, std::memory_order_release);
  const uint32_t n_ann =
      span.num_annotations <= Span::kMaxAnnotations
          ? span.num_annotations
          : static_cast<uint32_t>(Span::kMaxAnnotations);
  slot.num_annotations.store(n_ann, std::memory_order_release);
  for (uint32_t i = 0; i < n_ann; ++i) {
    slot.ann_key[i].store(span.annotations[i].key, std::memory_order_release);
    slot.ann_value[i].store(span.annotations[i].value,
                            std::memory_order_release);
  }
  slot.seq.store(ticket + 1, std::memory_order_release);
}

bool FlightRecorder::CopySlot(const Slot& slot, uint64_t ticket,
                              Span* out) const {
  const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
  // A slot whose stamp is not this ticket's was already overwritten by
  // a newer lap, is mid-write (kSlotWriting), or never completed; its
  // payload belongs elsewhere.
  if (seq_before != ticket + 1) return false;
  out->name = slot.name.load(std::memory_order_acquire);
  out->layer =
      static_cast<TraceLayer>(slot.layer.load(std::memory_order_acquire));
  out->trace_id = slot.trace_id.load(std::memory_order_acquire);
  out->span_id = slot.span_id.load(std::memory_order_acquire);
  out->parent_id = slot.parent_id.load(std::memory_order_acquire);
  out->start_us = slot.start_us.load(std::memory_order_acquire);
  out->end_us = slot.end_us.load(std::memory_order_acquire);
  uint32_t n_ann = slot.num_annotations.load(std::memory_order_acquire);
  if (n_ann > Span::kMaxAnnotations) n_ann = Span::kMaxAnnotations;
  out->num_annotations = n_ann;
  for (uint32_t i = 0; i < n_ann; ++i) {
    out->annotations[i].key = slot.ann_key[i].load(std::memory_order_acquire);
    out->annotations[i].value =
        slot.ann_value[i].load(std::memory_order_acquire);
  }
  // Discard torn slots: a producer may have claimed this slot while the
  // fields were being copied. The acquire loads above cannot drift past
  // the stamp re-check, and one that read a producer's release store
  // makes that producer's claim visible to it.
  if (slot.seq.load(std::memory_order_relaxed) != seq_before) return false;
  return out->name != nullptr;
}

std::vector<Span> FlightRecorder::Dump() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t count = head < capacity_ ? head : capacity_;
  std::vector<Span> out;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t ticket = head - count; ticket < head; ++ticket) {
    Span span;
    if (!CopySlot(slots_[ticket & (capacity_ - 1)], ticket, &span)) continue;
    out.push_back(span);
  }
  return out;
}

namespace {

// write(2)-based emit helpers for the fatal path: no allocation, no
// stdio locks, no formatting machinery — async-signal-safe.
void FatalWrite(const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(2, data + off, len - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

void FatalWriteStr(const char* s) { FatalWrite(s, std::strlen(s)); }

void FatalWriteU64(uint64_t v) {
  char buf[20];
  size_t i = sizeof(buf);
  do {
    buf[--i] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  FatalWrite(buf + i, sizeof(buf) - i);
}

void FatalWriteHex64(uint64_t v) {
  static const char kHex[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kHex[v & 0xF];
    v >>= 4;
  }
  FatalWrite(buf, sizeof(buf));
}

}  // namespace

void FlightRecorder::DumpToStderr(size_t last_n) const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t count = head < capacity_ ? head : capacity_;
  if (count > last_n) count = last_n;
  FatalWriteStr("dsketch flight recorder: last ");
  FatalWriteU64(count);
  FatalWriteStr(" of ");
  FatalWriteU64(head);
  FatalWriteStr(" spans\n");
  for (uint64_t ticket = head - count; ticket < head; ++ticket) {
    // Same validated seqlock read as Dump() — a stack copy and atomic
    // loads only, so it stays async-signal-safe and a producer racing
    // the crash can not make the postmortem print a torn span.
    Span span;
    if (!CopySlot(slots_[ticket & (capacity_ - 1)], ticket, &span)) continue;
    FatalWriteStr("  [");
    FatalWriteHex64(span.trace_id);
    FatalWriteStr("] ");
    FatalWriteStr(TraceLayerName(span.layer));
    FatalWriteStr(":");
    FatalWriteStr(span.name);
    FatalWriteStr(" ");
    FatalWriteU64(span.start_us);
    FatalWriteStr("..");
    FatalWriteU64(span.end_us);
    FatalWriteStr("us span=");
    FatalWriteU64(span.span_id);
    FatalWriteStr(" parent=");
    FatalWriteU64(span.parent_id);
    for (uint32_t i = 0; i < span.num_annotations; ++i) {
      if (span.annotations[i].key == nullptr) continue;
      FatalWriteStr(" ");
      FatalWriteStr(span.annotations[i].key);
      FatalWriteStr("=");
      FatalWriteU64(span.annotations[i].value);
    }
    FatalWriteStr("\n");
  }
}

// --- TraceCollector ---------------------------------------------------

TraceCollector::TraceCollector() = default;
TraceCollector::~TraceCollector() = default;

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::Configure(const TraceConfig& config) {
  sample_every_.store(config.sample_every, std::memory_order_relaxed);
  slow_request_us_.store(
      config.slow_request_us > 0 ? config.slow_request_us : 0,
      std::memory_order_relaxed);
}

TraceConfig TraceCollector::config() const {
  TraceConfig out;
  out.sample_every = sample_every_.load(std::memory_order_relaxed);
  out.slow_request_us = slow_request_us_.load(std::memory_order_relaxed);
  return out;
}

bool TraceCollector::NextSampleTick() {
  const uint32_t every = sample_every_.load(std::memory_order_relaxed);
  const uint64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed);
  return every > 0 && tick % every == 0;
}

void TraceCollector::Publish(TraceRecord record) {
  captured_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  recent_.push_back(std::move(record));
  while (recent_.size() > kMaxRecent) recent_.pop_front();
}

std::vector<TraceRecord> TraceCollector::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceRecord>(recent_.begin(), recent_.end());
}

// --- thread-local trace context ---------------------------------------

namespace {

// A span call site's histogram, found by its name literal and layer.
struct SiteHistogram {
  const char* name;
  TraceLayer layer;
  Histogram* hist;
};

struct ThreadTraceState {
  bool active = false;   // a root trace is open on this thread
  bool capture = false;  // buffering spans for possible publication
  uint64_t trace_id = 0;
  uint32_t next_span_id = 1;
  uint32_t parent_stack[kMaxDepth];
  size_t depth = 0;
  std::vector<Span> buffer;  // captured spans of the open trace

  // Staged trace awaiting FlushPendingTrace (see ScopedTrace docs).
  bool pending_valid = false;
  uint64_t pending_trace_id = 0;
  uint32_t pending_root_id = 0;
  std::vector<Span> pending_spans;

  // Span histograms this thread resolved; a handful of call sites, so a
  // linear scan beats hashing.
  std::vector<SiteHistogram> histograms;
};

ThreadTraceState& State() {
  static thread_local ThreadTraceState state;
  return state;
}

// `dsketch_<layer>_<name>_us`, without repeating a `<layer>_` prefix
// the name already has. Registers on a site's first span on this thread.
Histogram& SpanHistogram(ThreadTraceState& st, const char* name,
                         TraceLayer layer) {
  for (const SiteHistogram& site : st.histograms) {
    if (site.name == name && site.layer == layer) return *site.hist;
  }
  const std::string prefix = std::string(TraceLayerName(layer)) + "_";
  std::string_view rest = name;
  if (rest.rfind(prefix, 0) == 0) rest.remove_prefix(prefix.size());
  Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "dsketch_" + prefix + std::string(rest) + "_us");
  st.histograms.push_back({name, layer, &hist});
  return hist;
}

void AddAnnotation(Span* span, const char* key, uint64_t value) {
  if (span->num_annotations >= Span::kMaxAnnotations) return;
  span->annotations[span->num_annotations].key = key;
  span->annotations[span->num_annotations].value = value;
  ++span->num_annotations;
}

// Retroactively applies a trace-id override to already-buffered spans
// (children that closed before the envelope's request id decoded).
void RetagBufferedSpans(ThreadTraceState& st, uint64_t trace_id) {
  for (Span& span : st.buffer) span.trace_id = trace_id;
}

}  // namespace

void FlushPendingTrace() {
  ThreadTraceState& st = State();
  if (!st.pending_valid) return;
  TraceRecord record;
  record.trace_id = st.pending_trace_id;
  record.spans = std::move(st.pending_spans);
  st.pending_spans.clear();
  st.pending_valid = false;
  TraceCollector::Global().Publish(std::move(record));
}

ScopedTrace::ScopedTrace(const char* name, TraceLayer layer) {
  FlushPendingTrace();  // a stale staged trace publishes before reuse
  ThreadTraceState& st = State();
  // Re-entrant root opens (nested HandleRequest in tests) degrade to a
  // plain child span context rather than corrupting the open trace.
  if (st.active) {
    root_.name = nullptr;
    root_.start_us = TraceNowUs();
    return;
  }
  st.active = true;
  st.capture = TraceCollector::Global().sampling_enabled();
  // Provisional id (a fresh trace might never learn a request id):
  // derived from the flight recorder's global span ticket so ids stay
  // unique across threads without coordination.
  st.trace_id = TraceIdFromRequestId(
      FlightRecorder::Global().recorded() * 0x10001ULL + TraceNowUs());
  st.next_span_id = 2;
  st.depth = 0;
  st.parent_stack[st.depth++] = 1;
  st.buffer.clear();
  root_.name = name;
  root_.layer = layer;
  root_.span_id = 1;
  root_.parent_id = 0;
  root_.start_us = TraceNowUs();
}

void ScopedTrace::SetTraceId(uint64_t trace_id) {
  if (root_.name == nullptr) return;
  ThreadTraceState& st = State();
  st.trace_id = trace_id;
  RetagBufferedSpans(st, trace_id);
}

void ScopedTrace::Annotate(const char* key, uint64_t value) {
  if (root_.name == nullptr) return;
  AddAnnotation(&root_, key, value);
}

uint64_t ScopedTrace::Close() {
  if (!open_) return root_.end_us - root_.start_us;
  open_ = false;
  root_.end_us = TraceNowUs();
  const uint64_t latency_us = root_.end_us - root_.start_us;
  if (root_.name == nullptr) return latency_us;
  ThreadTraceState& st = State();
  root_.trace_id = st.trace_id;
  FlightRecorder::Global().Record(root_);
  st.active = false;
  st.depth = 0;
  if (!st.capture) return latency_us;
  st.capture = false;
  TraceCollector& collector = TraceCollector::Global();
  const TraceConfig config = collector.config();
  const bool nth = collector.NextSampleTick();
  const bool slow = config.slow_request_us > 0 &&
                    latency_us >= static_cast<uint64_t>(config.slow_request_us);
  if (!nth && !slow) {
    st.buffer.clear();
    return latency_us;
  }
  if (st.buffer.size() < kMaxSpansPerTrace) st.buffer.push_back(root_);
  st.pending_valid = true;
  st.pending_trace_id = st.trace_id;
  st.pending_root_id = root_.span_id;
  st.pending_spans = std::move(st.buffer);
  st.buffer.clear();
  return latency_us;
}

ScopedSpan::ScopedSpan(const char* name, TraceLayer layer) {
  ThreadTraceState& st = State();
  hist_ = &SpanHistogram(st, name, layer);
  span_.name = name;
  span_.layer = layer;
  if (st.active) {
    mode_ = Mode::kActive;
    span_.span_id = st.next_span_id++;
    span_.parent_id = st.depth > 0 ? st.parent_stack[st.depth - 1] : 0;
    if (st.depth < kMaxDepth) st.parent_stack[st.depth++] = span_.span_id;
  } else if (st.pending_valid) {
    // Post-trace span (e.g. the serve loop's response write): joins the
    // staged trace as a direct child of its root.
    mode_ = Mode::kPending;
    span_.trace_id = st.pending_trace_id;
    span_.span_id = st.next_span_id++;
    span_.parent_id = st.pending_root_id;
  }
  span_.start_us = TraceNowUs();
}

void ScopedSpan::Annotate(const char* key, uint64_t value) {
  if (mode_ == Mode::kUntraced) return;
  AddAnnotation(&span_, key, value);
}

ScopedSpan::~ScopedSpan() {
  span_.end_us = TraceNowUs();
  hist_->Record(span_.end_us - span_.start_us);
  if (mode_ == Mode::kUntraced) return;
  ThreadTraceState& st = State();
  if (mode_ == Mode::kActive) {
    span_.trace_id = st.trace_id;
    // Pop only our own frame: overflowed spans past kMaxDepth never
    // pushed, so the stack top must match before shrinking.
    if (st.depth > 0 && st.parent_stack[st.depth - 1] == span_.span_id) {
      --st.depth;
    }
    FlightRecorder::Global().Record(span_);
    if (st.capture && st.buffer.size() < kMaxSpansPerTrace) {
      st.buffer.push_back(span_);
    }
    return;
  }
  // kPending: the staged trace may have been flushed while this span was
  // open; it still lands in the flight recorder either way.
  FlightRecorder::Global().Record(span_);
  if (st.pending_valid && st.pending_trace_id == span_.trace_id &&
      st.pending_spans.size() < kMaxSpansPerTrace) {
    st.pending_spans.push_back(span_);
  }
}

// --- exporters --------------------------------------------------------

namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendHex64(std::string* out, uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  out->append(buf);
}

void AppendSpanEvent(std::string* out, const Span& span, size_t tid,
                     bool* first) {
  if (!*first) out->append(",\n");
  *first = false;
  out->append("{\"name\":\"");
  out->append(span.name != nullptr ? span.name : "null");
  out->append("\",\"cat\":\"");
  out->append(TraceLayerName(span.layer));
  out->append("\",\"ph\":\"X\",\"ts\":");
  AppendU64(out, span.start_us);
  out->append(",\"dur\":");
  AppendU64(out, span.end_us >= span.start_us ? span.end_us - span.start_us
                                              : 0);
  out->append(",\"pid\":0,\"tid\":");
  AppendU64(out, tid);
  out->append(",\"args\":{\"trace_id\":\"");
  AppendHex64(out, span.trace_id);
  out->append("\",\"span\":");
  AppendU64(out, span.span_id);
  out->append(",\"parent\":");
  AppendU64(out, span.parent_id);
  const uint32_t n_ann = span.num_annotations <= Span::kMaxAnnotations
                             ? span.num_annotations
                             : static_cast<uint32_t>(Span::kMaxAnnotations);
  for (uint32_t i = 0; i < n_ann; ++i) {
    if (span.annotations[i].key == nullptr) continue;
    out->append(",\"");
    out->append(span.annotations[i].key);
    out->append("\":");
    AppendU64(out, span.annotations[i].value);
  }
  out->append("}}");
}

void AppendSpanText(std::string* out, const Span& span, const char* indent) {
  out->append(indent);
  out->append(TraceLayerName(span.layer));
  out->append(":");
  out->append(span.name != nullptr ? span.name : "null");
  out->append(" ");
  AppendU64(out, span.start_us);
  out->append("..");
  AppendU64(out, span.end_us);
  out->append("us (");
  AppendU64(out, span.end_us >= span.start_us ? span.end_us - span.start_us
                                              : 0);
  out->append("us) span=");
  AppendU64(out, span.span_id);
  out->append(" parent=");
  AppendU64(out, span.parent_id);
  const uint32_t n_ann = span.num_annotations <= Span::kMaxAnnotations
                             ? span.num_annotations
                             : static_cast<uint32_t>(Span::kMaxAnnotations);
  for (uint32_t i = 0; i < n_ann; ++i) {
    if (span.annotations[i].key == nullptr) continue;
    out->append(" ");
    out->append(span.annotations[i].key);
    out->append("=");
    AppendU64(out, span.annotations[i].value);
  }
  out->append("\n");
}

}  // namespace

std::string TraceToChromeJson(const std::vector<TraceRecord>& traces) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (size_t t = 0; t < traces.size(); ++t) {
    for (const Span& span : traces[t].spans) {
      AppendSpanEvent(&out, span, t, &first);
    }
  }
  out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

std::string TraceToText(const std::vector<TraceRecord>& traces) {
  std::string out;
  for (const TraceRecord& record : traces) {
    out.append("trace ");
    AppendHex64(&out, record.trace_id);
    out.append(" (");
    AppendU64(&out, record.spans.size());
    out.append(" spans)\n");
    for (const Span& span : record.spans) {
      AppendSpanText(&out, span, "  ");
    }
  }
  return out;
}

std::string SpansToText(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& span : spans) {
    out.append("[");
    AppendHex64(&out, span.trace_id);
    out.append("] ");
    AppendSpanText(&out, span, "");
  }
  return out;
}

// --- fatal-path postmortem --------------------------------------------

namespace {

void FatalDump() {
  FlightRecorder::Global().DumpToStderr(kFatalDumpSpans);
}

void FatalSignalHandler(int signo) {
  FatalWriteStr("dsketch: fatal signal ");
  FatalWriteU64(static_cast<uint64_t>(signo));
  FatalWriteStr("\n");
  FatalDump();
  // Re-raise with the default disposition so the process still dies
  // with the original signal (core dumps, wait statuses stay honest).
  std::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void InstallTraceFatalHandlers() {
  static bool once = [] {
    internal::SetFatalHook(&FatalDump);
    for (int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
      struct sigaction sa;
      std::memset(&sa, 0, sizeof(sa));
      sa.sa_handler = &FatalSignalHandler;
      sigemptyset(&sa.sa_mask);
      sa.sa_flags = SA_RESETHAND;
      sigaction(signo, &sa, nullptr);
    }
    return true;
  }();
  (void)once;
}

}  // namespace obs
}  // namespace dsketch
