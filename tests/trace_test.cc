// Request tracing and flight recorder (obs/trace.h): ring exactness
// including wraparound, concurrent producers (the tsan job runs this
// suite), span nesting and the pending-trace hand-off, sampling policy,
// and golden-pinned exporter output. The fatal-path test is a death
// test (the suite registers with the threadsafe death-test style).

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dsketch {
namespace obs {
namespace {

Span MakeSpan(const char* name, TraceLayer layer, uint64_t trace_id,
              uint32_t span_id, uint32_t parent_id, uint64_t start_us,
              uint64_t end_us) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_id = parent_id;
  span.start_us = start_us;
  span.end_us = end_us;
  return span;
}

TEST(TraceTest, LayerNamesAreStable) {
  EXPECT_STREQ(TraceLayerName(TraceLayer::kService), "service");
  EXPECT_STREQ(TraceLayerName(TraceLayer::kShard), "shard");
  EXPECT_STREQ(TraceLayerName(TraceLayer::kWindow), "window");
  EXPECT_STREQ(TraceLayerName(TraceLayer::kQuery), "query");
  EXPECT_STREQ(TraceLayerName(TraceLayer::kWire), "wire");
}

TEST(TraceTest, TraceIdFromRequestIdIsStableNonzeroAndSpreads) {
  EXPECT_EQ(TraceIdFromRequestId(1), TraceIdFromRequestId(1));
  EXPECT_NE(TraceIdFromRequestId(1), TraceIdFromRequestId(2));
  // Sequential request ids must land far apart (the splitmix orbit),
  // and no input may map to the reserved 0.
  for (uint64_t id = 0; id < 1000; ++id) {
    EXPECT_NE(TraceIdFromRequestId(id), 0u);
  }
}

TEST(FlightRecorderTest, RecordsAndDumpsOldestFirst) {
  FlightRecorder recorder(8);
  Span span = MakeSpan("alpha", TraceLayer::kShard, 0xabc, 2, 1, 10, 25);
  span.annotations[0] = {"rows", 512};
  span.num_annotations = 1;
  recorder.Record(span);
  recorder.Record(MakeSpan("beta", TraceLayer::kQuery, 0xabc, 3, 1, 26, 30));

  std::vector<Span> spans = recorder.Dump();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "alpha");
  EXPECT_EQ(spans[0].layer, TraceLayer::kShard);
  EXPECT_EQ(spans[0].trace_id, 0xabcu);
  EXPECT_EQ(spans[0].span_id, 2u);
  EXPECT_EQ(spans[0].parent_id, 1u);
  EXPECT_EQ(spans[0].start_us, 10u);
  EXPECT_EQ(spans[0].end_us, 25u);
  ASSERT_EQ(spans[0].num_annotations, 1u);
  EXPECT_STREQ(spans[0].annotations[0].key, "rows");
  EXPECT_EQ(spans[0].annotations[0].value, 512u);
  EXPECT_STREQ(spans[1].name, "beta");
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightRecorderTest, WraparoundKeepsExactlyTheNewest) {
  FlightRecorder recorder(4);
  for (uint64_t i = 0; i < 6; ++i) {
    recorder.Record(MakeSpan("span", TraceLayer::kService, i, 1, 0, i, i + 1));
  }
  std::vector<Span> spans = recorder.Dump();
  // Exactly the capacity survives, oldest-first, and it is exactly the
  // newest four records — 2, 3, 4, 5.
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].trace_id, i + 2) << "slot " << i;
    EXPECT_EQ(spans[i].start_us, i + 2) << "slot " << i;
  }
  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 2u);
}

TEST(FlightRecorderTest, ConcurrentProducersNeverTearASlot) {
  // The tsan job runs this: 4 producers race a reader over a small ring.
  // Every dumped span must be internally consistent (all fields from
  // one Record call — trace_id, span_id, start, end carry one value).
  FlightRecorder recorder(64);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Span& span : recorder.Dump()) {
        const uint64_t v = span.trace_id;
        ASSERT_STREQ(span.name, "race");
        ASSERT_EQ(span.span_id, static_cast<uint32_t>(v % 1000));
        ASSERT_EQ(span.start_us, v);
        ASSERT_EQ(span.end_us, v + 7);
        ASSERT_EQ(span.num_annotations, 1u);
        ASSERT_EQ(span.annotations[0].value, v * 3);
      }
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t v = static_cast<uint64_t>(t) * kPerThread + i;
        Span span = MakeSpan("race", TraceLayer::kShard, v,
                             static_cast<uint32_t>(v % 1000), 1, v, v + 7);
        span.annotations[0] = {"v3", v * 3};
        span.num_annotations = 1;
        recorder.Record(span);
      }
    });
  }
  for (std::thread& p : producers) p.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(recorder.recorded(), kThreads * kPerThread);
  EXPECT_EQ(recorder.dropped(), kThreads * kPerThread - 64);
}

// Sampling state is process-global; every test sets its own policy and
// turns sampling back off on exit.
class ScopedTraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FlushPendingTrace();
    TraceCollector::Global().Configure(TraceConfig{});
  }

  static uint64_t Captured() {
    return TraceCollector::Global().traces_captured();
  }
};

TEST_F(ScopedTraceTest, CapturesNestedSpanTreeWithRetroactiveTraceId) {
  TraceCollector::Global().Configure({/*sample_every=*/1,
                                      /*slow_request_us=*/0});
  const uint64_t want_id = TraceIdFromRequestId(7);
  {
    ScopedTrace trace("request");
    {
      ScopedSpan outer("outer", TraceLayer::kShard);
      ScopedSpan inner("inner", TraceLayer::kShard);
    }
    // The children above already closed: SetTraceId must retag them.
    trace.SetTraceId(want_id);
    ScopedSpan sibling("sibling", TraceLayer::kQuery);
    sibling.Annotate("k", 42);
  }
  FlushPendingTrace();

  std::vector<TraceRecord> recent = TraceCollector::Global().Recent();
  ASSERT_FALSE(recent.empty());
  const TraceRecord& record = recent.back();
  EXPECT_EQ(record.trace_id, want_id);
  // Children close before the root: inner, outer, sibling, then root.
  ASSERT_EQ(record.spans.size(), 4u);
  EXPECT_STREQ(record.spans[0].name, "inner");
  EXPECT_EQ(record.spans[0].span_id, 3u);
  EXPECT_EQ(record.spans[0].parent_id, 2u);
  EXPECT_STREQ(record.spans[1].name, "outer");
  EXPECT_EQ(record.spans[1].span_id, 2u);
  EXPECT_EQ(record.spans[1].parent_id, 1u);
  EXPECT_STREQ(record.spans[2].name, "sibling");
  EXPECT_EQ(record.spans[2].span_id, 4u);
  EXPECT_EQ(record.spans[2].parent_id, 1u);
  ASSERT_EQ(record.spans[2].num_annotations, 1u);
  EXPECT_EQ(record.spans[2].annotations[0].value, 42u);
  EXPECT_STREQ(record.spans[3].name, "request");
  EXPECT_EQ(record.spans[3].span_id, 1u);
  EXPECT_EQ(record.spans[3].parent_id, 0u);
  for (const Span& span : record.spans) {
    EXPECT_EQ(span.trace_id, want_id);
    EXPECT_GE(span.end_us, span.start_us);
  }
}

TEST_F(ScopedTraceTest, PostTraceSpanJoinsTheStagedTrace) {
  TraceCollector::Global().Configure({/*sample_every=*/1,
                                      /*slow_request_us=*/0});
  {
    ScopedTrace trace("request");
  }
  // The trace closed but has not been flushed: a new span (the serve
  // loop's response write) must attach as a child of its root.
  {
    ScopedSpan write("response_write", TraceLayer::kWire);
  }
  FlushPendingTrace();

  std::vector<TraceRecord> recent = TraceCollector::Global().Recent();
  ASSERT_FALSE(recent.empty());
  const TraceRecord& record = recent.back();
  ASSERT_EQ(record.spans.size(), 2u);
  EXPECT_STREQ(record.spans[0].name, "request");
  EXPECT_STREQ(record.spans[1].name, "response_write");
  EXPECT_EQ(record.spans[1].parent_id, 1u);
  EXPECT_EQ(record.spans[1].trace_id, record.trace_id);
}

TEST_F(ScopedTraceTest, ReentrantRootDegradesToNothing) {
  TraceCollector::Global().Configure({/*sample_every=*/1,
                                      /*slow_request_us=*/0});
  {
    ScopedTrace trace("request");
    ScopedTrace nested("inner_request");  // must not corrupt the outer
  }
  FlushPendingTrace();
  std::vector<TraceRecord> recent = TraceCollector::Global().Recent();
  ASSERT_FALSE(recent.empty());
  ASSERT_EQ(recent.back().spans.size(), 1u);
  EXPECT_STREQ(recent.back().spans[0].name, "request");
}

// Each span feeds `dsketch_<layer>_<name>_us`, traced or not.
TEST_F(ScopedTraceTest, SpanRecordsOneSampleIntoItsLayerSeries) {
  Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "dsketch_query_histogram_probe_us");
  const uint64_t before = hist.Count();
  { ScopedSpan span("histogram_probe", TraceLayer::kQuery); }
  EXPECT_EQ(hist.Count(), before + 1);
  {
    ScopedTrace trace("request");
    ScopedSpan span("histogram_probe", TraceLayer::kQuery);
  }
  EXPECT_EQ(hist.Count(), before + 2);
  // A post-trace span (pending hand-off) records too.
  TraceCollector::Global().Configure({/*sample_every=*/1,
                                      /*slow_request_us=*/0});
  { ScopedTrace trace("request"); }
  { ScopedSpan span("histogram_probe", TraceLayer::kQuery); }
  EXPECT_EQ(hist.Count(), before + 3);
}

TEST_F(ScopedTraceTest, SpanNameKeepsItsLayerPrefixOnce) {
  { ScopedSpan span("shard_prefix_probe", TraceLayer::kShard); }
  const Histogram* once = MetricsRegistry::Global().FindHistogram(
      "dsketch_shard_prefix_probe_us");
  ASSERT_NE(once, nullptr);
  EXPECT_EQ(once->Count(), 1u);
  EXPECT_EQ(MetricsRegistry::Global().FindHistogram(
                "dsketch_shard_shard_prefix_probe_us"),
            nullptr);
}

TEST_F(ScopedTraceTest, CloseReturnsTheRootDurationOnce) {
  ScopedTrace trace("request");
  ScopedTrace nested("inner_request");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // A re-entrant root records nothing but still times itself.
  const uint64_t nested_us = nested.Close();
  EXPECT_GE(nested_us, 2000u);
  const uint64_t root_us = trace.Close();
  EXPECT_GE(root_us, nested_us);
  EXPECT_EQ(trace.Close(), root_us);
  EXPECT_EQ(nested.Close(), nested_us);
}

TEST_F(ScopedTraceTest, EveryNthSamplingKeepsExactlyTheNth) {
  TraceCollector::Global().Configure({/*sample_every=*/2,
                                      /*slow_request_us=*/0});
  const uint64_t before = Captured();
  for (int i = 0; i < 4; ++i) {
    { ScopedTrace trace("request"); }
    FlushPendingTrace();
  }
  EXPECT_EQ(Captured() - before, 2u);
}

TEST_F(ScopedTraceTest, TailSamplingKeepsSlowRequestsOnly) {
  TraceCollector::Global().Configure({/*sample_every=*/0,
                                      /*slow_request_us=*/1});
  const uint64_t before = Captured();
  {
    ScopedTrace trace("slow_request");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FlushPendingTrace();
  EXPECT_EQ(Captured() - before, 1u);

  // A threshold far above any test-machine hiccup: the fast request
  // must not be kept.
  TraceCollector::Global().Configure({/*sample_every=*/0,
                                      /*slow_request_us=*/3600000000});
  const uint64_t before_fast = Captured();
  { ScopedTrace trace("fast_request"); }
  FlushPendingTrace();
  EXPECT_EQ(Captured() - before_fast, 0u);
}

TEST_F(ScopedTraceTest, SamplingOffCapturesNothing) {
  TraceCollector::Global().Configure(TraceConfig{});
  const uint64_t before = Captured();
  {
    ScopedTrace trace("request");
    ScopedSpan span("child", TraceLayer::kShard);
  }
  FlushPendingTrace();
  EXPECT_EQ(Captured() - before, 0u);
}

TEST_F(ScopedTraceTest, AnnotationsCapAtSpanLimit) {
  TraceCollector::Global().Configure({/*sample_every=*/1,
                                      /*slow_request_us=*/0});
  {
    ScopedTrace trace("request");
    for (uint64_t i = 0; i < Span::kMaxAnnotations + 3; ++i) {
      trace.Annotate("k", i);
    }
  }
  FlushPendingTrace();
  std::vector<TraceRecord> recent = TraceCollector::Global().Recent();
  ASSERT_FALSE(recent.empty());
  const Span& root = recent.back().spans.back();
  EXPECT_EQ(root.num_annotations, Span::kMaxAnnotations);
  // The first kMaxAnnotations survive; extras are dropped, not wrapped.
  EXPECT_EQ(root.annotations[Span::kMaxAnnotations - 1].value,
            Span::kMaxAnnotations - 1);
}

TEST(TraceExportTest, ChromeJsonMatchesGolden) {
  TraceRecord record;
  record.trace_id = 0x0123456789abcdefULL;
  record.spans.push_back(MakeSpan("frame_decode", TraceLayer::kWire,
                                  record.trace_id, 2, 1, 110, 120));
  Span root = MakeSpan("request", TraceLayer::kService, record.trace_id, 1, 0,
                       100, 250);
  root.annotations[0] = {"opcode", 3};
  root.num_annotations = 1;
  record.spans.push_back(root);

  // Pinned byte-for-byte: Perfetto/chrome://tracing load this format,
  // so a drift here is a consumer-visible change.
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"frame_decode\",\"cat\":\"wire\",\"ph\":\"X\",\"ts\":110,"
      "\"dur\":10,\"pid\":0,\"tid\":0,\"args\":{\"trace_id\":"
      "\"0123456789abcdef\",\"span\":2,\"parent\":1}},\n"
      "{\"name\":\"request\",\"cat\":\"service\",\"ph\":\"X\",\"ts\":100,"
      "\"dur\":150,\"pid\":0,\"tid\":0,\"args\":{\"trace_id\":"
      "\"0123456789abcdef\",\"span\":1,\"parent\":0,\"opcode\":3}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(TraceToChromeJson({record}), expected);

  // A second trace lands on its own tid so requests render as separate
  // Perfetto tracks.
  const std::string two = TraceToChromeJson({record, record});
  EXPECT_NE(two.find("\"tid\":1"), std::string::npos);
}

TEST(TraceExportTest, TextDumpsMatchGolden) {
  TraceRecord record;
  record.trace_id = 0x0123456789abcdefULL;
  Span span = MakeSpan("shard_drain", TraceLayer::kShard, record.trace_id, 2,
                       1, 110, 125);
  span.annotations[0] = {"rows", 4096};
  span.num_annotations = 1;
  record.spans.push_back(span);

  EXPECT_EQ(TraceToText({record}),
            "trace 0123456789abcdef (1 spans)\n"
            "  shard:shard_drain 110..125us (15us) span=2 parent=1 "
            "rows=4096\n");
  EXPECT_EQ(SpansToText(record.spans),
            "[0123456789abcdef] shard:shard_drain 110..125us (15us) "
            "span=2 parent=1 rows=4096\n");
  EXPECT_EQ(TraceToText({}), "");
  EXPECT_EQ(SpansToText({}), "");
}

TEST(TraceExportTest, EmptyChromeJsonIsStillWellFormed) {
  const std::string json = TraceToChromeJson({});
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TraceFatalTest, CheckFailureDumpsFlightRecorder) {
  // The hook dumps the ring to stderr after the CHECK message, before
  // the abort — a crash leaves a postmortem naming the last spans.
  EXPECT_DEATH(
      {
        InstallTraceFatalHandlers();
        FlightRecorder::Global().Record(MakeSpan(
            "doomed_span", TraceLayer::kService, 0x42, 1, 0, 5, 9));
        DSKETCH_CHECK(1 == 2);
      },
      "dsketch flight recorder: last");
}

}  // namespace
}  // namespace obs
}  // namespace dsketch
