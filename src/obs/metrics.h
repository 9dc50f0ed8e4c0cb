// Runtime telemetry for the serving stack: hot-path-cheap counters,
// gauges, and latency histograms behind a process-wide named registry,
// with a Prometheus-style text exposition (DumpMetricsText, the METRICS
// opcode, and `dsketchd --metrics-interval-ms`).
//
// Cost model — safe to call from ingest workers and the serve loop:
//
//   * Counter/Gauge/Histogram updates are single relaxed atomic RMWs
//     (3 for a histogram record). No locks, no allocation, no fences.
//     Recording is always compiled in: the service's trace-overhead
//     measurement puts the whole telemetry layer at about 1% of a
//     request (bench_service `trace_overhead`).
//   * Registration (MetricsRegistry::Get*) takes a mutex and may
//     allocate; callers cache the returned reference (function-local
//     static, a stored pointer, or ScopedSpan's per-thread site cache in
//     obs/trace.h) so the hot path never re-registers.
//   * Snapshot/DumpText take the registry mutex only to walk the name
//     table; metric reads are relaxed loads, so a snapshot taken under
//     concurrent traffic is per-value atomic but not a consistent cut
//     (a histogram's count may briefly disagree with its bucket sum).
//
// Naming: the full exposition name — family plus an optional literal
// label set — IS the registry key, e.g.
//
//   dsketch_service_requests_total{opcode="query_sum"}
//
// Families group related series (everything up to '{'); the text dump
// emits one `# TYPE` line per family and scope filters select by family
// prefix (`dsketch_service_`, `dsketch_window_`, ...). Units ride the
// name suffix by convention: `_total` monotone counts, `_bytes_total`
// byte counts, `_us` microsecond histograms. Durations come from spans
// (obs/trace.h): each span feeds `dsketch_<layer>_<name>_us`.
//
// Registering the same name twice with the same kind returns the same
// instance (so independent call sites may share a series); re-using a
// name with a different kind is a programmer error and CHECK-fails.

#ifndef DSKETCH_OBS_METRICS_H_
#define DSKETCH_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dsketch {
namespace obs {

/// Series kinds a registry name can hold (part of the text exposition).
enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// Always "on": every build records metrics. Kept because bench headers
/// and the `dsketch_util_build_info{metrics=...}` gauge still print it.
inline constexpr const char* MetricsBuildMode() { return "on"; }

/// Monotone event count. Relaxed-atomic; safe from any thread.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written signed value (queue depths, info flags, high-water
/// marks via RaiseTo). Relaxed-atomic; safe from any thread.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Monotone max: raises the gauge to `v` if `v` is larger (high-water
  /// marks under concurrent writers).
  void RaiseTo(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time copy of a histogram, with the percentile math the
/// benches and METRICS consumers share. Subtract two snapshots (Since)
/// to get the distribution of an interval.
struct HistogramSnapshot {
  static constexpr size_t kNumBuckets = 64;

  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;

  /// Upper bound of bucket `i`: values v with
  /// BucketUpperBound(i-1) < v <= BucketUpperBound(i) land in bucket i.
  /// Bucket 0 holds [0, 1]; the last bucket is the +Inf overflow
  /// (anything above 2^62).
  static uint64_t BucketUpperBound(size_t i);

  /// Bucket index `value` records into (exact inverse of the bounds
  /// above): 0 for v <= 1, otherwise ceil(log2(v)) capped at the
  /// overflow bucket.
  static size_t BucketIndex(uint64_t value);

  /// Percentile estimate for p in [0, 100]: rank r = p/100 * count, the
  /// first bucket whose cumulative count reaches r answers, linearly
  /// interpolated between its bounds by the rank's position within the
  /// bucket. 0 when the histogram is empty; the overflow bucket
  /// interpolates toward 2^63. Exact when all samples share a bucket's
  /// upper bound; otherwise resolution is the power-of-two bucket width.
  double Percentile(double p) const;

  /// This snapshot minus `earlier` (per-bucket, count, sum): the
  /// distribution of everything recorded between the two.
  HistogramSnapshot Since(const HistogramSnapshot& earlier) const;
};

/// Power-of-two-bucket histogram of non-negative integer samples
/// (latencies in µs, sizes in bytes). 64 buckets with bounds
/// 1, 2, 4, ..., 2^62, +Inf; recording is 3 relaxed RMWs.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = HistogramSnapshot::kNumBuckets;

  void Record(uint64_t value) {
    buckets_[HistogramSnapshot::BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// One read-side value from a registry walk.
struct MetricValue {
  std::string name;  ///< full registered name (family + labels)
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;       ///< kCounter
  int64_t gauge = 0;          ///< kGauge
  HistogramSnapshot hist;     ///< kHistogram
};

/// Named metric table. Get* registers on first use and returns a
/// reference that stays valid for the registry's lifetime (the global
/// registry never dies), so call sites cache it once and update
/// lock-free forever after.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem instruments into.
  static MetricsRegistry& Global();

  /// Registers (or finds) a series. CHECK-fails if `name` is empty or
  /// already registered with a different kind.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Read-only lookups: nullptr when `name` is absent or a different
  /// kind (tests and benches peek without creating).
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  /// Values of every series whose name starts with `prefix` (empty =
  /// all), sorted by name.
  std::vector<MetricValue> Snapshot(std::string_view prefix = {}) const;

  /// Prometheus-style text exposition of Snapshot(prefix): one `# TYPE`
  /// line per family, histograms expanded to cumulative `_bucket{le=}` /
  /// `_sum` / `_count` series (all-zero leading/trailing buckets are
  /// elided; the `+Inf` bucket always emits). Deterministic: sorted by
  /// name, values rendered as integers.
  std::string DumpText(std::string_view prefix = {}) const;

  /// Registered series count (tests).
  size_t size() const;

 private:
  struct Entry;
  Entry& GetEntry(std::string_view name, MetricKind kind);
  const Entry* FindEntry(std::string_view name, MetricKind kind) const;

  mutable std::mutex mu_;
  // Stable addresses for the metric objects; sorted iteration gives the
  // exposition its deterministic order.
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> metrics_;
};

/// `MetricsRegistry::Global().DumpText(prefix)` — the embedding API
/// (also what the METRICS opcode and dsketchd's exposition thread
/// serve).
std::string DumpMetricsText(std::string_view prefix = {});

}  // namespace obs
}  // namespace dsketch

#endif  // DSKETCH_OBS_METRICS_H_
