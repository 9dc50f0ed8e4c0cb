// svcbench: the end-to-end service benchmark (see README.md).
//
//   svcbench --workload NAME --seed N --seconds S --trace 0|1
//   svcbench --self-check
//
// Measures for about S seconds, in passes: each pass launches a fresh
// server process, preloads it, runs the workload's timed closed loop, and
// verifies the answers against the exact model. The last stdout line is
// the result: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics of the traced
// replay (--trace 1). The exit code is non-zero when any check failed.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "util/flat_map.h"
#include "util/mmap_array.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

// Every per-layer metric a traced run reports (window.node_cache_hit_ratio
// and the shard.* counters only when the library records metrics).
constexpr const char* kLayerMetrics[] = {
    "service.handle_us",         "service.transport_us",
    "service.unexplained_us",    "service.decode_ns_per_row",
    "service.encode_us",         "service.frame_bytes_per_row",
    "shard.enqueue_ns_per_row",  "shard.drain_us",
    "shard.merge_us",            "shard.merges_per_query",
    "shard.queue_highwater_rows", "core.update_ns_per_row",
    "query.sum_us",              "query.groupby_us",
    "query.topk_us",             "query.sum_rel_rmse",
    "window.ingest_ns_per_row",  "window.ring_merge_us",
    "window.view_us",            "window.node_cache_hit_ratio",
    "wire.encode_us",            "wire.snapshot_bytes",
    "obs.span_ns"};

// True for the per-layer metrics read off the library's metric counters,
// which a -DDSKETCH_NO_METRICS build reports as absent, never as 0.
bool CounterBacked(const std::string& name) {
  return !MetricsRecorded() &&
         (name == "shard.merges_per_query" ||
          name == "shard.queue_highwater_rows" ||
          name == "window.node_cache_hit_ratio");
}

// The share by which BENCHMARK.json lets a timing metric vary between
// runs of the same code.
constexpr double kTimingBound = 0.25;

// Latency percentiles are taken per window of about this many
// consecutive timed queries of one pass (a pass with fewer is one
// window), so a window's p95 has at least ten requests beyond it.
constexpr size_t kWindowQueries = 256;

// Cuts one pass's timed query latencies (in send order) into
// max(1, n / kWindowQueries) contiguous windows of near-equal size and
// appends each window's exact p-th percentile to `out`.
void WindowPercentiles(const std::vector<double>& v, double p,
                       std::vector<double>* out) {
  const size_t k = std::max<size_t>(1, v.size() / kWindowQueries);
  for (size_t w = 0; w < k; ++w) {
    const size_t lo = v.size() * w / k, hi = v.size() * (w + 1) / k;
    out->push_back(
        Percentile(std::vector<double>(v.begin() + lo, v.begin() + hi), p));
  }
}

// The self-check's inputs are this fraction of the full workloads.
constexpr double kSelfCheckScale = 1.0 / 32;

struct Args {
  Workload workload = Workload::kIngestZipf;
  bool have_workload = false;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_check = false;
  int serve_fd = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      a->self_check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(v, &a->workload)) return false;
      a->have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--serve-fd") {
      a->serve_fd = std::atoi(v);
    } else {
      return false;
    }
  }
  return a->self_check || a->have_workload;
}

std::string ExePath() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  return std::string(buf, static_cast<size_t>(n));
}

// Minimal JSON object writer (numbers keep all their digits).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// Machine and build facts recorded with every result.
std::string Facts(Workload w) {
  std::string thp = "unavailable";
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (std::getline(in, line)) {
    const size_t open = line.find('['), close = line.find(']');
    thp = open != std::string::npos && close > open
              ? line.substr(open + 1, close - open - 1)
              : line;
  }
  return Json()
      .Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Int("hardware_concurrency", std::thread::hardware_concurrency())
      .Str("compiler", __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("probe_isa", dsketch::FlatMapProbeIsa())
      .Str("alloc_mode", dsketch::AllocModeName(dsketch::GlobalAllocMode()))
      .Str("metrics", dsketch::obs::MetricsBuildMode())
      .Str("thp", thp)
      .Int("shards", ServerOptions(w).shard.num_shards)
      .str();
}

std::string Metric(double value, const char* unit) {
  return Json().Num("value", value).Str("unit", unit).str();
}

double RelRmse(const std::vector<double>& errors) {
  if (errors.empty()) return 0.0;
  double sq = 0;
  for (double e : errors) sq += e * e;
  return std::sqrt(sq / static_cast<double>(errors.size()));
}

// Server counters of the timed phase, from the METRICS exposition (none
// when the library records no metrics).
void CounterMetrics(const Script& s, const PassResult& p,
                    std::map<std::string, LayerMetric>* out) {
  if (!MetricsRecorded()) return;
  const std::string merges = "dsketch_shard_snapshot_merge_us_count";
  auto value = [](const std::map<std::string, double>& m,
                  const std::string& key) {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  size_t queries = 0;
  for (const Request& r : s.timed) queries += r.op != Op::kIngest;
  (*out)["shard.merges_per_query"] = {
      (value(p.metrics_after, merges) - value(p.metrics_before, merges)) /
          std::max<size_t>(1, queries),
      "count", "metrics"};
  double highwater = 0;
  const std::string gauge = "dsketch_shard_queue_depth_highwater{";
  for (const auto& [name, v] : p.metrics_after) {
    if (name.rfind(gauge, 0) == 0) highwater = std::max(highwater, v);
  }
  (*out)["shard.queue_highwater_rows"] = {highwater, "rows", "metrics"};
}

struct RunOutcome {
  std::vector<PassResult> passes;  // the measured passes
  PassResult reference;            // the first pass (a warm-up, or passes[0])
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

// An optional warm-up pass (checked, not measured), then passes until
// `budget_s` elapsed and at least `min_passes` ran. A pass whose answers
// differ from the first pass's counts as a failed check: for one seed
// the server's answers must repeat exactly.
RunOutcome RunPasses(const std::string& exe, const Script& script,
                     uint64_t seed, bool with_metrics, bool warmup,
                     double budget_s, size_t min_passes) {
  RunOutcome out;
  bool first = true;
  auto run_one = [&] {
    PassResult p = RunPass(exe, script, seed, with_metrics);
    out.attempted += p.attempted;
    out.failed += p.failed;
    if (out.first_failure.empty()) out.first_failure = p.first_failure;
    if (first) {
      out.reference = p;
      first = false;
    } else if (p.answer_digest != out.reference.answer_digest) {
      ++out.failed;
      if (out.first_failure.empty()) {
        out.first_failure = "answers differ between passes of one seed";
      }
    }
    return p;
  };
  if (warmup) run_one();
  const Clock::time_point start = Clock::now();
  while (out.failed == 0 && (out.passes.size() < min_passes ||
                             SecondsBetween(start, Clock::now()) < budget_s)) {
    out.passes.push_back(run_one());
  }
  return out;
}

// The traced run's per-layer metrics: the replay, the server counters of
// the first measured pass, and the oracle's filtered-sum error.
std::map<std::string, LayerMetric> TracedLayers(
    const Script& script, const dsketch::AttributeTable& attrs,
    const RunOutcome& run, Reconciliation* rec) {
  std::vector<double> pass_p50_us;
  for (const PassResult& p : run.passes) {
    pass_p50_us.push_back(Percentile(p.query_us, 50));
  }
  ReplayResult replay = Replay(script, attrs, Median(pass_p50_us));
  pass_p50_us.push_back(Percentile(run.reference.query_us, 50));
  std::map<std::string, LayerMetric> layers = std::move(replay.metrics);
  CounterMetrics(script, run.passes.front(), &layers);
  layers["query.sum_rel_rmse"] = {RelRmse(run.reference.rel_errors), "ratio",
                                  "oracle"};
  // The replay's median request must not take longer than the untraced
  // client's round trip, which contains it. The two come from different
  // runs, so the slowest pass's p50 is allowed the benchmark's own
  // run-to-run timing bound.
  *rec = replay.reconciliation;
  rec->ok = rec->layers_ok &&
            rec->handle_us <=
                (1 + kTimingBound) *
                    *std::max_element(pass_p50_us.begin(), pass_p50_us.end());
  return layers;
}

std::vector<double> Field(const std::vector<PassResult>& passes,
                          double PassResult::*field) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(p.*field);
  return v;
}

int Measure(const Args& a) {
  const std::string exe = ExePath();
  const dsketch::AttributeTable attrs = BuildAttributes(a.seed);
  const Script script = BuildScript(a.workload, a.seed, 1.0, attrs);
  std::printf("%s\n", Json()
                          .Str("workload", WorkloadName(a.workload))
                          .Int("seed", a.seed)
                          .Str("request_digest", Hex(script.digest))
                          .Int("requests", script.setup.size() +
                                               script.timed.size() +
                                               script.verify.size())
                          .Raw("facts", Facts(a.workload))
                          .str()
                          .c_str());

  // After a warm-up pass, a traced run spends a third of its time on
  // untraced passes (the client p50 the replay reconciles against) and
  // the rest replaying.
  const RunOutcome run =
      RunPasses(exe, script, a.seed, a.trace, /*warmup=*/true,
                a.trace ? a.seconds / 3 : a.seconds, a.trace ? 1 : 3);
  const std::vector<PassResult>& passes = run.passes;
  // Latency percentiles are exact within a window of consecutive queries
  // and reported as the median over every window of every measured pass;
  // every other per-pass figure is the median over passes. A burst of
  // host load that stalls a few requests spoils the windows it falls in,
  // not the median; a pooled tail, or one per pass, it moves a lot. The
  // tail is p95, not p99: host stalls that hit 1% of requests decide a
  // p99, which spread past the timing bound across runs of one build.
  std::vector<double> window_p50_us, window_p95_us;
  size_t query_samples = 0;
  for (const PassResult& p : passes) {
    const size_t windows = window_p50_us.size();
    WindowPercentiles(p.query_us, 50, &window_p50_us);
    WindowPercentiles(p.query_us, 95, &window_p95_us);
    query_samples += p.query_us.size();
    std::printf("%s\n", Json()
                            .Num("setup_s", p.setup_s)
                            .Num("timed_s", p.timed_s)
                            .Num("ingest_mrows_per_s", p.ingest_mrows_per_s)
                            .Num("preload_mrows_per_s", p.preload_mrows_per_s)
                            .Int("windows", window_p50_us.size() - windows)
                            .Num("query_p50_us", Percentile(p.query_us, 50))
                            .Num("query_p95_us", Percentile(p.query_us, 95))
                            .Num("query_p99_us", Percentile(p.query_us, 99))
                            .Num("queries_per_s", p.queries_per_s)
                            .Num("server_cpu_s", p.server_cpu_s)
                            .Num("server_rss_mb", p.server_rss_mb)
                            .Str("answer_digest", Hex(p.answer_digest))
                            .str()
                            .c_str());
  }
  bool correct = run.failed == 0 && !passes.empty();

  Json metrics;
  if (!a.trace) {
    const bool preload_rate = a.workload == Workload::kQueryCached;
    metrics
        .Raw("setup_s", Metric(Median(Field(passes, &PassResult::setup_s)), "s"))
        .Raw("ingest_mrows_per_s",
             Metric(Median(Field(passes, preload_rate
                                             ? &PassResult::preload_mrows_per_s
                                             : &PassResult::ingest_mrows_per_s)),
                    "Mrows/s"))
        .Raw("query_p50_us", Metric(Median(window_p50_us), "us"))
        .Raw("query_p95_us", Metric(Median(window_p95_us), "us"))
        .Raw("queries_per_s",
             Metric(Median(Field(passes, &PassResult::queries_per_s)), "1/s"))
        .Raw("server_cpu_s",
             Metric(Median(Field(passes, &PassResult::server_cpu_s)), "s"))
        .Raw("server_rss_mb",
             Metric(Median(Field(passes, &PassResult::server_rss_mb)), "MB"));
    std::printf("%s\n", Json()
                            .Int("passes", passes.size())
                            .Int("windows", window_p50_us.size())
                            .Int("query_samples", query_samples)
                            .Num("sum_rel_rmse", RelRmse(run.reference.rel_errors))
                            .Num("failed_ops", static_cast<double>(run.failed) /
                                                   std::max<uint64_t>(1, run.attempted))
                            .str()
                            .c_str());
  } else {
    std::map<std::string, LayerMetric> layers;
    Reconciliation rec;
    if (correct) {
      layers = TracedLayers(script, attrs, run, &rec);
      correct = rec.ok;
    }
    Json sources;
    for (const auto& [name, m] : layers) {
      metrics.Raw(name, Metric(m.value, m.unit));
      sources.Str(name, m.source);
    }
    std::printf("%s\n",
                Json()
                    .Raw("reconciliation",
                         Json()
                             .Num("layers_us", rec.layers_us)
                             .Num("handle_us", rec.handle_us)
                             .Num("unexplained_us", rec.unexplained_us)
                             .Num("client_p50_us", rec.client_p50_us)
                             .Num("timer_ns", rec.timer_ns)
                             .Int("requests", rec.requests)
                             .Bool("ok", rec.ok)
                             .str())
                    .Raw("sources", sources.str())
                    .str()
                    .c_str());
  }
  if (!run.first_failure.empty()) {
    std::fprintf(stderr, "svcbench: check failed: %s\n",
                 run.first_failure.c_str());
  }
  std::printf("%s\n", Json()
                          .Bool("correct", correct)
                          .Int("attempted", run.attempted)
                          .Int("failed", run.failed)
                          .Raw("metrics", metrics.str())
                          .str()
                          .c_str());
  return correct ? 0 : 1;
}

// Every workload at a tiny size: the oracle holds, and for one seed the
// request digest, the answers, sum_rel_rmse, the merge count, and the
// snapshot size repeat exactly across two runs.
int SelfCheck() {
  const std::string exe = ExePath();
  constexpr uint64_t kSeed = 7;
  const dsketch::AttributeTable attrs = BuildAttributes(kSeed);
  int failures = 0;
  for (Workload w : kAllWorkloads) {
    const Script a = BuildScript(w, kSeed, kSelfCheckScale, attrs);
    const Script b = BuildScript(w, kSeed, kSelfCheckScale, attrs);
    const RunOutcome ra = RunPasses(exe, a, kSeed, true, false, 0, 1);
    const RunOutcome rb = RunPasses(exe, b, kSeed, true, false, 0, 1);
    std::vector<std::string> problems;
    if (a.digest != b.digest) problems.push_back("request digest differs");
    if (ra.failed + rb.failed > 0) {
      problems.push_back("oracle: " + ra.first_failure + rb.first_failure);
    } else {
      const PassResult& pa = ra.passes.front();
      const PassResult& pb = rb.passes.front();
      if (pa.answer_digest != pb.answer_digest) {
        problems.push_back("answers differ");
      }
      if (RelRmse(pa.rel_errors) != RelRmse(pb.rel_errors) ||
          pa.rel_errors.empty()) {
        problems.push_back("sum_rel_rmse differs or is empty");
      }
      Reconciliation rec_a, rec_b;
      const auto xa = TracedLayers(a, attrs, ra, &rec_a);
      const auto xb = TracedLayers(b, attrs, rb, &rec_b);
      for (const char* name : kLayerMetrics) {
        if (!xa.count(name) && !CounterBacked(name)) {
          problems.push_back(std::string("per-layer metric missing: ") + name);
        }
      }
      for (const char* name : {"shard.merges_per_query", "wire.snapshot_bytes"}) {
        if (xa.count(name) && xa.at(name).value != xb.at(name).value) {
          problems.push_back(std::string(name) + " differs");
        }
      }
      if (!rec_a.layers_ok || !rec_b.layers_ok) {
        problems.push_back("summed layer times exceed HandleRequest");
      }
    }
    std::printf("self-check %s: %s\n", WorkloadName(w),
                problems.empty() ? "ok" : "FAILED");
    for (const std::string& p : problems) std::printf("  %s\n", p.c_str());
    failures += !problems.empty();
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: svcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 | --self-check\n");
    return 2;
  }
  if (args.serve_fd >= 0) {
    return perfbench::ServeMain(args.serve_fd, args.workload, args.seed);
  }
  if (args.self_check) return perfbench::SelfCheck();
  return perfbench::Measure(args);
}
